"""Streams, events and a simple asynchronous execution timeline.

GPU work is submitted to *streams*; work in one stream executes in order while
different streams may overlap.  PASTA's coarse-grained events (kernel launch,
memory copy, synchronisation — Table II) carry the stream they were submitted
to, and timeline-style tools need per-stream completion times.

The model tracks, per stream, the device time at which the last enqueued
operation completes.  Synchronisation advances the device clock to the maximum
completion time across the streams being waited on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import StreamError
from repro.gpusim.device import GpuDevice

#: Identifier of the default (legacy/null) stream.
DEFAULT_STREAM_ID = 0


@dataclass
class Stream:
    """One in-order work queue on a device."""

    device_index: int
    stream_id: int
    #: Device time at which the most recently enqueued work finishes.
    tail_time_ns: int = 0
    #: Number of operations enqueued so far.
    enqueued_ops: int = 0

    def enqueue(self, start_time_ns: int, duration_ns: int) -> tuple[int, int]:
        """Enqueue work; returns its (start, end) times respecting stream order."""
        if duration_ns < 0:
            raise StreamError("operation duration must be non-negative")
        start = max(start_time_ns, self.tail_time_ns)
        end = start + duration_ns
        self.tail_time_ns = end
        self.enqueued_ops += 1
        return start, end


@dataclass
class GpuEvent:
    """A CUDA/HIP event: a marker recorded into a stream."""

    event_id: int
    recorded_time_ns: Optional[int] = None

    @property
    def is_recorded(self) -> bool:
        """True once the event has been recorded into a stream."""
        return self.recorded_time_ns is not None


class StreamManager:
    """Per-device collection of streams and events, each numbered from 1."""

    def __init__(self, device: GpuDevice) -> None:
        self.device = device
        self._streams: dict[int, Stream] = {
            DEFAULT_STREAM_ID: Stream(device_index=device.index, stream_id=DEFAULT_STREAM_ID)
        }
        self._events: dict[int, GpuEvent] = {}
        self._stream_ids = itertools.count(1)
        self._event_ids = itertools.count(1)

    def create_stream(self) -> Stream:
        """Create a new non-default stream."""
        stream = Stream(device_index=self.device.index, stream_id=next(self._stream_ids))
        self._streams[stream.stream_id] = stream
        return stream

    def destroy_stream(self, stream_id: int) -> None:
        """Destroy a non-default stream."""
        if stream_id == DEFAULT_STREAM_ID:
            raise StreamError("the default stream cannot be destroyed")
        if stream_id not in self._streams:
            raise StreamError(f"unknown stream {stream_id}")
        del self._streams[stream_id]

    def get_stream(self, stream_id: int = DEFAULT_STREAM_ID) -> Stream:
        """Return a stream by id (the default stream if omitted)."""
        try:
            return self._streams[stream_id]
        except KeyError:
            raise StreamError(f"unknown stream {stream_id}") from None

    def streams(self) -> list[Stream]:
        """All live streams on this device."""
        return list(self._streams.values())

    # ------------------------------------------------------------------ #
    # events and synchronisation
    # ------------------------------------------------------------------ #
    def create_event(self) -> GpuEvent:
        """Create an unrecorded event."""
        event = GpuEvent(event_id=next(self._event_ids))
        self._events[event.event_id] = event
        return event

    def record_event(self, event: GpuEvent, stream_id: int = DEFAULT_STREAM_ID) -> None:
        """Record ``event`` at the current tail of ``stream_id``."""
        stream = self.get_stream(stream_id)
        event.recorded_time_ns = max(stream.tail_time_ns, self.device.now())

    def elapsed_ns(self, start: GpuEvent, end: GpuEvent) -> int:
        """Time between two recorded events."""
        if not start.is_recorded or not end.is_recorded:
            raise StreamError("both events must be recorded before measuring elapsed time")
        return int(end.recorded_time_ns) - int(start.recorded_time_ns)

    def synchronize_stream(self, stream_id: int = DEFAULT_STREAM_ID) -> int:
        """Block the host until ``stream_id`` drains; returns the new device time."""
        stream = self.get_stream(stream_id)
        if stream.tail_time_ns > self.device.now():
            self.device.advance(stream.tail_time_ns - self.device.now())
        return self.device.now()

    def synchronize_device(self) -> int:
        """Block the host until all streams drain; returns the new device time."""
        latest = max((s.tail_time_ns for s in self._streams.values()), default=0)
        if latest > self.device.now():
            self.device.advance(latest - self.device.now())
        return self.device.now()
