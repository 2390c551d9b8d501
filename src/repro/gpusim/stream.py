"""The device's default stream and its execution timeline.

GPU work is submitted to *streams*; work in one stream executes in order.
PASTA's coarse-grained events (kernel launch, memory copy, synchronisation —
Table II) carry the stream they were submitted to.  Every simulated workload
submits to the one default (legacy/null) stream, so that is the only stream a
device has.

The model tracks the device time at which the stream's last enqueued
operation completes.  Synchronisation advances the device clock to that time.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class StreamManager:
    """A device's one (default) stream."""

    def __init__(self, device: GpuDevice) -> None:
        self.device = device
        self._default = Stream(device_index=device.index, stream_id=DEFAULT_STREAM_ID)

    def get_stream(self, stream_id: int = DEFAULT_STREAM_ID) -> Stream:
        """Return a stream by id (the default stream if omitted)."""
        if stream_id != DEFAULT_STREAM_ID:
            raise StreamError(f"unknown stream {stream_id}")
        return self._default

    def synchronize_stream(self, stream_id: int = DEFAULT_STREAM_ID) -> int:
        """Block the host until ``stream_id`` drains; returns the new device time."""
        stream = self.get_stream(stream_id)
        if stream.tail_time_ns > self.device.now():
            self.device.advance(stream.tail_time_ns - self.device.now())
        return self.device.now()

    def synchronize_device(self) -> int:
        """Block the host until the device drains; returns the new device time."""
        return self.synchronize_stream()
