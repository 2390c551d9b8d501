"""Buffered trace writer: the recording tap between handler and processor.

:class:`TraceWriter` persists a normalised event stream into the chunked,
gzip-member container described in :mod:`repro.replay.format`.  Events are
buffered and compressed one chunk at a time, so the per-event cost on the
recording (live) session is one dict encode plus a JSON dump; compression
happens every ``chunk_events`` events.  Closing the writer emits the footer
(counts + content digest) and a sidecar index that maps every chunk to its
``(offset, length)`` byte span for random access.

The profile runner (:func:`repro.api.execute`) owns the writer and hands it
to every rank's ``PastaSession(trace_writer=...)``, which installs it as a
tap on the handler's sink: every event the handler forwards to the event
processor is also appended to the trace, regardless of backend, tool mix or
analysis model — which is exactly what makes the trace replayable under a
*different* tool mix or analysis model later.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.core.events import EventCategory, KernelLaunchEvent, PastaEvent
from repro.errors import TraceError
from repro.replay.format import (
    DEFAULT_CHUNK_EVENTS,
    TRACE_FORMAT_VERSION,
    TraceFooter,
    TraceHeader,
    dumps_record,
    encode_event,
)

#: Suffix appended to the trace path for the seek index sidecar.
INDEX_SUFFIX = ".idx.json"


def index_path_for(path: Union[str, Path]) -> Path:
    """Location of the sidecar index for a trace at ``path``."""
    return Path(str(path) + INDEX_SUFFIX)


@dataclass
class ChunkInfo:
    """Index entry for one compressed chunk."""

    offset: int
    length: int
    events: int
    #: Ordinal of the chunk's first event within the whole trace.
    first_event: int
    #: Event categories present in the chunk (for chunk-skipping reads).
    categories: list[str] = field(default_factory=list)
    #: Grid-index range of the kernel launches in the chunk (None when none).
    min_grid: Optional[int] = None
    max_grid: Optional[int] = None

    def to_dict(self) -> dict[str, object]:
        return {
            "offset": self.offset,
            "length": self.length,
            "events": self.events,
            "first_event": self.first_event,
            "categories": sorted(self.categories),
            "min_grid": self.min_grid,
            "max_grid": self.max_grid,
        }


class TraceWriter:
    """Writes one trace file; append events, then :meth:`close`.

    Parameters
    ----------
    path:
        Destination file.  Parent directories are created as needed.
    header:
        The :class:`TraceHeader` describing the recording.
    chunk_events:
        Events buffered per compressed chunk (the flush granularity).

    :meth:`close` also writes the ``<path>.idx.json`` seek index.
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: TraceHeader,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if chunk_events < 1:
            raise TraceError(f"chunk_events must be >= 1, got {chunk_events}")
        self.path = Path(path)
        self.header = header
        self.chunk_events = chunk_events
        self.events_written = 0
        self._buffer: list[bytes] = []
        self._buffer_categories: set[str] = set()
        self._buffer_min_grid: Optional[int] = None
        self._buffer_max_grid: Optional[int] = None
        self._chunks: list[ChunkInfo] = []
        self._category_counts: dict[str, int] = {}
        self._hasher = hashlib.sha256()
        self._closed = False
        self._complete = True
        self._abort_reason = ""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        index_path_for(self.path).unlink(missing_ok=True)  # a stale one describes another file
        self._file = open(self.path, "wb")
        self._offset = 0
        self._header_length = self._write_member(
            (dumps_record(header.to_record()) + "\n").encode("utf-8")
        )

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once the footer has been written, or a write failed."""
        return self._closed

    def write(self, event: PastaEvent) -> None:
        """Append one event to the trace (buffered)."""
        if self._closed:
            raise TraceError(f"trace writer for {self.path} is already closed")
        line = (dumps_record(encode_event(event)) + "\n").encode("utf-8")
        self._hasher.update(line)
        self._buffer.append(line)
        category = event.category.value if isinstance(event.category, EventCategory) else str(event.category)
        self._buffer_categories.add(category)
        self._category_counts[category] = self._category_counts.get(category, 0) + 1
        if isinstance(event, KernelLaunchEvent):
            grid = event.grid_index
            if self._buffer_min_grid is None or grid < self._buffer_min_grid:
                self._buffer_min_grid = grid
            if self._buffer_max_grid is None or grid > self._buffer_max_grid:
                self._buffer_max_grid = grid
        self.events_written += 1
        if len(self._buffer) >= self.chunk_events:
            self._flush_chunk()

    def _write_member(self, payload: bytes) -> int:
        """Compress ``payload`` as one gzip member; returns its byte length.

        Fault site ``trace.write``.  A failed write leaves the file torn, so
        the writer writes nothing more, from ``close``, ``abort`` or ``__del__``.
        """
        from repro.campaign.faults import active_faults  # lazy: repro.campaign imports us

        member = gzip.compress(payload, mtime=0)
        try:
            fault = active_faults().fire("trace.write", label=str(self.path))
            if fault is not None and fault.kind == "torn_write":
                self._file.write(member[: max(1, len(member) // 2)])
                raise TraceError(f"injected torn write at {self.path}")
            self._file.write(member)
        except BaseException:
            self._complete = False
            self._closed = True
            self._file.close()
            raise
        self._offset += len(member)
        return len(member)

    def _flush_chunk(self) -> None:
        if not self._buffer:
            return
        offset = self._offset
        length = self._write_member(b"".join(self._buffer))
        self._chunks.append(ChunkInfo(
            offset=offset,
            length=length,
            events=len(self._buffer),
            first_event=self.events_written - len(self._buffer),
            categories=sorted(self._buffer_categories),
            min_grid=self._buffer_min_grid,
            max_grid=self._buffer_max_grid,
        ))
        self._buffer = []
        self._buffer_categories = set()
        self._buffer_min_grid = None
        self._buffer_max_grid = None

    # ------------------------------------------------------------------ #
    # finalisation
    # ------------------------------------------------------------------ #
    def footer(self) -> TraceFooter:
        """The footer describing everything written so far."""
        return TraceFooter(
            event_count=self.events_written,
            chunk_count=len(self._chunks),
            category_counts=dict(sorted(self._category_counts.items())),
            digest=self._hasher.hexdigest(),
            complete=self._complete,
            abort_reason=self._abort_reason,
        )

    def abort(self, reason: str = "") -> TraceFooter:
        """Finalise a recording that did not cover the whole run.

        The trace stays readable (everything written is kept, the digest is
        valid), but its footer is marked incomplete so readers refuse it by
        default instead of producing confidently wrong analyses.
        """
        self._complete = False
        self._abort_reason = str(reason)
        return self.close()

    def close(self) -> TraceFooter:
        """Flush, write the footer (and index) and close the file."""
        if self._closed:
            return self.footer()
        self._flush_chunk()
        footer = self.footer()
        footer_offset = self._offset
        footer_length = self._write_member(
            (dumps_record(footer.to_record()) + "\n").encode("utf-8")
        )
        self._file.close()
        self._closed = True
        index = {
            "format_version": TRACE_FORMAT_VERSION,
            "header": {"offset": 0, "length": self._header_length},
            "chunks": [chunk.to_dict() for chunk in self._chunks],
            "footer": {"offset": footer_offset, "length": footer_length},
            "event_count": footer.event_count,
            "digest": footer.digest,
        }
        index_path_for(self.path).write_text(
            json.dumps(index, indent=None, sort_keys=True) + "\n", encoding="utf-8"
        )
        return footer

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # The body died mid-recording: keep what was written but mark the
            # trace incomplete so readers refuse it by default.
            self.abort(f"{exc_type.__name__}: {exc}")
        else:
            self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass


class MemoryTrace:
    """A recording kept in memory: the trace header plus the tapped events.

    ``repro.api.execute(spec, record_to=MemoryTrace())`` fills it through the
    session tap a :class:`TraceWriter` gets; every replay entry point accepts
    it as a trace and re-drives its events without a decode (replays only
    read them, so one recording serves any number of replays).
    """

    path = None  # no file; the session tap never closes it
    closed = False

    def __init__(
        self, header: Optional[TraceHeader] = None, events: Iterable[PastaEvent] = ()
    ) -> None:
        self.header = header
        self._events = list(events)

    def write(self, event: PastaEvent) -> None:
        """Append one event (the session tap's interface)."""
        self._events.append(event)

    def events(self) -> Iterator[PastaEvent]:
        """Every recorded event, in order."""
        return iter(self._events)

    def save(self, path: Union[str, Path]) -> None:
        """Encode the recording into a trace file at ``path``."""
        with TraceWriter(path, self.header) as writer:
            for event in self._events:
                writer.write(event)
