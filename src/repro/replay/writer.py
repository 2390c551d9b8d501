"""Buffered trace writer: the recording tap between handler and processor.

:class:`TraceWriter` persists a normalised event stream into the chunked,
gzip-member container described in :mod:`repro.replay.format`.  Events are
buffered and laid out one chunk at a time (:func:`~repro.replay.format.encode_chunk`),
so the per-event cost on the recording (live) session is one list append
and a category count.  Every ``chunk_events`` events the caller encodes the
buffer and hands the chunk to the writer's thread, which digests,
compresses and appends it while the caller goes on producing and encoding
the next one (zlib and hashlib release the GIL).  At most one chunk is in
flight, and a failure on that thread is raised on the caller.  Closing the
writer emits the footer (counts + content digest) and a sidecar index that
maps every chunk to its ``(offset, length)`` byte span for random access.

The profile runner (:func:`repro.api.execute`) owns the writer and hands it
to every rank's ``PastaSession(trace_writer=...)``, which installs it as a
tap on the handler's sink: every event the handler forwards to the event
processor is also appended to the trace, regardless of backend, tool mix or
analysis model — which is exactly what makes the trace replayable under a
*different* tool mix or analysis model later.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.core.events import EventCategory, KernelLaunchEvent, PastaEvent
from repro.errors import TraceError
from repro.replay.format import (
    COMPRESS_LEVEL,
    DEFAULT_CHUNK_EVENTS,
    TRACE_FORMAT_VERSION,
    TraceFooter,
    TraceHeader,
    dumps_record,
    encode_chunk,
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
        if int(header.format_version) < TRACE_FORMAT_VERSION:
            # A header carried over from an older trace (a slice of it, say):
            # this file holds chunks in the current layout.
            header = dataclasses.replace(header, format_version=TRACE_FORMAT_VERSION)
        self.header = header
        self.chunk_events = chunk_events
        self.events_written = 0
        self._buffer: list[PastaEvent] = []
        self._buffer_categories: set[str] = set()
        self._buffer_min_grid: Optional[int] = None
        self._buffer_max_grid: Optional[int] = None
        self._chunks: list[ChunkInfo] = []
        self._category_counts: dict[str, int] = {}
        self._hasher = hashlib.sha256()
        self._closed = False
        self._complete = True
        self._abort_reason = ""
        #: The thread writing the chunk in flight, and what it raised.
        self._pending: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        index_path_for(self.path).unlink(missing_ok=True)  # a stale one describes another file
        self._file = open(self.path, "wb")
        self._offset = 0
        self._header_length = self._write_record(header.to_record())

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once the footer has been written, or a failed write was raised."""
        return self._closed

    def write(self, event: PastaEvent) -> None:
        """Append one event to the trace (buffered)."""
        if self._closed:
            raise TraceError(f"trace writer for {self.path} is already closed")
        self._buffer.append(event)
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

        Fault site ``trace.write``; runs on the caller for the header and
        footer and on the writer thread for chunks.  A failed write leaves the
        file torn, so the writer writes nothing more, from ``close``,
        ``abort`` or ``__del__``.
        """
        from repro.campaign.faults import active_faults  # lazy: repro.campaign imports us

        member = gzip.compress(payload, compresslevel=COMPRESS_LEVEL, mtime=0)
        fault = active_faults().fire("trace.write", label=str(self.path))
        if fault is not None and fault.kind == "torn_write":
            self._file.write(member[: max(1, len(member) // 2)])
            raise TraceError(f"injected torn write at {self.path}")
        self._file.write(member)
        self._offset += len(member)
        return len(member)

    def _write_record(self, record: dict[str, object]) -> int:
        """Write the header or footer member on the caller's thread."""
        try:
            return self._write_member((dumps_record(record) + "\n").encode("utf-8"))
        except BaseException:
            self._fail()
            raise

    def _write_chunk(self, payload: bytes, chunk: ChunkInfo) -> None:
        """The writer thread: digest, compress and append one encoded chunk."""
        try:
            self._hasher.update(payload)
            chunk.offset = self._offset
            chunk.length = self._write_member(payload)
            self._chunks.append(chunk)
        except BaseException as error:
            self._error = error  # raised on the caller by _wait()

    def _wait(self) -> None:
        """Wait for the chunk in flight; a failure writing it is raised here."""
        if self._pending is not None:
            self._pending.join()
            self._pending = None
        if self._error is not None:
            error, self._error = self._error, None
            self._fail()
            raise error

    def _fail(self) -> None:
        """Give the file up unfinished: no footer and no index follow."""
        self._complete = False
        self._closed = True
        self._file.close()

    def _flush_chunk(self) -> None:
        if not self._buffer:
            return
        try:
            payload = encode_chunk(self._buffer)
        except BaseException:
            self._wait()  # a chunk that failed earlier is the first error
            self._fail()  # like a failed write: the chunk cannot be written
            raise
        chunk = ChunkInfo(
            offset=0,  # offset and length: set once the member is written
            length=0,
            events=len(self._buffer),
            first_event=self.events_written - len(self._buffer),
            categories=sorted(self._buffer_categories),
            min_grid=self._buffer_min_grid,
            max_grid=self._buffer_max_grid,
        )
        self._wait()  # one chunk in flight at a time
        # A thread per chunk: none waits idle, so none can outlive a writer
        # that is dropped without close().
        self._pending = threading.Thread(
            target=self._write_chunk, args=(payload, chunk), name="pasta-trace-writer"
        )
        self._pending.start()
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
        self._wait()
        footer = self.footer()
        footer_offset = self._offset
        footer_length = self._write_record(footer.to_record())
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

    With ``save_to``, the recording is also written to a trace file there
    while it runs: the runner opens a :class:`TraceWriter` at ``save_to``
    (:attr:`file`), which this trace forwards each event to, and closes it
    when the run finishes or aborts it when the run fails.  Replays still
    read the events in memory, so :attr:`path` stays ``None``.
    """

    path = None  # no file to replay from; the session tap never closes it
    closed = False

    def __init__(
        self,
        header: Optional[TraceHeader] = None,
        events: Iterable[PastaEvent] = (),
        save_to: Union[str, Path, None] = None,
    ) -> None:
        self.header = header
        self._events = list(events)
        self.save_to = save_to
        #: The runner's writer at ``save_to`` (None when not saving).
        self.file: Optional[TraceWriter] = None

    def write(self, event: PastaEvent) -> None:
        """Append one event (the session tap's interface)."""
        self._events.append(event)
        if self.file is not None:
            self.file.write(event)

    def events(self) -> Iterator[PastaEvent]:
        """Every recorded event, in order."""
        return iter(self._events)
