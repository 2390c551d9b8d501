"""Streaming trace reader with slicing and chunk-level random access.

:class:`TraceReader` consumes the container written by
:class:`~repro.replay.writer.TraceWriter`, in format version 2 or 1.  When
the sidecar index is present it reads the header and footer directly (no
full decompression), can seek to any chunk, and skips whole chunks whose
recorded category set cannot match a category filter; without the index it
walks the gzip members in file order, so a bare ``.pastatrace`` file is
always sufficient.  Every chunk is decoded by
:func:`~repro.replay.format.decode_chunk`.

Slicing
-------
:meth:`TraceReader.events` yields decoded events with three composable
filters:

* ``categories`` — keep only the given :class:`EventCategory` values;
* ``start_grid_id`` / ``end_grid_id`` — keep kernel launches whose sequential
  grid index lies in the window, plus the fine-grained events and memory
  profiles belonging to those launches (other bookkeeping events pass
  through, mirroring the semantics of the live range filter);
* ``region`` — keep only events inside ``pasta.start(label)`` /
  ``pasta.stop()`` regions with the given label (region boundaries included).

:meth:`TraceReader.slice_to` materialises any such view as a new, smaller
trace file that replays like the original.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import hashlib
import itertools
import json
import math
import zlib
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.core.events import (
    BATCH_CATEGORY_BASES,
    EventCategory,
    KernelLaunchEvent,
    KernelMemoryProfile,
    PastaEvent,
    RegionEvent,
)
from repro.errors import TraceError, TraceFormatError
from repro.replay.format import TraceFooter, TraceHeader, decode_chunk
from repro.replay.writer import TraceWriter, index_path_for

#: Category filter values may be enum members or their string values.
CategoryFilter = Optional[Iterable[Union[str, EventCategory]]]


#: Bytes read per call while walking the gzip members of a trace.
_READ_BYTES = 1 << 20


@contextlib.contextmanager
def _decoding(path: Path) -> Iterator[None]:
    """Turn any gzip or JSON decode failure into a :class:`TraceFormatError`
    naming ``path`` (a torn write, a truncated copy, flipped bytes)."""
    try:
        yield
    except (gzip.BadGzipFile, EOFError, zlib.error, ValueError) as error:
        raise TraceFormatError(f"corrupt trace {path}: {error}") from error


def _gzip_members(path: Path) -> Iterator[bytes]:
    """The uncompressed bytes of every gzip member of ``path``, in file order."""
    with open(path, "rb") as fh:
        data = fh.read(_READ_BYTES)
        while data:
            inflater = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)  # one gzip member
            parts = []
            while not inflater.eof:
                if not data:
                    raise EOFError("trace ends inside a gzip member")
                parts.append(inflater.decompress(data))
                data = inflater.unused_data if inflater.eof else fh.read(_READ_BYTES)
            yield b"".join(parts)
            data = data or fh.read(_READ_BYTES)


def _container_record(payload: bytes) -> dict:
    """The record of a header or footer member; ``{}`` for a chunk."""
    if not payload.startswith(b"{"):
        return {}  # a version-2 chunk starts with its binary prefix
    record = json.loads(payload.split(b"\n", 1)[0])
    return record if isinstance(record, dict) and record.get("kind") in ("header", "footer") else {}


def _normalize_categories(categories: CategoryFilter) -> Optional[frozenset[str]]:
    if categories is None:
        return None
    out = set()
    for category in categories:
        if isinstance(category, EventCategory):
            member = category
        else:
            try:
                member = EventCategory(str(category).strip().lower())
            except ValueError:
                valid = sorted(c.value for c in EventCategory)
                raise TraceError(
                    f"unknown event category {category!r}; valid: {valid}"
                ) from None
        out.add(member.value)
        # Slicing for a per-record fine-grained category keeps its batch
        # form too: recordings hold batches, while a third-party trace may
        # hold per-record events.
        for batch, base in BATCH_CATEGORY_BASES.items():
            if base is member:
                out.add(batch.value)
    return frozenset(out)


class TraceReader:
    """Reads one trace file; see module docstring for the slicing model."""

    def __init__(
        self,
        path: Union[str, Path],
        strict_schema: bool = True,
        allow_incomplete: bool = False,
    ) -> None:
        self.path = Path(path)
        self.allow_incomplete = allow_incomplete
        if not self.path.exists():
            raise TraceError(f"trace file not found: {self.path}")
        self._index = self._load_index()
        self.header = self._read_header()
        self.header.check_compatible(strict_schema)
        self._footer: Optional[TraceFooter] = None

    # ------------------------------------------------------------------ #
    # low-level access
    # ------------------------------------------------------------------ #
    def _load_index(self) -> Optional[dict]:
        index_path = index_path_for(self.path)
        if not index_path.exists():
            return None
        try:
            index = json.loads(index_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(index, dict) or not {"header", "chunks", "footer"} <= set(index):
            return None
        return index

    @property
    def indexed(self) -> bool:
        """True when the sidecar seek index is available."""
        return self._index is not None

    def _read_payload(self, entry: dict) -> bytes:
        """The uncompressed bytes of the gzip member an index entry locates."""
        with open(self.path, "rb") as fh:
            fh.seek(int(entry["offset"]))
            compressed = fh.read(int(entry["length"]))
        with _decoding(self.path):
            return gzip.decompress(compressed)

    def _read_record(self, entry: dict) -> dict:
        """The header or footer record an index entry locates."""
        payload = self._read_payload(entry)
        with _decoding(self.path):
            return _container_record(payload)

    def _read_header(self) -> TraceHeader:
        if self._index is not None:
            record = self._read_record(self._index["header"])
        else:
            with _decoding(self.path):
                record = _container_record(next(_gzip_members(self.path), b""))
        return TraceHeader.from_record(record)

    @property
    def footer(self) -> TraceFooter:
        """The trace footer (direct read with an index, full scan without)."""
        if self._footer is None:
            if self._index is not None:
                record = self._read_record(self._index["footer"])
            else:
                with _decoding(self.path):
                    record = {}
                    for payload in _gzip_members(self.path):
                        record = _container_record(payload)
                if record.get("kind") != "footer":
                    raise TraceFormatError(f"trace {self.path} has no footer (truncated?)")
            self._footer = TraceFooter.from_record(record)
        return self._footer

    def _decode(self, payload: bytes) -> list[PastaEvent]:
        with _decoding(self.path):
            return decode_chunk(payload, int(self.header.format_version))

    def _chunk_payloads(self) -> Iterator[bytes]:
        """Every chunk's uncompressed bytes, walking the gzip members."""
        with _decoding(self.path):
            for payload in _gzip_members(self.path):
                if not _container_record(payload):
                    yield payload

    def _chunks(
        self, chunk_categories: Optional[frozenset[str]] = None
    ) -> Iterator[list[PastaEvent]]:
        """Decoded chunks in order; ``chunk_categories`` enables chunk skipping."""
        if self._index is None:
            for payload in self._chunk_payloads():
                yield self._decode(payload)
            return
        for chunk in self._index["chunks"]:
            if chunk_categories is not None and not (
                set(chunk.get("categories") or ()) & chunk_categories
            ):
                continue
            yield self._decode(self._read_payload(chunk))

    # ------------------------------------------------------------------ #
    # chunk-level random access
    # ------------------------------------------------------------------ #
    @property
    def chunk_count(self) -> int:
        """Number of chunks (0 when the trace has no index)."""
        return len(self._index["chunks"]) if self._index is not None else 0

    def read_chunk(self, index: int) -> list[PastaEvent]:
        """Decode one chunk by ordinal (requires the sidecar index)."""
        if self._index is None:
            raise TraceError(
                f"trace {self.path} has no seek index; chunk access needs the "
                f"{index_path_for(self.path).name} sidecar"
            )
        chunks = self._index["chunks"]
        if not 0 <= index < len(chunks):
            raise TraceError(f"chunk index {index} out of range [0, {len(chunks)})")
        return self._decode(self._read_payload(chunks[index]))

    # ------------------------------------------------------------------ #
    # event streaming with slicing
    # ------------------------------------------------------------------ #
    def events(
        self,
        categories: CategoryFilter = None,
        start_grid_id: Optional[int] = None,
        end_grid_id: Optional[int] = None,
        region: Optional[str] = None,
        device_index: Optional[int] = None,
    ) -> Iterator[PastaEvent]:
        """Stream decoded events, optionally sliced (see module docstring).

        ``device_index`` keeps only events attributed to one GPU — the
        per-rank view of a multi-GPU recording (every event carries the
        device index its producer stamped, Section IV-D), composable with
        the other filters.
        """
        if not self.allow_incomplete and not self.footer.complete:
            raise TraceError(
                f"trace {self.path} is incomplete (recording aborted: "
                f"{self.footer.abort_reason or 'unknown'}); pass "
                f"allow_incomplete=True to analyse the partial stream anyway"
            )
        wanted = _normalize_categories(categories)
        kernel_window = start_grid_id is not None or end_grid_id is not None
        # Chunk skipping is only sound for a pure category slice: grid-window
        # and region slicing need to observe events that are not themselves
        # yielded (region boundaries, launches defining the window).
        skip_filter = wanted if (not kernel_window and region is None) else None
        # The live processor's rule for a grid window, in one pass: an event
        # of a launch already seen follows that launch's decision at once;
        # one whose launch is still to come (backends emit a kernel's device
        # records just before its launch-end event) waits for it, and
        # whatever still waits at the end is dropped.
        low = -math.inf if start_grid_id is None else start_grid_id
        high = math.inf if end_grid_id is None else end_grid_id
        in_window: dict[int, bool] = {}
        waiting: dict[int, list[PastaEvent]] = {}
        region_depth = 0
        for event in itertools.chain.from_iterable(self._chunks(skip_filter)):
            if kernel_window and isinstance(event, KernelLaunchEvent):
                keep = in_window[event.launch_id] = low <= event.grid_index <= high
                held = waiting.pop(event.launch_id, ())
                if not keep:
                    continue
                yield from held
            if device_index is not None and event.device_index != device_index:
                continue
            if region is not None:
                if isinstance(event, RegionEvent) and event.label == region:
                    if event.starting:
                        region_depth += 1
                    else:
                        if region_depth <= 0:
                            continue
                        region_depth -= 1
                elif region_depth <= 0:
                    continue
            if wanted is not None and event.category.value not in wanted:
                continue
            if kernel_window and not isinstance(event, KernelLaunchEvent):
                launch_id = getattr(event, "kernel_launch_id", None)
                if launch_id is None and isinstance(event, KernelMemoryProfile):
                    launch_id = event.launch_id
                if launch_id is not None:
                    keep_launch = in_window.get(launch_id)
                    if keep_launch is None:
                        waiting.setdefault(launch_id, []).append(event)
                    if not keep_launch:
                        continue
            yield event

    def __iter__(self) -> Iterator[PastaEvent]:
        return self.events()

    # ------------------------------------------------------------------ #
    # verification / summary / slicing
    # ------------------------------------------------------------------ #
    def verify(self) -> bool:
        """Recompute the content digest over the uncompressed chunk bytes,
        and the event count, and compare both against the footer."""
        footer = self.footer
        hasher = hashlib.sha256()
        count = 0
        for payload in self._chunk_payloads():
            hasher.update(payload)
            count += len(self._decode(payload))
        return hasher.hexdigest() == footer.digest and count == footer.event_count

    def info(self) -> dict[str, object]:
        """Summary of the trace for ``pasta trace info``."""
        footer = self.footer
        return {
            "path": str(self.path),
            "file_bytes": self.path.stat().st_size,
            "indexed": self.indexed,
            "chunks": self.chunk_count or footer.chunk_count,
            "header": dataclasses.asdict(self.header),
            "footer": dataclasses.asdict(footer),
        }

    def slice_to(
        self,
        path: Union[str, Path],
        categories: CategoryFilter = None,
        start_grid_id: Optional[int] = None,
        end_grid_id: Optional[int] = None,
        region: Optional[str] = None,
        device_index: Optional[int] = None,
        chunk_events: Optional[int] = None,
    ) -> TraceFooter:
        """Write a sliced copy of this trace to ``path``."""
        workload = dict(self.header.workload)
        workload["sliced_from"] = str(self.path)
        if device_index is not None:
            workload["sliced_device_index"] = int(device_index)
        header = dataclasses.replace(self.header, workload=workload)
        writer_kwargs = {} if chunk_events is None else {"chunk_events": chunk_events}
        with TraceWriter(path, header, **writer_kwargs) as writer:
            for event in self.events(
                categories=categories,
                start_grid_id=start_grid_id,
                end_grid_id=end_grid_id,
                region=region,
                device_index=device_index,
            ):
                writer.write(event)
            return writer.close()
