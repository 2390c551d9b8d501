"""Streaming trace reader with slicing and chunk-level random access.

:class:`TraceReader` consumes the container written by
:class:`~repro.replay.writer.TraceWriter`.  When the sidecar index is present
it reads the header and footer directly (no full decompression), can seek to
any chunk, and skips whole chunks whose recorded category set cannot match a
category filter; without the index it falls back to a plain streaming scan,
so a bare ``.pastatrace`` file is always sufficient.

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
import json
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
from repro.replay.format import TraceFooter, TraceHeader, decode_event
from repro.replay.writer import TraceWriter, index_path_for

#: Category filter values may be enum members or their string values.
CategoryFilter = Optional[Iterable[Union[str, EventCategory]]]


@contextlib.contextmanager
def _decoding(path: Path) -> Iterator[None]:
    """Turn any gzip or JSON decode failure into a :class:`TraceFormatError`
    naming ``path`` (a torn write, a truncated copy, flipped bytes)."""
    try:
        yield
    except (gzip.BadGzipFile, EOFError, zlib.error, ValueError) as error:
        raise TraceFormatError(f"corrupt trace {path}: {error}") from error


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

    def _read_member(self, entry: dict) -> list[dict]:
        """The records of the gzip member an index entry locates."""
        with open(self.path, "rb") as fh:
            fh.seek(int(entry["offset"]))
            compressed = fh.read(int(entry["length"]))
        with _decoding(self.path):
            return [json.loads(line) for line in gzip.decompress(compressed).splitlines()]

    def _read_header(self) -> TraceHeader:
        if self._index is not None:
            record = self._read_member(self._index["header"])[0]
        else:
            record = next(self._all_records(), {})
        return TraceHeader.from_record(record)

    @property
    def footer(self) -> TraceFooter:
        """The trace footer (direct read with an index, full scan without)."""
        if self._footer is None:
            if self._index is not None:
                record = self._read_member(self._index["footer"])[0]
            else:
                record = None
                for candidate in self._all_records():
                    record = candidate
                if not (isinstance(record, dict) and record.get("kind") == "footer"):
                    raise TraceFormatError(f"trace {self.path} has no footer (truncated?)")
            self._footer = TraceFooter.from_record(record)
        return self._footer

    def _all_records(self) -> Iterator[dict]:
        """Every JSON record in file order, including header and footer."""
        with _decoding(self.path), gzip.open(self.path, "rb") as fh:
            for line in fh:
                if line.strip():
                    yield json.loads(line)

    def _event_records(
        self, chunk_categories: Optional[frozenset[str]] = None
    ) -> Iterator[dict]:
        """Encoded event records; ``chunk_categories`` enables chunk skipping."""
        if self._index is not None:
            for chunk in self._index["chunks"]:
                if chunk_categories is not None and not (
                    set(chunk.get("categories") or ()) & chunk_categories
                ):
                    continue
                yield from self._read_member(chunk)
            return
        for record in self._all_records():
            if record.get("kind") in ("header", "footer"):
                continue
            yield record

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
        return [decode_event(record) for record in self._read_member(chunks[index])]

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
        launches_in_window: Optional[frozenset[int]] = None
        if kernel_window:
            # Backends emit a kernel's fine-grained events *before* its
            # canonical launch-end event, so the window's launch-id set must
            # be collected in a cheap pre-pass over the raw records.
            launches_in_window = self._launches_in_window(start_grid_id, end_grid_id)
        region_depth = 0
        for record in self._event_records(skip_filter):
            event = decode_event(record)
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
            if launches_in_window is not None:
                if isinstance(event, KernelLaunchEvent):
                    if event.launch_id not in launches_in_window:
                        continue
                else:
                    launch_id = getattr(event, "kernel_launch_id", None)
                    if launch_id is None and isinstance(event, KernelMemoryProfile):
                        launch_id = event.launch_id
                    if launch_id is not None and launch_id not in launches_in_window:
                        continue
            if wanted is not None and event.category.value not in wanted:
                continue
            yield event

    def _launches_in_window(
        self, start_grid_id: Optional[int], end_grid_id: Optional[int]
    ) -> frozenset[int]:
        """Launch ids of the kernel launches inside a grid-index window.

        Works on the raw records (no event decoding) so the pre-pass costs
        one decompress + JSON parse of the kernel-launch lines only.
        """
        launch_tag = KernelLaunchEvent.__name__
        kernel_chunks = frozenset({EventCategory.KERNEL_LAUNCH.value})
        launches = set()
        for record in self._event_records(kernel_chunks):
            if record.get("type") != launch_tag:
                continue
            grid_index = int(record.get("grid_index", 0))
            if start_grid_id is not None and grid_index < start_grid_id:
                continue
            if end_grid_id is not None and grid_index > end_grid_id:
                continue
            launches.add(int(record.get("launch_id", 0)))
        return frozenset(launches)

    def __iter__(self) -> Iterator[PastaEvent]:
        return self.events()

    # ------------------------------------------------------------------ #
    # verification / summary / slicing
    # ------------------------------------------------------------------ #
    def verify(self) -> bool:
        """Recompute the content digest and compare against the footer."""
        footer = self.footer
        hasher = hashlib.sha256()
        count = 0
        previous: Optional[bytes] = None
        first = True
        with _decoding(self.path), gzip.open(self.path, "rb") as fh:
            for line in fh:
                if first:
                    first = False  # header line: never part of the digest
                    continue
                if previous is not None:
                    hasher.update(previous)
                    count += 1
                previous = line
        # `previous` now holds the footer line, which is not hashed.
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
