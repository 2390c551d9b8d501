"""Append-only JSON Lines: the one writer, reader and record envelope.

The campaign result store and serve job journal, the progress bus and the
telemetry sink append through :func:`append` and read through :func:`read`;
the serve daemon streams the same :func:`line` bytes.  An append writes its
whole line in one ``write()`` on an ``O_APPEND`` descriptor, so concurrent
appenders never interleave inside a line, and starts a fresh line after a
writer that died mid-line, so a crash costs at most its own record.  Every
append fires a named ``PASTA_FAULTS`` site, where a ``torn_write`` fault
writes half the line and raises.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from pathlib import Path
from typing import Iterator, Mapping, Union

from repro.core.serialization import stable_json_dumps
from repro.errors import ReproError

#: Version stamped as ``v`` on every :func:`envelope` (the serve protocol's).
VERSION = 1


def line(record: Mapping[str, object]) -> bytes:
    """The stable JSON of ``record`` plus a newline, as UTF-8 (no NaN)."""
    return (stable_json_dumps(record) + "\n").encode("utf-8")


def envelope(type: str, **fields: object) -> dict[str, object]:
    """One self-describing record: ``{"type", "v", "ts_unix", **fields}``."""
    return {"type": type, "v": VERSION, "ts_unix": round(time.time(), 6), **fields}


def append(
    path: Union[str, Path],
    record: Mapping[str, object],
    *,
    site: str,
    label: str = "",
    fsync: bool = False,
) -> None:
    """Append ``record`` to ``path`` as one line, firing fault ``site``."""
    from repro.campaign.faults import active_faults  # lazy: repro.campaign imports us

    data = line(record)
    fault = active_faults().fire(site, label=label)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        end = os.lseek(fd, 0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) != b"\n":
            data = b"\n" + data  # a previous writer died mid-line
        if fault is not None and fault.kind == "torn_write":
            os.write(fd, data[: max(1, len(data) // 2)])
            raise ReproError(f"injected torn write at {path}")
        written = os.write(fd, data)
        if written != len(data):
            raise ReproError(f"short write at {path}: {written} of {len(data)} bytes")
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read(path: Union[str, Path], *, strict: bool = False) -> Iterator[dict[str, object]]:
    """Yield the records of ``path`` in append order.

    A torn, malformed or non-object line is warned about and skipped;
    ``strict=True`` raises :class:`ReproError` naming ``path:line`` instead.
    """
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except ValueError as error:
                problem = f"torn/corrupt record at {path}:{number}: {error}"
            else:
                if isinstance(record, dict):
                    yield record
                    continue
                problem = f"non-object record at {path}:{number}"
            if strict:
                raise ReproError(problem)
            warnings.warn(f"skipping {problem}", RuntimeWarning, stacklevel=2)


class BestEffortWriter:
    """Appends to one file for a record that must never fail the run it
    observes (progress, telemetry): a failed append is counted in
    ``write_errors`` and dropped, and writes after :meth:`close` are no-ops."""

    def __init__(self, path: Path, site: str) -> None:
        self.path = path
        self.site = site
        self.records_written = 0
        self.write_errors = 0
        self._counts = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def write(self, record: Mapping[str, object]) -> None:
        """Append one record, labelled for fault plans by its ``type``."""
        if self._closed:
            return
        try:
            append(self.path, record, site=self.site, label=str(record.get("type", "")))
        except (OSError, ValueError, ReproError):
            with self._counts:
                self.write_errors += 1
        else:
            with self._counts:
                self.records_written += 1

    def close(self) -> None:
        self._closed = True
