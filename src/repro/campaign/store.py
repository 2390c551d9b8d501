"""Append-only JSONL result store.

Every completed (or failed) campaign job appends one self-describing JSON
record to a ``.jsonl`` file.  Append-only keeps concurrent writers safe and
preserves history across re-runs; readers deduplicate by job digest, keeping
the most recent record, which makes the store double as the input to
baseline-vs-current regression diffs — and, for the distributed fabric, the
source of truth crash-resume rebuilds completed work from.

Crash behaviour: a worker killed mid-append leaves a *torn* trailing line.
Reads tolerate that by default — the same discipline as the telemetry sink
(:func:`repro.obs.sink.read_records`): a malformed line is warned about and
skipped, everything parseable is kept.  ``strict=True`` restores
fail-on-anything for forensic reads.  Appends self-heal the tear: when the
file does not end in a newline (a previous writer died mid-line), the next
append starts on a fresh line, so one crash corrupts at most one record,
never the records written after resume.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.campaign.faults import active_faults
from repro.core.serialization import stable_json_dumps
from repro.errors import ReproError


class ResultStore:
    """One JSONL file of campaign job records."""

    def __init__(self, path: Union[str, Path], fsync: bool = False) -> None:
        self.path = Path(path)
        #: fsync after every append (durability against host crashes).
        self.fsync = fsync

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def append(self, record: dict[str, object]) -> None:
        """Append one record (sanitized, stable key order) to the store."""
        if not isinstance(record, dict):
            raise ReproError(f"store records must be dicts, got {type(record).__name__}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = stable_json_dumps(record)
        fault = active_faults().fire("store.append", label=str(record.get("digest", "")))
        with self.path.open("a", encoding="utf-8") as fh:
            if self._needs_newline_boundary(fh):
                fh.write("\n")
            if fault is not None and fault.kind == "torn_write":
                # Emulate dying mid-append: half a line, no newline, and the
                # caller sees the crash as an exception.
                fh.write(line[: max(1, len(line) // 2)])
                fh.flush()
                raise ReproError(
                    f"injected torn write at {self.path}"
                )
            fh.write(line)
            fh.write("\n")
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())

    def _needs_newline_boundary(self, fh) -> bool:
        """True when the file ends mid-line (a previous writer was killed)."""
        try:
            end = fh.tell()
            if end == 0:
                return False
            with self.path.open("rb") as probe:
                probe.seek(end - 1)
                return probe.read(1) != b"\n"
        except OSError:
            return False

    def extend(self, records: list[dict[str, object]]) -> None:
        """Append several records."""
        for record in records:
            self.append(record)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def iter_records(self, strict: bool = False) -> Iterator[dict[str, object]]:
        """Yield records in append order.

        A malformed line — the torn tail of a ``kill -9``'d writer, or a
        tear mid-file that a later append healed past — is warned about and
        skipped by default, so one crash never makes the whole store
        unreadable.  ``strict=True`` raises instead (the historical
        behaviour), for callers that must not silently lose a record.
        """
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                record: object
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    if strict:
                        raise ReproError(
                            f"corrupt record at {self.path}:{lineno}: {error}"
                        ) from error
                    warnings.warn(
                        f"skipping torn/corrupt record at {self.path}:{lineno}: "
                        f"{error}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                if not isinstance(record, dict):
                    if strict:
                        raise ReproError(f"non-object record at {self.path}:{lineno}")
                    warnings.warn(
                        f"skipping non-object record at {self.path}:{lineno}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                yield record

    def load(self, strict: bool = False) -> list[dict[str, object]]:
        """All records in append order."""
        return list(self.iter_records(strict=strict))

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_records())

    def __iter__(self) -> Iterator[dict[str, object]]:
        return self.iter_records()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        status: Optional[str] = None,
        campaign: Optional[str] = None,
        **job_fields: object,
    ) -> list[dict[str, object]]:
        """Records filtered by status, campaign name, and job-spec fields.

        ``job_fields`` match against the record's embedded job dict, e.g.
        ``store.query(model="bert", device="a100")``.
        """
        out = []
        for record in self.iter_records():
            if status is not None and record.get("status") != status:
                continue
            if campaign is not None and record.get("campaign") != campaign:
                continue
            job = record.get("job") or {}
            if not isinstance(job, dict):
                continue
            if all(job.get(key) == value for key, value in job_fields.items()):
                out.append(record)
        return out

    def latest_by_digest(self) -> dict[str, dict[str, object]]:
        """Most recent record per job digest (later appends win)."""
        out: dict[str, dict[str, object]] = {}
        for record in self.iter_records():
            digest = record.get("digest")
            if isinstance(digest, str):
                out[digest] = record
        return out

    def clear(self) -> None:
        """Delete the backing file (used by ``pasta campaign clean``)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
