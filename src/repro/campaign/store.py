"""Append-only JSONL result store.

Every completed (or failed) campaign job appends one self-describing JSON
record to a ``.jsonl`` file.  Append-only keeps concurrent writers safe and
preserves history across re-runs; readers deduplicate by job digest, keeping
the most recent record, which makes the store double as the input to
baseline-vs-current regression diffs — and, for the distributed fabric, the
source of truth crash-resume rebuilds completed work from.

Appends and reads go through :mod:`repro.jsonl` (fault site
``store.append``), which owns the crash behaviour: a worker killed
mid-append costs at most its own record, and reads warn about and skip a
torn line unless ``strict=True``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional, Union

from repro import jsonl
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
        jsonl.append(
            self.path, record, site="store.append",
            label=str(record.get("digest", "")), fsync=self.fsync,
        )

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def iter_records(self, strict: bool = False) -> Iterator[dict[str, object]]:
        """Yield records in append order.

        A missing file has no records.  A malformed line is warned about
        and skipped by default (see :func:`repro.jsonl.read`); ``strict=True``
        raises instead, for callers that must not silently lose a record.
        """
        if self.path.exists():
            yield from jsonl.read(self.path, strict=strict)

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
