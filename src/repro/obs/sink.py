"""Run-scoped JSONL telemetry sink with a provenance manifest.

One telemetry run writes one ``telemetry.jsonl``: a stream of JSON objects,
one per line, in the order they were emitted, appended and read through
:mod:`repro.jsonl` like every other record file, so it tails, greps and
pipes like any other store.  The first line is always the run *manifest*,
which pins the provenance every later record inherits:

``{"type": "manifest", "schema": 1, "run_id": ..., "repro_version": ...,``
``"pid": ..., "rank": ..., "created_unix": ..., "platform": ...,``
``"python": ..., "argv": [...], "provenance": {...}}``

``provenance`` carries caller-supplied identity (the ProfileSpec digest, the
campaign name, the trace path).  Record types appended afterwards:

* ``span`` — one closed tracer span (:mod:`repro.obs.spans`);
* ``event`` — one point-in-time annotation (a :func:`repro.jsonl.envelope`);
* ``metrics`` — the final registry snapshot, written on close.

Every record is its own append (fault site ``telemetry.write``), so a
crashed run keeps everything emitted before the crash.  Telemetry is best
effort: a failed write is counted in ``write_errors``, never raised into
the profile it observes.
"""

from __future__ import annotations

import os
import platform
import sys
import time
import uuid
from pathlib import Path
from typing import Mapping, Optional, Union

from repro import jsonl

#: Default file name inside a telemetry directory.
TELEMETRY_FILE = "telemetry.jsonl"

#: Manifest schema version.
MANIFEST_SCHEMA = 1


def telemetry_path(target: Union[str, Path]) -> Path:
    """Resolve a CLI ``--telemetry`` target to the JSONL file path.

    A directory (existing or ending without a ``.jsonl`` suffix) means
    ``<dir>/telemetry.jsonl``; an explicit ``*.jsonl`` path is used as-is.
    """
    target = Path(target)
    if target.suffix == ".jsonl":
        return target
    return target / TELEMETRY_FILE


class JsonlSink(jsonl.BestEffortWriter):
    """Append-only JSONL writer for telemetry records."""

    def __init__(
        self,
        path: Union[str, Path],
        *,
        rank: int = 0,
        provenance: Optional[Mapping[str, object]] = None,
        argv: Optional[list[str]] = None,
    ) -> None:
        import repro

        super().__init__(Path(path), "telemetry.write")
        # A run starts a fresh file: the manifest must be its first line.
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_bytes(b"")
        self.run_id = uuid.uuid4().hex[:12]
        self.manifest: dict[str, object] = {
            "type": "manifest",
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "repro_version": repro.__version__,
            "pid": os.getpid(),
            "rank": rank,
            "created_unix": round(time.time(), 6),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "argv": list(sys.argv if argv is None else argv),
            "provenance": dict(provenance or {}),
        }
        self.write(self.manifest)

    def annotate_provenance(self, **fields: object) -> None:
        """Merge late-bound provenance (e.g. a spec digest) and append the
        delta as an ``event`` record, so readers see it without re-reading
        the manifest line."""
        self.manifest.setdefault("provenance", {}).update(fields)  # type: ignore[union-attr]
        self.write(jsonl.envelope("event", name="provenance", attrs=dict(fields)))

    def close(self, final_records: Optional[list[Mapping[str, object]]] = None) -> None:
        """Append any final records, then stop writing (idempotent)."""
        for record in final_records or []:
            self.write(record)
        super().close()


def read_records(target: Union[str, Path]) -> list[dict[str, object]]:
    """Load every record of a telemetry file (or directory).

    A torn or malformed line (a run killed mid-write) is warned about and
    skipped, as :func:`repro.jsonl.read` does for every record file.
    """
    return list(jsonl.read(telemetry_path(target)))
