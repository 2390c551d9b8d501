"""Live campaign progress: a status event bus streaming to ``status.jsonl``.

The result store records what a campaign *produced*; this module records
what it is *doing right now*.  A :class:`ProgressWriter` appends one
:func:`repro.jsonl.envelope` per lifecycle transition — campaign start/end,
job queued/started/retried/finished (with cache hit/miss attribution),
per-rank iteration progress for parallel profiles — to a ``status.jsonl``
next to the result store, best effort (a failed write is counted in
``write_errors``), so ``pasta campaign watch`` sees each record at once.

Like the telemetry layer, the bus has a process-global active handle
(:data:`ACTIVE_PROGRESS`, :func:`progress_scope`) defaulting to a shared
no-op, so instrumented layers (the scheduler, the api runner, the parallel
runner) emit unconditionally at the cost of one method call when no one is
watching.  Worker *threads* share the active bus; process-pool workers run
in fresh interpreters and cannot reach it — their jobs still produce
queued/started/finished records (emitted by the scheduler's main thread),
they just lack in-job rank events.

:func:`snapshot_status` folds the stream into completion counts, cache
attribution, throughput and an ETA; :func:`render_status` renders that for
the ``watch`` terminal.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import ContextManager, Mapping, Optional, Union

from repro import jsonl
from repro.active import ActiveHandle
from repro.errors import ReproError

#: File name used when the status target is a directory.
STATUS_FILE = "status.jsonl"


def status_path(target: Union[str, Path]) -> Path:
    """Resolve a status target: a ``.jsonl`` path verbatim, else ``dir/status.jsonl``."""
    path = Path(target)
    if path.suffix == ".jsonl":
        return path
    return path / STATUS_FILE


class ProgressWriter(jsonl.BestEffortWriter):
    """Append-only JSONL stream of progress events (fault site ``progress.write``)."""

    enabled = True

    def __init__(self, target: Union[str, Path]) -> None:
        super().__init__(status_path(target), "progress.write")

    def emit(self, kind: str, **fields: object) -> None:
        """Append one envelope of type ``kind`` (thread-safe: scheduler
        worker threads emit through the same writer as the main thread)."""
        self.write(jsonl.envelope(kind, **fields))

    def __enter__(self) -> "ProgressWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullProgress:
    """The disabled bus: ``emit`` falls through immediately."""

    enabled = False
    records_written = 0

    def emit(self, kind: str, **fields: object) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullProgress":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The shared disabled bus (the module default).
NULL_PROGRESS = NullProgress()

#: The process-wide active progress bus.
ACTIVE_PROGRESS: ActiveHandle[Union[ProgressWriter, NullProgress]] = ActiveHandle(NULL_PROGRESS)


def active_progress() -> Union[ProgressWriter, NullProgress]:
    """The currently active progress bus (the shared null object when off)."""
    return ACTIVE_PROGRESS.get()


def activate_progress(
    bus: Union[ProgressWriter, NullProgress],
) -> Union[ProgressWriter, NullProgress]:
    """Install ``bus`` as the process-wide active progress bus."""
    return ACTIVE_PROGRESS.set(bus)


def deactivate_progress() -> None:
    """Reset the active bus to the shared null object."""
    ACTIVE_PROGRESS.set(NULL_PROGRESS)


def progress_scope(
    bus: Union[ProgressWriter, NullProgress], *, close: bool = True
) -> ContextManager[Union[ProgressWriter, NullProgress]]:
    """Scope ``bus`` as active, restoring (and closing) on exit."""
    return ACTIVE_PROGRESS.scope(bus, close=close)


# ---------------------------------------------------------------------- #
# reading + aggregation (the `watch` side)
# ---------------------------------------------------------------------- #
def read_status(target: Union[str, Path]) -> list[dict[str, object]]:
    """All readable status records (torn lines are warned about and skipped)."""
    path = status_path(target)
    if not path.exists():
        raise ReproError(f"no status file at {path}")
    return list(jsonl.read(path))


def snapshot_status(
    records: list[dict[str, object]], *, now_unix: Optional[float] = None
) -> dict[str, object]:
    """Fold a status stream into one JSON-native progress snapshot.

    Captures: campaign identity, job lifecycle counts (queued / running /
    finished, by outcome status), cache hit/miss attribution, retries,
    throughput and a naive ETA (remaining jobs at the observed rate), plus
    the latest per-rank iteration progress of any in-flight parallel job.
    """
    campaign: dict[str, object] = {}
    jobs: dict[object, dict[str, object]] = {}
    ranks: dict[object, dict[int, dict[str, object]]] = {}
    retried_events = 0
    lease_events: dict[str, int] = {}
    started_ts: Optional[float] = None
    last_ts: Optional[float] = None
    ended = False
    for record in records:
        ts = record.get("ts_unix")
        if isinstance(ts, (int, float)):
            last_ts = float(ts)
        kind = record.get("type")
        event = record.get("event")
        if kind == "campaign":
            if event == "start":
                campaign = {
                    "campaign": record.get("campaign"),
                    "execution": record.get("execution"),
                    "total": record.get("total"),
                    "slots": record.get("slots"),
                }
                if isinstance(ts, (int, float)):
                    started_ts = float(ts)
            elif event == "end":
                ended = True
        elif kind == "job":
            key = record.get("index", record.get("job"))
            state = jobs.setdefault(key, {"job": record.get("job")})
            state["event"] = event
            if event == "finished":
                state["status"] = record.get("status")
                state["cache_hit"] = bool(record.get("cache_hit"))
                state["duration_s"] = record.get("duration_s")
                if record.get("stolen"):
                    state["stolen"] = True
            elif event == "retried":
                retried_events += 1
        elif kind == "lease":
            if isinstance(event, str):
                lease_events[event] = lease_events.get(event, 0) + 1
        elif kind == "rank":
            job_ranks = ranks.setdefault(record.get("job"), {})
            rank = record.get("rank")
            if isinstance(rank, int):
                job_ranks[rank] = {
                    "iteration": record.get("iteration"),
                    "iterations": record.get("iterations"),
                }

    finished = [s for s in jobs.values() if s.get("event") == "finished"]
    running = sum(1 for s in jobs.values() if s.get("event") in ("started", "retried"))
    queued = sum(1 for s in jobs.values() if s.get("event") == "queued")
    by_status: dict[str, int] = {}
    for state in finished:
        status = str(state.get("status"))
        by_status[status] = by_status.get(status, 0) + 1
    cache_hits = sum(1 for s in finished if s.get("cache_hit"))
    total = campaign.get("total")
    total_jobs = int(total) if isinstance(total, int) else len(jobs)
    remaining = max(0, total_jobs - len(finished))

    now = time.time() if now_unix is None else now_unix
    # A live stream measures elapsed against the wall clock; a finished (or
    # stale) one against its own last record.
    end_ts = last_ts if (ended or last_ts is None) else max(now, last_ts)
    elapsed_s = (
        max(0.0, end_ts - started_ts)
        if started_ts is not None and end_ts is not None else 0.0
    )
    throughput = (len(finished) / elapsed_s) if elapsed_s > 0 and finished else None
    eta_s = (
        remaining / throughput
        if throughput and remaining and not ended else (0.0 if ended else None)
    )
    return {
        **campaign,
        "total": total_jobs,
        "queued": queued,
        "running": running,
        "finished": len(finished),
        "remaining": remaining,
        "by_status": dict(sorted(by_status.items())),
        "cache_hits": cache_hits,
        "cache_misses": len(finished) - cache_hits,
        "retried": retried_events,
        "stolen": sum(1 for s in finished if s.get("stolen")),
        "leases": dict(sorted(lease_events.items())),
        "elapsed_s": round(elapsed_s, 3),
        "throughput_jobs_s": (
            round(throughput, 3) if throughput is not None else None
        ),
        "eta_s": round(eta_s, 3) if eta_s is not None else None,
        "ranks": {
            str(job): {f"rank{r}": dict(v) for r, v in sorted(job_ranks.items())}
            for job, job_ranks in ranks.items() if job_ranks
        },
        "ended": ended,
    }


def render_status(snapshot: Mapping[str, object]) -> str:
    """Terminal rendering of one :func:`snapshot_status` result."""
    by_status = snapshot.get("by_status") or {}
    status_text = (
        "  [" + ", ".join(f"{k} {v}" for k, v in by_status.items()) + "]"  # type: ignore[union-attr]
        if by_status else ""
    )
    lines = [
        f"campaign {snapshot.get('campaign')}  "
        f"execution={snapshot.get('execution')}  "
        f"{snapshot.get('total')} jobs  slots={snapshot.get('slots')}",
        f"progress: {snapshot.get('finished')}/{snapshot.get('total')} finished "
        f"({snapshot.get('running')} running, {snapshot.get('queued')} queued)"
        f"{status_text}",
        f"cache: {snapshot.get('cache_hits')} hits / "
        f"{snapshot.get('cache_misses')} misses  retries: {snapshot.get('retried')}",
    ]
    stolen = snapshot.get("stolen")
    leases = snapshot.get("leases") or {}
    if stolen or leases:
        lease_text = ", ".join(f"{k} {v}" for k, v in leases.items())  # type: ignore[union-attr]
        lines.append(
            f"fabric: {stolen or 0} stolen"
            + (f"  leases: [{lease_text}]" if lease_text else "")
        )
    throughput = snapshot.get("throughput_jobs_s")
    eta = snapshot.get("eta_s")
    lines.append(
        f"elapsed: {snapshot.get('elapsed_s')}s  "
        f"throughput: {throughput if throughput is not None else 'n/a'} jobs/s  "
        f"eta: {f'{eta}s' if eta is not None else 'n/a'}"
    )
    ranks = snapshot.get("ranks") or {}
    for job, job_ranks in ranks.items():  # type: ignore[union-attr]
        parts = ", ".join(
            f"{rank} {v.get('iteration')}/{v.get('iterations')}"
            for rank, v in job_ranks.items()
        )
        lines.append(f"ranks[{job}]: {parts}")
    if snapshot.get("ended"):
        lines.append("campaign finished")
    return "\n".join(lines)


__all__ = [
    "NULL_PROGRESS",
    "NullProgress",
    "ProgressWriter",
    "STATUS_FILE",
    "active_progress",
    "activate_progress",
    "deactivate_progress",
    "progress_scope",
    "read_status",
    "render_status",
    "snapshot_status",
    "status_path",
]
