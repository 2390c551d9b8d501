"""The daemon's persistent worker pool and job table.

A :class:`JobManager` owns everything stateful behind the HTTP surface:

* a **worker pool** of plain threads running every job through
  :class:`~repro.campaign.scheduler.CampaignScheduler` — a profile
  submission as a one-cell campaign — the same executor a local ``pasta
  campaign run`` uses, which is what makes remote results byte-identical to
  local ones and gives a profile result the record shape of a campaign
  cell;
* the **content-addressed cache** (:class:`~repro.campaign.cache.ResultCache`)
  under ``<data_dir>/cache``: a submission whose spec digest is already
  cached completes without simulating anything, and the same directory is
  what the daemon serves to remote campaign schedulers over
  ``GET/PUT /v1/cache/<digest>``;
* a **job journal** (:class:`~repro.campaign.store.ResultStore`, the PR 8
  crash-safe JSONL store) under ``<data_dir>/jobs.jsonl``: every submission
  appends a ``submitted`` record, every terminal transition a ``finished``
  record, so a daemon restart — including ``kill -9`` — re-enqueues exactly
  the jobs that never finished and restores the rest as history;
* **auth-less multi-tenancy**: every job belongs to a namespace, and
  per-namespace in-flight / total quotas turn runaway clients into 429-style
  :class:`QuotaExceeded` rejections instead of unbounded queues.

Streaming: each job accumulates its lifecycle as a list of protocol records
(:mod:`repro.serve.protocol`); :meth:`JobManager.stream` replays them from
any index and then blocks for new ones, which is how ``GET
/v1/jobs/<id>/stream`` resumes a disconnected client mid-campaign without
losing or duplicating records.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Union

import repro
from repro import jsonl
from repro.api.spec import ProfileSpec
from repro.campaign.cache import ResultCache
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.core.serialization import content_digest, json_sanitize
from repro.errors import ReproError
from repro.obs.telemetry import active as _active_telemetry
from repro.serve.protocol import (
    DEFAULT_NAMESPACE,
    JOB_KINDS,
    TERMINAL_STATES,
    validate_namespace,
)

#: Default per-namespace cap on queued + running jobs.
DEFAULT_QUOTA_INFLIGHT = 64

#: Seconds a blocked stream waits between liveness checks.
_STREAM_POLL_S = 0.2


class QuotaExceeded(ReproError):
    """A namespace hit its in-flight or total submission quota (HTTP 429)."""

    def __init__(self, message: str, *, namespace: str, quota: str) -> None:
        super().__init__(message)
        self.namespace = namespace
        #: Which quota tripped: ``"inflight"`` or ``"total"``.
        self.quota = quota


class JournalError(ReproError):
    """The job journal could not record a submission (HTTP 503)."""


@dataclass
class Job:
    """One submission's full lifecycle, held in memory by the manager."""

    id: str
    namespace: str
    kind: str
    payload: dict[str, object]
    digest: str
    state: str = "queued"
    cache_hit: bool = False
    error: Optional[str] = None
    created_unix: float = field(default_factory=lambda: round(time.time(), 6))
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: Protocol records accumulated so far (what ``/stream`` replays).
    events: list[dict[str, object]] = field(default_factory=list)
    cancel_requested: bool = False
    #: The ``result`` protocol record's payload, once produced.
    result: Optional[dict[str, object]] = None
    #: True when the job was re-enqueued by a daemon restart.
    resumed: bool = False
    #: What :meth:`JobManager.submit` parsed: the cells to run, and the
    #: campaign they expand from (None for a profile job).  Dropped when the
    #: job finishes; a job recovered from the journal parses its payload.
    parsed: Optional[tuple[list[ProfileSpec], Optional[CampaignSpec]]] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_record(self) -> dict[str, object]:
        """The job's current ``type="job"`` status record."""
        return jsonl.envelope(
            "job",
            event="status",
            job_id=self.id,
            namespace=self.namespace,
            kind=self.kind,
            state=self.state,
            digest=self.digest,
            cache_hit=self.cache_hit,
            created_unix=self.created_unix,
            started_unix=self.started_unix,
            finished_unix=self.finished_unix,
            error=self.error,
            events=len(self.events),
            resumed=self.resumed,
        )


def _reject_record_to(specs: Iterable[ProfileSpec]) -> None:
    """A daemon never writes a trace to a path a client names."""
    if any(spec.record_to is not None for spec in specs):
        raise ReproError(
            "remote runs cannot record traces to a client-side path; "
            "drop 'record_to' from the submitted spec"
        )


def _cell(label: str, digest: str, status: str, error: object) -> dict[str, object]:
    """One campaign cell as serve reports it: a cache hit reads ``"ok"``."""
    cell: dict[str, object] = {
        "label": label,
        "digest": digest,
        "status": "ok" if status == "cached" else status,
        "cache_hit": status == "cached",
    }
    if error is not None:
        cell["error"] = error
    return cell


class _CellProgress:
    """Progress-bus sink of one served job: a cancel request aborts the
    scheduler (cells not yet started end ``skipped`` and emit no record),
    and each finished cell of a campaign becomes the job's ``progress``
    record."""

    def __init__(self, manager: "JobManager", job: Job, scheduler: CampaignScheduler,
                 digests: list[str]) -> None:
        self.manager = manager
        self.job = job
        self.scheduler = scheduler
        #: Full cell digests by grid index (the bus carries 12-char prefixes).
        self.digests = digests

    def emit(self, kind: str, **fields: object) -> None:
        if self.job.cancel_requested:
            self.scheduler.abort("cancelled by the client")
        if (self.job.kind != "campaign" or kind != "job" or fields["event"] != "finished"
                or fields["status"] == "skipped"):
            return
        index = int(fields["index"])  # type: ignore[call-overload]
        cell = _cell(str(fields["job"]), self.digests[index], str(fields["status"]), fields["error"])
        with self.manager._cond:
            self.manager._emit_locked(self.job, jsonl.envelope(
                "progress", job_id=self.job.id, index=index, total=len(self.digests), **cell
            ))


def classify_submission(body: Mapping[str, object]) -> tuple[str, dict[str, object]]:
    """Split a submission body into ``(kind, spec_dict)``.

    Accepts either an envelope ``{"kind": "profile"|"campaign", "spec": {...}}``
    or a bare spec dict, classified by its identifying field: a
    :class:`ProfileSpec` always has ``model``, a :class:`CampaignSpec` always
    has ``name``.
    """
    if "kind" in body or "spec" in body:
        kind = body.get("kind")
        spec = body.get("spec")
        if kind not in JOB_KINDS:
            raise ReproError(
                f"submission kind must be one of {list(JOB_KINDS)}, got {kind!r}"
            )
        if not isinstance(spec, Mapping):
            raise ReproError("submission envelope needs a 'spec' object")
        return str(kind), dict(spec)
    if "model" in body:
        return "profile", dict(body)
    if "name" in body:
        return "campaign", dict(body)
    raise ReproError(
        "submission is neither a ProfileSpec (needs 'model') nor a "
        "CampaignSpec (needs 'name'); or wrap it as {'kind': ..., 'spec': ...}"
    )


class JobManager:
    """Queue, execute, persist and stream profiling jobs."""

    def __init__(
        self,
        data_dir: Union[str, Path],
        *,
        workers: int = 2,
        quota_inflight: Optional[int] = DEFAULT_QUOTA_INFLIGHT,
        quota_total: Optional[int] = None,
        version: Optional[str] = None,
        fsync: bool = False,
    ) -> None:
        if workers < 1:
            raise ReproError(f"JobManager needs at least 1 worker, got {workers}")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.version = version if version is not None else repro.__version__
        self.cache = ResultCache(self.data_dir / "cache", fsync=fsync)
        self.journal = ResultStore(self.data_dir / "jobs.jsonl", fsync=fsync)
        self.quota_inflight = quota_inflight
        self.quota_total = quota_total
        self.started_unix = round(time.time(), 6)

        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        #: One condition guards the job table, event lists and counters;
        #: every append notifies all blocked streams.
        self._cond = threading.Condition()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._seq = itertools.count(1)
        self._closed = False
        #: Simulations actually run (profile jobs + campaign cells).
        self.executed = 0
        #: Submissions (or cells) answered from the cache.
        self.cache_hits = 0
        #: Jobs re-enqueued from the journal on startup.
        self.resumed = 0
        #: Submissions rejected by a quota.
        self.quota_rejections = 0

        self._recover()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"pasta-serve-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse(
        kind: str, payload: Mapping[str, object]
    ) -> tuple[list[ProfileSpec], Optional[CampaignSpec]]:
        """Validate a spec payload: its cells, and the campaign they expand from."""
        if kind == "profile":
            cells, campaign = [ProfileSpec.from_dict(payload)], None
        elif kind == "campaign":
            campaign = CampaignSpec.from_dict(payload)
            # Expansion validates every axis value early, so a bad grid is a
            # 400 at submit time, not a failed job minutes later.
            cells = campaign.expand()
        else:
            raise ReproError(f"unknown job kind {kind!r}; expected {list(JOB_KINDS)}")
        _reject_record_to(cells)
        return cells, campaign

    def _check_quotas(self, namespace: str) -> None:
        """Raise :class:`QuotaExceeded` when ``namespace`` is over budget."""
        mine = [j for j in self._jobs.values() if j.namespace == namespace]
        if self.quota_total is not None and len(mine) >= self.quota_total:
            self.quota_rejections += 1
            raise QuotaExceeded(
                f"namespace {namespace!r} reached its total submission quota "
                f"({self.quota_total})",
                namespace=namespace, quota="total",
            )
        if self.quota_inflight is not None:
            inflight = sum(1 for j in mine if not j.terminal)
            if inflight >= self.quota_inflight:
                self.quota_rejections += 1
                raise QuotaExceeded(
                    f"namespace {namespace!r} has {inflight} jobs in flight "
                    f"(quota {self.quota_inflight}); wait for one to finish "
                    f"or cancel it",
                    namespace=namespace, quota="inflight",
                )

    def submit(
        self,
        payload: Mapping[str, object],
        *,
        namespace: str = DEFAULT_NAMESPACE,
        kind: Optional[str] = None,
    ) -> Job:
        """Queue one submission; returns the created :class:`Job`.

        ``payload`` is a spec dict (or submission envelope, see
        :func:`classify_submission`).  Raises :class:`ReproError` on an
        invalid spec, :class:`QuotaExceeded` over quota and
        :class:`JournalError` when the submission cannot be journaled — the
        daemon maps those to 400 / 429 / 503 error records.
        """
        namespace = validate_namespace(namespace)
        if kind is None:
            kind, spec_payload = classify_submission(payload)
        else:
            _, spec_payload = (
                classify_submission(payload) if ("kind" in payload or "spec" in payload)
                else (kind, dict(payload))
            )
        cells, campaign = self._parse(kind, spec_payload)
        digest = (
            cells[0].digest(self.version) if campaign is None
            else content_digest(campaign.to_dict(), self.version)
        )
        telemetry = _active_telemetry()
        with self._cond:
            if self._closed:
                raise ReproError("the job manager is shut down")
            self._check_quotas(namespace)
            job = Job(
                id=f"job-{next(self._seq):06d}-{os.urandom(3).hex()}",
                namespace=namespace,
                kind=kind,
                payload=json_sanitize(dict(spec_payload)),
                digest=digest,
                parsed=(cells, campaign),
            )
            # Journal first: a job the journal never recorded would not
            # survive a restart, so it must not enter the table either.
            try:
                self.journal.append({
                    "event": "submitted",
                    "job_id": job.id,
                    "namespace": job.namespace,
                    "kind": job.kind,
                    "payload": job.payload,
                    "digest": job.digest,
                    "created_unix": job.created_unix,
                })
            except (OSError, ReproError) as error:
                telemetry.counter("serve.journal_errors").inc()
                raise JournalError(f"could not journal the submission: {error}") from error
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._emit_locked(job, self._job_event(job, "queued"))
        telemetry.counter("serve.jobs_submitted").inc()
        self._queue.put(job.id)
        return job

    # ------------------------------------------------------------------ #
    # recovery (daemon restart / kill -9)
    # ------------------------------------------------------------------ #
    def _recover(self) -> None:
        """Rebuild the job table from the journal and re-enqueue open work.

        ``submitted`` records without a matching ``finished`` record are jobs
        a previous daemon accepted but never completed — they are re-queued
        in submission order with their original ids.  Finished jobs are
        restored as terminal history (their result events are synthesized
        from the journal record, and for profile jobs the full result is
        still available content-addressed in the cache).
        """
        seen = 0
        for rec in self.journal.iter_records():
            job_id = rec.get("job_id")
            if not isinstance(job_id, str):
                continue
            event = rec.get("event")
            if event == "submitted":
                payload = rec.get("payload")
                digest = rec.get("digest")
                if not isinstance(payload, dict) or not isinstance(digest, str):
                    continue
                seen += 1
                job = Job(
                    id=job_id,
                    namespace=str(rec.get("namespace") or DEFAULT_NAMESPACE),
                    kind=str(rec.get("kind") or "profile"),
                    payload=payload,
                    digest=digest,
                    created_unix=float(rec.get("created_unix") or 0.0),
                )
                job.events.append(self._job_event(job, "queued"))
                self._jobs[job_id] = job
                self._order.append(job_id)
            elif event == "finished" and job_id in self._jobs:
                job = self._jobs[job_id]
                job.state = str(rec.get("status") or "done")
                job.cache_hit = bool(rec.get("cache_hit"))
                job.error = rec.get("error")  # type: ignore[assignment]
                job.finished_unix = rec.get("finished_unix")  # type: ignore[assignment]
                if job.state == "done":
                    result = rec.get("result")
                    if not isinstance(result, dict) and job.kind == "profile":
                        result = self.cache.get(job.digest)
                    if isinstance(result, dict):
                        job.result = result
                        job.events.append(
                            jsonl.envelope("result", job_id=job.id, record=result)
                        )
                job.events.append(self._job_event(job, "finished"))
        for job_id in self._order:
            job = self._jobs[job_id]
            if not job.terminal:
                job.resumed = True
                self.resumed += 1
                self._queue.put(job_id)
        # Continue the id sequence past everything journaled so restarted
        # daemons never mint a colliding job id.
        self._seq = itertools.count(seen + 1)

    # ------------------------------------------------------------------ #
    # lookup / listing / streaming
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job:
        """The job for ``job_id`` (raises :class:`ReproError` when unknown)."""
        job = self._jobs.get(job_id)
        if job is None:
            raise ReproError(f"unknown job {job_id!r}")
        return job

    def jobs(self, namespace: Optional[str] = None) -> list[Job]:
        """All jobs in submission order, optionally filtered by namespace."""
        with self._cond:
            out = [self._jobs[jid] for jid in self._order]
        if namespace is not None:
            out = [j for j in out if j.namespace == namespace]
        return out

    def stream(
        self, job_id: str, from_index: int = 0, timeout: Optional[float] = None
    ) -> Iterator[dict[str, object]]:
        """Yield a job's protocol records from ``from_index``, then follow.

        Replays everything already accumulated, then blocks for new records
        until the job reaches a terminal state (or ``timeout`` elapses /
        the manager shuts down).  A reconnecting client passes the count of
        records it already consumed as ``from_index`` and loses nothing.
        """
        job = self.get(job_id)
        index = max(0, int(from_index))
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cond:
                while (
                    index >= len(job.events)
                    and not job.terminal
                    and not self._closed
                ):
                    remaining = _STREAM_POLL_S
                    if deadline is not None:
                        remaining = min(remaining, deadline - time.monotonic())
                        if remaining <= 0:
                            return
                    self._cond.wait(remaining)
                batch = job.events[index:]
            for rec in batch:
                yield rec
            index += len(batch)
            with self._cond:
                if (job.terminal or self._closed) and index >= len(job.events):
                    return

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: str) -> Job:
        """Request cancellation: queued jobs cancel immediately, running
        jobs transition to ``cancelling`` and stop at the next safe point
        (for campaign jobs, the next grid-cell boundary)."""
        job = self.get(job_id)
        with self._cond:
            if job.terminal:
                return job
            job.cancel_requested = True
            if job.state == "queued":
                self._finish_locked(job, "cancelled")
            elif job.state == "running":
                job.state = "cancelling"
                self._emit_locked(job, self._job_event(job, "cancelling"))
        _active_telemetry().counter("serve.jobs_cancelled").inc()
        return job

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            if self._closed:
                # Shutting down: leave the job queued-in-journal (no terminal
                # record) so the next daemon start re-enqueues it.
                continue
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                continue  # cancelled while queued, or stale after recovery
            try:
                self._run_job(job)
            except BaseException as error:  # pragma: no cover - last resort
                with self._cond:
                    if not job.terminal:
                        job.error = f"{type(error).__name__}: {error}"
                        self._finish_locked(job, "failed")

    def _run_job(self, job: Job) -> None:
        telemetry = _active_telemetry()
        with self._cond:
            if job.terminal:
                return
            job.state = "running"
            job.started_unix = round(time.time(), 6)
            self._emit_locked(job, self._job_event(job, "started"))
        with telemetry.span(
            "serve.job", kind=job.kind, namespace=job.namespace, digest=job.digest
        ):
            try:
                self._run_scheduled(job)
            except ReproError as error:
                self._fail(job, str(error))
            except Exception as error:
                self._fail(job, f"{type(error).__name__}: {error}")

    def _run_scheduled(self, job: Job) -> None:
        """Run a job through the campaign scheduler, inline: a campaign over
        its grid, a profile job as a one-cell campaign whose result is the
        cell's record, as the cache holds it."""
        cells, campaign = job.parsed or self._parse(job.kind, job.payload)
        digests = [cell.digest(self.version) for cell in cells]
        scheduler = CampaignScheduler(
            cache=self.cache, version=self.version,
            execution=None if campaign is None else campaign.execution,
        )
        scheduler.progress = _CellProgress(self, job, scheduler, digests)
        run = scheduler.run(cells, name=None if campaign is None else campaign.name)
        telemetry = _active_telemetry()
        telemetry.counter("serve.simulations").inc(run.executed)
        telemetry.counter("serve.cache_hits").inc(run.cached)
        if job.kind == "campaign":
            # Per-cell reports stay content-addressed in the cache — the
            # result lists their digests so a client fetches exactly what it
            # wants via GET /v1/cache/<digest> instead of one giant payload.
            result = {
                "campaign": run.name,
                "total": run.total,
                "executed": run.executed,
                "cached": run.cached,
                "failed": run.failed,
                "cells": [_cell(o.job.label(), o.digest, o.status, o.error) for o in run.outcomes],
            }
        elif run.outcomes[0].record is None:
            raise ReproError(str(run.outcomes[0].error))
        else:
            result = run.outcomes[0].record
        with self._cond:
            self.executed += run.executed
            self.cache_hits += run.cached
            if job.cancel_requested:
                # A finished simulation's record stays cached for the next
                # asker; the *job* honours the cancel.
                self._finish_locked(job, "cancelled")
                return
            job.cache_hit = run.total > 0 and run.cached == run.total
            job.result = result
            self._emit_locked(job, jsonl.envelope("result", job_id=job.id, record=result))
            self._finish_locked(job, "done", result=result)

    def _fail(self, job: Job, error: str) -> None:
        with self._cond:
            if job.terminal:
                return
            job.error = error
            if job.cancel_requested:
                self._finish_locked(job, "cancelled")
            else:
                self._finish_locked(job, "failed")

    # ------------------------------------------------------------------ #
    # event plumbing (call with self._cond held)
    # ------------------------------------------------------------------ #
    def _job_event(self, job: Job, event: str) -> dict[str, object]:
        return jsonl.envelope(
            "job",
            event=event,
            job_id=job.id,
            namespace=job.namespace,
            kind=job.kind,
            state=job.state,
            digest=job.digest,
            cache_hit=job.cache_hit,
            error=job.error,
        )

    def _emit_locked(self, job: Job, rec: dict[str, object]) -> None:
        job.events.append(rec)
        self._cond.notify_all()

    def _finish_locked(
        self, job: Job, state: str, result: Optional[dict[str, object]] = None
    ) -> None:
        job.state = state
        job.finished_unix = round(time.time(), 6)
        job.parsed = None
        terminal_record: dict[str, object] = {
            "event": "finished",
            "job_id": job.id,
            "status": state,
            "cache_hit": job.cache_hit,
            "error": job.error,
            "finished_unix": job.finished_unix,
        }
        # Campaign results are small (summary + cell digests) and are not
        # individually cached, so they persist in the journal; profile
        # results are recovered from the content-addressed cache instead.
        if result is not None and job.kind == "campaign":
            terminal_record["result"] = result
        try:
            self.journal.append(terminal_record)
        except Exception:
            # A journal append failing (disk full, injected fault) must not
            # take the job down with it — the in-memory outcome stands, the
            # job merely resumes redundantly after a restart.
            _active_telemetry().counter("serve.journal_errors").inc()
        self._emit_locked(job, self._job_event(job, "finished"))
        _active_telemetry().counter("serve.jobs_finished").inc()

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, object]:
        """JSON-native counters for ``/v1/healthz``."""
        with self._cond:
            by_state: dict[str, int] = {}
            by_namespace: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
                by_namespace[job.namespace] = by_namespace.get(job.namespace, 0) + 1
            return {
                "jobs": len(self._jobs),
                "by_state": dict(sorted(by_state.items())),
                "by_namespace": dict(sorted(by_namespace.items())),
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "resumed": self.resumed,
                "quota_rejections": self.quota_rejections,
                "workers": len(self._threads),
                "uptime_s": round(time.time() - self.started_unix, 3),
            }

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers; queued jobs stay journaled for the next start."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
