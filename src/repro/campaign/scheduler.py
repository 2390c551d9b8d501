"""Parallel campaign scheduler: worker pool, retries, timeouts, cache reuse.

The scheduler is the throughput engine of the campaign subsystem.  It expands
a :class:`~repro.campaign.spec.CampaignSpec` into
:class:`~repro.api.spec.ProfileSpec` jobs, serves any job whose digest (the
spec's canonical serialization salted with the package version) is already in
the :class:`~repro.campaign.cache.ResultCache` without re-simulating, and
fans the rest out over a ``concurrent.futures`` worker pool.  Execution goes
through the unified runner (:mod:`repro.api.runner`) — the same path a live
``pasta profile`` run takes.  Jobs are isolated: one job crashing (or timing
out) is recorded as a failed outcome and never takes down the campaign.
Fresh results are written to the cache and appended to the
:class:`~repro.campaign.store.ResultStore` as they complete.

Execution modes
---------------
``"simulate"`` (the default) runs every cache-missing job as a fresh
simulation.  ``"replay"`` instead groups the cache-missing jobs by their
:meth:`~repro.api.spec.ProfileSpec.workload_signature` — the identity of the
underlying simulation, ignoring tools, analysis model and knobs — records each
distinct workload **once** into memory (a
:class:`~repro.replay.writer.MemoryTrace`), and answers every job in the
group by offline replay of those events — one analysis pass per rank and
grid window for the whole group, feeding one instance of each distinct tool
and charging one overhead accountant per distinct analysis model and cost
config.  A grid sweeping N tool/analysis-model combinations over one
workload therefore simulates once, and analyses once per grid window,
instead of N times, while producing the same records; a member that fails
(a bad tool or knob, a tool that raises) fails alone.  Both modes run
*tasks* — one job, or one workload group — through the same executor, so
the pool width, executor kind, timeout, retries and failure policy govern
both alike.

The distributed fabric
----------------------
Several schedulers — separate processes or hosts sharing a campaign
directory — can run *one* grid together:

* **Sharding** — ``shard=(k, n)`` makes this scheduler primary for the jobs
  whose digest falls in shard ``k`` of ``n`` (:func:`~repro.campaign.leases.shard_of`).
* **Leases** — each job is claimed through a
  :class:`~repro.campaign.leases.LeaseManager` before execution (atomic
  ``O_EXCL`` claim files with pid/host/owner and heartbeats), so two workers
  never simulate the same cell.  After claiming its own shard, a scheduler
  looks the claimed cells up once more (the cache, then one store read
  unless ``resume`` is off) and answers those another worker finished in
  the meantime.  A heartbeat thread keeps held leases fresh;
  a worker that dies (``kill -9``) simply stops heartbeating and its leases
  go stale.
* **Work-stealing** — after its own shard, a scheduler sweeps the remaining
  cells in passes.  Each pass claims every cell whose lease is absent or
  stale (``steal=False`` claims nothing and only waits), reads the store
  once, answers the cells completed elsewhere from the shared cache/store,
  and runs the claimed rest as *stolen* tasks on the same executor as its
  own shard — so ``jobs``, ``executor``, ``timeout_s``, replay grouping and
  the failure policies govern stolen cells too.
* **Crash-resume** — with ``resume=True`` (the default when a store is
  attached), completed work is reconstructed from one read of
  :meth:`~repro.campaign.store.ResultStore.latest_by_digest` on startup, so
  a rerun after a crash simulates only the missing cells.

Failure policy (``on_failure``): ``"isolate"`` (default) records the failure
and moves on; ``"fail_fast"`` aborts the campaign, marking unstarted jobs
``"skipped"``; ``"degrade"`` re-runs a failed job stripped to its bare
workload (no tools, no knobs) and records the partial result as
``"degraded"``.  The fallback runs inside the failed job's task, on its
worker and within its timeout; failures that no task produced (a steal
that gave up on a live lease, a task that never started) get none.
Retries sleep between attempts with exponential backoff and decorrelated
jitter (``backoff_s`` / ``backoff_cap_s``), surfaced per attempt in
:class:`JobOutcome` and on the progress stream.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

import repro
from repro.api.runner import (
    execute_payload,
    record_workload_trace,
    replay_payload,
)
from repro.api.spec import ProfileSpec
from repro.campaign.cache import CacheBackend
from repro.campaign.faults import active_faults
from repro.campaign.leases import LeaseManager, shard_of
from repro.campaign.progress import (
    NULL_PROGRESS,
    NullProgress,
    ProgressWriter,
    active_progress,
)
from repro.campaign.spec import EXECUTION_MODES, CampaignSpec, expand_jobs
from repro.campaign.store import ResultStore
from repro.core.serialization import json_sanitize
from repro.errors import ReproError
from repro.obs.metrics import DURATION_BUCKETS_S
from repro.obs.telemetry import active as _active_telemetry
from repro.replay.writer import MemoryTrace

#: Signature of a job runner: canonical job dict in, JSON-native record out.
JobRunner = Callable[[dict[str, object]], dict[str, object]]

_EXECUTORS = ("serial", "thread", "process")

#: Outcome statuses that carry a usable record.
_OK_STATUSES = ("ok", "cached", "degraded")

#: Every status an outcome can end in.
_ALL_STATUSES = ("ok", "cached", "degraded", "failed", "timeout", "skipped")

#: Per-job failure policies.
FAILURE_POLICIES = ("isolate", "fail_fast", "degrade")

#: Patchable sleep used by retry backoff and lease polling (tests stub it).
_sleep = time.sleep

#: Store keys added on append that a resumed/cached record must not carry.
_STORE_ONLY_KEYS = ("campaign", "cache_hit")


class JobAttemptsError(ReproError):
    """Every attempt of one job failed.

    Carries each attempt's error (message and traceback) so a flaky job's
    intermediate failures are never silently discarded — only the final one
    used to be reported.  ``str()`` is the *last* attempt's message, keeping
    existing ``"boom" in outcome.error`` style matching working.
    """

    def __init__(self, errors: list[dict[str, object]]) -> None:
        self.errors = list(errors)
        last = str(self.errors[-1].get("error")) if self.errors else "unknown error"
        super().__init__(last)

    def __reduce__(self):
        # ProcessPoolExecutor pickles worker exceptions; the default reduce
        # would re-call __init__ with the formatted message, losing .errors.
        return (JobAttemptsError, (self.errors,))


def _attempt_error_entry(attempt: int, error: BaseException) -> dict[str, object]:
    return {
        "attempt": attempt,
        "error": f"{type(error).__name__}: {error}",
        "traceback": "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        ),
    }


def _errors_of(error: BaseException) -> list[dict[str, object]]:
    """Per-attempt error entries for an exhausted-retries (or one-shot) failure."""
    if isinstance(error, JobAttemptsError):
        return list(error.errors)
    return [_attempt_error_entry(1, error)]


def _error_detail(error: BaseException) -> str:
    """``Type: message`` for one failure, without double-prefixing wrappers."""
    if isinstance(error, JobAttemptsError):
        # str() is already the last attempt's "Type: message".
        return str(error)
    return f"{type(error).__name__}: {error}"


def _backoff_total(entries: list[dict[str, object]]) -> float:
    return float(sum(
        e.get("backoff_s", 0.0) for e in entries  # type: ignore[arg-type]
        if isinstance(e.get("backoff_s", 0.0), (int, float))
    ))


def _failed(prefix: str, error: BaseException) -> dict[str, object]:
    """The record of a task member whose job, recording or replay raised."""
    errors = _errors_of(error)
    return {"status": "failed", "error": prefix + _error_detail(error),
            "attempts": len(errors), "attempt_errors": errors}


def _run_with_retries(
    payload: dict[str, object],
    retries: int,
    runner: JobRunner,
    backoff_s: float = 0.0,
    backoff_cap_s: float = 30.0,
) -> dict[str, object]:
    """Invoke ``runner`` with up to ``retries`` re-attempts on exception.

    Failed attempts sleep before the next try: exponential backoff with
    *decorrelated jitter* (each delay drawn uniformly from ``[base, 3 *
    previous]``, capped), so a fleet of retrying workers spreads out instead
    of hammering in lockstep.  The chosen delay is recorded on the attempt's
    error entry as ``backoff_s``.

    Returns the record augmented with the attempt count (plus
    ``attempt_errors`` when earlier attempts failed); raises
    :class:`JobAttemptsError` carrying every attempt's error once attempts
    are exhausted.
    """
    attempts = 0
    attempt_errors: list[dict[str, object]] = []
    rng = random.Random()
    previous_delay = max(backoff_s, 0.0)
    faults = active_faults()
    # Rich enough for FaultRule.match substring filters to single out one
    # grid cell; built from the payload so it works in pool workers too.
    label = (
        f"{payload.get('model', '')}[bs{payload.get('batch_size', '?')}]"
        f"@{payload.get('device', '')}"
    )
    while True:
        attempts += 1
        try:
            faults.fire("scheduler.job", label=label)
            record = runner(payload)
        except Exception as error:
            entry = _attempt_error_entry(attempts, error)
            if attempts > retries:
                attempt_errors.append(entry)
                raise JobAttemptsError(attempt_errors) from error
            if backoff_s > 0.0:
                delay = round(min(
                    max(backoff_cap_s, 0.0),
                    rng.uniform(backoff_s, max(backoff_s, previous_delay * 3.0)),
                ), 6)
                previous_delay = delay
                entry["backoff_s"] = delay
                _sleep(delay)
            attempt_errors.append(entry)
        else:
            if not isinstance(record, dict):
                raise ReproError(
                    f"job runner must return a dict record, got {type(record).__name__}"
                )
            record.setdefault("attempts", attempts)
            if attempt_errors:
                # Succeeded after failures: keep what the retries swallowed.
                record.setdefault("attempt_errors", attempt_errors)
            return record


@dataclass
class _Task:
    """One unit of executor work: a simulate-mode job, or a replay-mode
    workload group whose members share one recording."""

    entries: list[tuple[int, ProfileSpec, str]]
    replay: bool = False
    trace_path: Optional[str] = None
    #: Claimed from another worker's shard.
    stolen: bool = False


def _run_task(
    payloads: list[dict[str, object]],
    replay: bool,
    trace_path: Optional[str],
    runner: JobRunner,
    retries: int,
    backoff_s: float,
    backoff_cap_s: float,
    degrade: bool,
) -> tuple[bool, list[dict[str, object]]]:
    """Run one task; return whether its simulation completed, and one
    record per member.

    A simulate-mode task is one job, run by ``runner``.  A replay-mode task
    is one workload group: its workload is simulated once into a
    :class:`~repro.replay.writer.MemoryTrace`, and one
    :func:`~repro.api.runner.replay_payload` call answers every member from
    those events, with one analysis pass per rank and grid window.  With
    ``trace_path``, the recording is written there while it runs; an
    attempt that fails leaves an incomplete trace, which the next attempt
    overwrites.  Retries cover the job or the recording; a group's members
    carry the recording's ``attempts``/``attempt_errors``, and a member
    whose replay raises fails alone.  A failure never raises:
    it is the member's ``"failed"`` record, which ``degrade`` replaces by
    the job's stripped fallback (:func:`_degraded`), run here so the task's
    timeout covers it.  Module-level, so process pools can pickle it.
    """
    trace = MemoryTrace()

    def record(payload: dict[str, object]) -> dict[str, object]:
        nonlocal trace
        trace = MemoryTrace(save_to=trace_path)  # every attempt records from scratch
        return record_workload_trace(payload, trace)

    try:
        if not replay:
            records = [_run_with_retries(payloads[0], retries, runner, backoff_s, backoff_cap_s)]
        else:
            summary = _run_with_retries(payloads[0], retries, record, backoff_s, backoff_cap_s)
            retry_keys = {key: summary.pop(key) for key in ("attempts", "attempt_errors") if key in summary}
            records = [
                _failed("replay failed: ", outcome) if isinstance(outcome, Exception)
                else {**outcome, **retry_keys}
                for outcome in replay_payload(payloads, trace, summary)
            ]
        simulated = True
    except Exception as error:
        simulated = False
        records = [_failed("workload recording failed: " if replay else "", error)] * len(payloads)
    if degrade:
        records = [
            _degraded(payload, member, runner) if member.get("status") == "failed" else member
            for payload, member in zip(payloads, records)
        ]
    return simulated, records


def _degraded(
    payload: dict[str, object], failed: dict[str, object], runner: JobRunner
) -> dict[str, object]:
    """Re-run a failed job stripped to its bare workload.

    The fallback drops tools, knob overrides and fine-grained
    instrumentation — the parts most likely to have failed — so the
    campaign still gets the cell's baseline summary.  It is one more
    attempt (``scheduler.job`` fault site included), without retries.  The
    record is marked ``"degraded"`` (never cached: its content does not
    match the original digest) and keeps the real job identity, the failure
    that triggered the fallback and the failed attempts.  When the fallback
    fails too, the job stays failed.
    """
    errors = list(failed["attempt_errors"])
    try:
        fallback = ProfileSpec.from_dict(payload).replace(
            tools=(), knobs=(), fine_grained=False, record_to=None
        )
        record = _run_with_retries(fallback.to_dict(), 0, runner)
    except Exception as error:
        errors.append({**_errors_of(error)[-1], "attempt": len(errors) + 1})
        return {**failed, "attempt_errors": errors,
                "error": f"{failed['error']}; degraded fallback also failed: {_error_detail(error)}"}
    return {
        **record, "status": "degraded", "degraded": True,
        "degraded_from": {"error": failed["error"], "tools": list(payload["tools"])},
        "job": dict(payload), "attempts": failed["attempts"], "attempt_errors": errors,
    }


@dataclass
class JobOutcome:
    """What happened to one job in one campaign run."""

    job: ProfileSpec
    digest: str
    status: str  # one of _ALL_STATUSES
    record: Optional[dict[str, object]] = None
    error: Optional[str] = None
    attempts: int = 1
    duration_s: float = 0.0
    #: Per-attempt error entries (``attempt`` / ``error`` / ``traceback`` /
    #: ``backoff_s``), covering *every* failed attempt — including the ones a
    #: later retry recovered from (``status == "ok"`` with a non-empty list).
    errors: list[dict[str, object]] = field(default_factory=list)
    #: Total seconds slept in retry backoff for this job.
    backoff_s: float = 0.0
    #: True when this scheduler took the job from another worker's shard.
    stolen: bool = False

    @property
    def ok(self) -> bool:
        """True if the job produced a usable record."""
        return self.status in _OK_STATUSES

    @property
    def cached(self) -> bool:
        """True if the record came from the result cache."""
        return self.status == "cached"


@dataclass
class CampaignRunResult:
    """Aggregate outcome of one scheduler run."""

    name: str
    outcomes: list[JobOutcome] = field(default_factory=list)
    duration_s: float = 0.0
    #: Execution mode the run used ("simulate" or "replay").
    execution: str = "simulate"
    #: Simulations that completed: in replay mode one per workload group
    #: whose recording finished (plus any job simulated on its own); equals
    #: :attr:`executed` in simulate mode.
    workloads_recorded: int = 0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def executed(self) -> int:
        """Jobs that were actually simulated (cache misses that ran)."""
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def degraded(self) -> int:
        """Jobs answered by the stripped-down degraded fallback."""
        return sum(1 for o in self.outcomes if o.status == "degraded")

    @property
    def skipped(self) -> int:
        """Jobs never started because a ``fail_fast`` abort fired first."""
        return sum(1 for o in self.outcomes if o.status == "skipped")

    @property
    def stolen(self) -> int:
        """Jobs this scheduler work-stole from another worker's shard."""
        return sum(1 for o in self.outcomes if o.stolen)

    def records(self) -> list[dict[str, object]]:
        """Usable records from all successful outcomes."""
        return [o.record for o in self.outcomes if o.ok and o.record is not None]

    def failures(self) -> list[JobOutcome]:
        """Outcomes that did not produce a record."""
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> dict[str, object]:
        """JSON-native roll-up for CLI output."""
        return json_sanitize({
            "campaign": self.name,
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "degraded": self.degraded,
            "skipped": self.skipped,
            "stolen": self.stolen,
            "execution": self.execution,
            "workloads_recorded": self.workloads_recorded,
            "duration_s": round(self.duration_s, 3),
            "backoff_s": round(sum(o.backoff_s for o in self.outcomes), 6),
            "failures": [
                {
                    "job": o.job.label(),
                    "status": o.status,
                    "error": o.error,
                    "attempts": o.attempts,
                    "errors": [str(e.get("error")) for e in o.errors],
                }
                for o in self.failures()
            ],
        })


class CampaignScheduler:
    """Runs campaign jobs over a worker pool with caching and isolation.

    Parameters
    ----------
    jobs:
        Worker-pool width (``--jobs N``).
    executor:
        ``"thread"`` (default), ``"process"`` (true parallelism, requires the
        default picklable runner), or ``"serial"`` (one task at a time,
        whatever ``jobs`` says).
    timeout_s:
        Per-task wall-clock budget: per job in simulate mode, per workload
        group in replay mode, degrade fallbacks included.  Every job of a
        task exceeding it is recorded as ``"timeout"`` and the campaign
        moves on.
    retries:
        Re-attempts per job before recording a failure.
    backoff_s / backoff_cap_s:
        Base (and cap) of the exponential-backoff-with-decorrelated-jitter
        sleep between retry attempts; ``backoff_s=0`` (default) retries
        immediately, preserving the historical behaviour.
    cache / store:
        Optional result cache (digest-keyed reuse) and JSONL store (append
        per completed job).
    resume:
        Reconstruct completed work from one read of the store's
        ``latest_by_digest()`` on startup (version-matched ``"ok"`` records
        become cache hits), so a rerun after a crash simulates only the
        missing cells.  Default True; meaningless without a store.
    leases / shard / steal / steal_timeout_s:
        The distributed fabric: a :class:`~repro.campaign.leases.LeaseManager`
        over a shared lease directory, an optional ``(index, count)`` digest
        shard this worker is primary for, whether to work-steal cells whose
        lease is absent or stale (default True), and how long to wait on
        cells held by other live workers before giving up (None = wait until
        they finish or their lease goes stale).  Stolen cells run as tasks
        of the executor, like the worker's own shard.
    on_failure:
        ``"isolate"`` (default), ``"fail_fast"``, or ``"degrade"`` — see the
        module docstring.
    job_runner:
        Override the function that runs one simulated job (tests inject
        stubs here); the process executor needs the default picklable
        runner.  Replay-mode workload groups never call it.
    execution:
        ``"simulate"``, ``"replay"``, or ``None`` to honour the campaign
        spec's ``execution`` field (explicit job lists default to simulate).
        A replay-mode task is one workload group: one recording into memory,
        then one replay per job, on the same executor as simulate mode, so
        ``jobs``/``executor``, ``timeout_s`` and the failure policies apply
        per group and ``retries`` cover the recording.  Jobs whose spec sets
        ``record_to`` are always simulated, even in replay mode — they need
        a live event stream to produce their trace artifact.  Stolen cells
        that share a workload form a group of their own.
    trace_dir:
        Where replay mode writes each workload group's recording, as
        ``workload-NNNN.pastatrace``, while the group records; a failed
        attempt leaves an incomplete trace there until its retry
        overwrites it.  With the default ``None`` nothing is written.
    progress:
        Optional :class:`~repro.campaign.progress.ProgressWriter` streaming
        job lifecycle records (queued/started/retried/finished with cache
        hit/miss attribution) to a ``status.jsonl`` for ``pasta campaign
        watch``.  When omitted, each run uses the process-wide active bus
        (a no-op unless one was installed).
    """

    def __init__(
        self,
        jobs: int = 1,
        executor: str = "thread",
        timeout_s: Optional[float] = None,
        retries: int = 0,
        cache: Optional[CacheBackend] = None,
        store: Optional[ResultStore] = None,
        job_runner: Optional[JobRunner] = None,
        version: Optional[str] = None,
        execution: Optional[str] = None,
        trace_dir: Union[str, Path, None] = None,
        progress: Union[ProgressWriter, NullProgress, None] = None,
        backoff_s: float = 0.0,
        backoff_cap_s: float = 30.0,
        resume: bool = True,
        leases: Optional[LeaseManager] = None,
        shard: Optional[tuple[int, int]] = None,
        steal: bool = True,
        steal_timeout_s: Optional[float] = None,
        on_failure: str = "isolate",
    ) -> None:
        if jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        if executor not in _EXECUTORS:
            raise ReproError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        if retries < 0:
            raise ReproError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0 or backoff_cap_s < 0:
            raise ReproError("backoff_s and backoff_cap_s must be >= 0")
        if executor == "process" and job_runner is not None:
            raise ReproError("custom job runners are not picklable; use the thread executor")
        if execution is not None and execution not in EXECUTION_MODES:
            raise ReproError(
                f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
            )
        if on_failure not in FAILURE_POLICIES:
            raise ReproError(
                f"on_failure must be one of {FAILURE_POLICIES}, got {on_failure!r}"
            )
        if shard is not None:
            index, count = shard
            if count < 1 or not 0 <= index < count:
                raise ReproError(f"shard must be (index, count) with 0 <= index < count, got {shard!r}")
            if leases is None:
                raise ReproError("sharded execution requires a lease manager "
                                 "(shards coordinate through leases)")
        self.jobs = jobs
        self.executor = executor
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.cache = cache
        self.store = store
        self.resume = resume
        self.leases = leases
        self.shard = shard
        self.steal = steal
        self.steal_timeout_s = steal_timeout_s
        self.on_failure = on_failure
        self.job_runner: JobRunner = job_runner or execute_payload
        self.version = version if version is not None else repro.__version__
        self.execution = execution
        self.trace_dir = trace_dir
        # Explicit writer wins; otherwise each run() picks up whatever bus is
        # active at that moment (the CLI's --status flag installs one).
        self.progress = progress
        self._progress: Union[ProgressWriter, NullProgress] = NULL_PROGRESS
        #: Set to the abort reason once :meth:`abort` fires.
        self._abort: Optional[str] = None
        #: Simulations completed in the current run (``workloads_recorded``).
        self._simulated = 0
        #: Numbers the current run's ``workload-NNNN.pastatrace`` files.
        self._trace_numbers = itertools.count()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: Union[CampaignSpec, Iterable[ProfileSpec]],
        name: Optional[str] = None,
    ) -> CampaignRunResult:
        """Run every job of ``spec`` and return per-job outcomes.

        Cached (and store-resumable) jobs are answered immediately; the rest
        execute on the worker pool — lease-gated when the distributed fabric
        is configured.  Completed records are cached and appended to the
        store as they finish, so an interrupted campaign keeps everything it
        already simulated.
        """
        started = time.monotonic()
        campaign_name = name or (spec.name if isinstance(spec, CampaignSpec) else "adhoc")
        execution = self.execution or (
            spec.execution if isinstance(spec, CampaignSpec) else "simulate"
        )
        job_list = expand_jobs(spec)
        telemetry = _active_telemetry()
        telemetry.annotate(campaign=campaign_name, execution=execution)
        self._abort = None
        self._simulated = 0
        self._trace_numbers = itertools.count()
        self._progress = (
            self.progress if self.progress is not None else active_progress()
        )
        self._progress.emit(
            "campaign", event="start", campaign=campaign_name,
            execution=execution, total=len(job_list), slots=self.jobs,
            worker=self.leases.owner if self.leases is not None else None,
            shard=list(self.shard) if self.shard is not None else None,
        )
        snapshot = self._store_snapshot() if self.resume else {}
        with telemetry.span(
            "campaign.run",
            campaign=campaign_name,
            execution=execution,
            executor=self.executor,
            jobs=self.jobs,
            total_jobs=len(job_list),
        ) as campaign_span:
            outcomes: dict[int, JobOutcome] = {}
            pending: list[tuple[int, ProfileSpec, str]] = []

            for index, job in enumerate(job_list):
                digest = job.digest(self.version)
                self._progress.emit(
                    "job", event="queued", index=index, job=job.label(),
                    digest=digest[:12],
                )
                cached_record = self._finished_record(index, job, digest, snapshot)
                if cached_record is not None:
                    self._record_outcome(outcomes, index, JobOutcome(
                        job=job, digest=digest, status="cached", record=cached_record
                    ), campaign_name)
                else:
                    if self.cache is not None and job.record_to is None:
                        telemetry.counter("campaign.cache_misses").inc()
                    pending.append((index, job, digest))

            if self.leases is not None:
                self._run_leased(pending, outcomes, campaign_name, execution)
            else:
                self._run_pending(pending, outcomes, campaign_name, execution)
            for status in _ALL_STATUSES:
                campaign_span.set_counter(
                    f"jobs_{status}",
                    sum(1 for o in outcomes.values() if o.status == status),
                )
        result = CampaignRunResult(
            name=campaign_name,
            outcomes=[outcomes[i] for i in range(len(job_list))],
            duration_s=time.monotonic() - started,
            execution=execution,
            workloads_recorded=self._simulated,
        )
        self._progress.emit(
            "campaign", event="end", campaign=campaign_name,
            duration_s=round(result.duration_s, 3), executed=result.executed,
            cached=result.cached, failed=result.failed, stolen=result.stolen,
        )
        return result

    def abort(self, reason: str) -> None:
        """Stop the running campaign between tasks: running tasks (a job, or
        a replay-mode workload group) finish, the rest end ``"skipped"``.
        The first reason wins.  Used by ``fail_fast`` and by ``pasta serve``
        cancels (from a progress sink)."""
        if self._abort is None:
            self._abort = reason

    def _store_snapshot(self) -> dict[str, dict[str, object]]:
        """One read of the store: the completed cells it holds, by digest.

        Only version-matched ``"ok"`` records count — failed, degraded and
        stale-version records must re-simulate.  Store-only bookkeeping keys
        are stripped so a resumed record is byte-identical to a cache hit.
        """
        if self.store is None:
            return {}
        return {
            digest: {k: v for k, v in record.items() if k not in _STORE_ONLY_KEYS}
            for digest, record in self.store.latest_by_digest().items()
            if record.get("status") == "ok" and record.get("version") == self.version
        }

    def _finished_record(
        self, index: int, job: ProfileSpec, digest: str, snapshot: dict[str, dict[str, object]]
    ) -> Optional[dict[str, object]]:
        """A completed record for one cell: a cache hit, else a record from
        the store ``snapshot`` (crash-resume, or another worker's result),
        which refills the cache for the fleet.

        ``record_to`` is excluded from the digest (it cannot change the
        reports), but a job that asks for a trace file wants that side
        artifact produced — it is never answered this way.
        """
        if job.record_to is not None:
            return None
        telemetry = _active_telemetry()
        record = self.cache.get(digest) if self.cache is not None else None
        if record is not None:
            telemetry.counter("campaign.cache_hits").inc()
            return record
        record = snapshot.get(digest)
        if record is not None:
            telemetry.counter("campaign.resumed").inc()
            self._cache_put(index, digest, record)
        return record

    def _run_pending(
        self,
        pending: list[tuple[int, ProfileSpec, str]],
        outcomes: dict[int, JobOutcome],
        campaign_name: str,
        execution: str,
        stolen: bool = False,
    ) -> None:
        """Execute the cache-missing jobs as tasks, inline or on the pool."""
        tasks = self._tasks(pending, execution, stolen)
        # The inline path cannot interrupt a task, so any timeout budget
        # forces a (possibly single-worker) pool.
        if self.timeout_s is None and (
            self.executor == "serial" or (self.executor == "thread" and self.jobs == 1)
        ):
            self._run_inline(tasks, outcomes, campaign_name)
        else:
            self._run_pool(tasks, outcomes, campaign_name)

    def _tasks(
        self, pending: list[tuple[int, ProfileSpec, str]], execution: str, stolen: bool
    ) -> list[_Task]:
        """One task per job, except that replay mode groups the jobs that
        share a workload.  A job that sets ``record_to`` needs a live event
        stream to write its own trace, and one whose ``workload_signature()``
        raises (it instantiates the job's tools, so an unknown tool name
        does) fails in a task of its own: both run alone, simulated."""
        tasks: list[_Task] = []
        groups: dict[tuple[object, ...], _Task] = {}
        for entry in pending:
            signature = None
            if execution == "replay" and entry[1].record_to is None:
                try:
                    signature = entry[1].workload_signature()
                except Exception:
                    pass
            if signature is None:
                tasks.append(_Task([entry], stolen=stolen))
                continue
            if signature not in groups:
                trace_path = None if self.trace_dir is None else str(
                    Path(self.trace_dir) / f"workload-{next(self._trace_numbers):04d}.pastatrace"
                )
                groups[signature] = _Task([], replay=True, trace_path=trace_path, stolen=stolen)
                tasks.append(groups[signature])
            groups[signature].entries.append(entry)
        return tasks

    # ------------------------------------------------------------------ #
    # the distributed fabric
    # ------------------------------------------------------------------ #
    def _run_leased(
        self,
        pending: list[tuple[int, ProfileSpec, str]],
        outcomes: dict[int, JobOutcome],
        campaign_name: str,
        execution: str,
    ) -> None:
        """Lease-gated execution: claim own shard, run it, then work-steal."""
        assert self.leases is not None
        shard_index, shard_count = self.shard if self.shard is not None else (0, 1)
        mine: list[tuple[int, ProfileSpec, str]] = []
        theirs: list[tuple[int, ProfileSpec, str]] = []
        for entry in pending:
            if shard_of(entry[2], shard_count) == shard_index:
                mine.append(entry)
            else:
                theirs.append(entry)
        claimed: list[tuple[int, ProfileSpec, str]] = []
        telemetry = _active_telemetry()
        for entry in mine:
            takeovers_before = self.leases.takeovers
            if self.leases.claim(entry[2]):
                claimed.append(entry)
                if self.leases.takeovers > takeovers_before:
                    self._emit_lease("takeover", entry[2])
            else:
                # A live worker beat us to our own cell (it was stealing, or
                # shards overlap); treat it like a foreign cell.
                self._emit_lease("contested", entry[2])
                theirs.append(entry)
        telemetry.counter("campaign.leases_claimed").inc(len(claimed))
        if claimed:
            # The first pass looked these cells up before they were claimed; a
            # worker may have finished and released one since.
            snapshot = self._store_snapshot() if self.resume else {}
            claimed = self._answer_finished(claimed, snapshot, outcomes, campaign_name)
        stop_beating = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop, args=(stop_beating,),
            name="pasta-lease-heartbeat", daemon=True,
        )
        beater.start()
        try:
            self._run_pending(claimed, outcomes, campaign_name, execution)
            self._steal_phase(theirs, outcomes, campaign_name, execution)
        finally:
            stop_beating.set()
            beater.join(timeout=5.0)
            self.leases.release_all()

    def _heartbeat_loop(self, stop: threading.Event) -> None:
        assert self.leases is not None
        while not stop.wait(max(0.05, self.leases.ttl_s / 3.0)):
            self.leases.heartbeat_all()

    def _steal_phase(
        self,
        entries: list[tuple[int, ProfileSpec, str]],
        outcomes: dict[int, JobOutcome],
        campaign_name: str,
        execution: str,
    ) -> None:
        """Resolve the cells other workers are (were) responsible for.

        Each pass claims every cell whose lease is absent or stale (a dead
        worker's lease stops heartbeating and goes stale within the ttl),
        then reads the store once and answers every cell completed
        elsewhere.  Claiming first is race-free: a holder releases its lease
        only after its record is cached and stored.  The claimed rest run as
        stolen tasks of the executor; cells held by live workers wait for
        the next pass, which comes at once if this one stole something and
        after ``poll_s`` otherwise.
        """
        assert self.leases is not None
        deadline = (
            time.monotonic() + self.steal_timeout_s
            if self.steal_timeout_s is not None else None
        )
        poll_s = max(0.05, min(self.leases.ttl_s / 4.0, 1.0))
        remaining = list(entries)
        while remaining:
            if self._abort is not None:
                self._end(_Task(remaining), "skipped", f"campaign aborted: {self._abort}",
                          outcomes, campaign_name)
                return
            takeover: dict[str, bool] = {}
            for _, _, digest in remaining:
                takeovers_before = self.leases.takeovers
                if self.steal and self.leases.claim(digest):
                    takeover[digest] = self.leases.takeovers > takeovers_before
            stolen: list[tuple[int, ProfileSpec, str]] = []
            waiting: list[tuple[int, ProfileSpec, str]] = []
            unfinished = self._answer_finished(
                remaining, self._store_snapshot(), outcomes, campaign_name
            )
            for index, job, digest in unfinished:
                if digest in takeover:
                    self._emit_lease("takeover" if takeover[digest] else "steal", digest)
                    stolen.append((index, job, digest))
                else:
                    waiting.append((index, job, digest))
            if stolen:
                _active_telemetry().counter("campaign.jobs_stolen").inc(len(stolen))
                self._run_pending(stolen, outcomes, campaign_name, execution, stolen=True)
            remaining = waiting
            if remaining and deadline is not None and time.monotonic() >= deadline:
                for index, job, digest in remaining:
                    holder = self.leases.holder(digest)
                    owner = holder.owner if holder is not None else "unknown"
                    self._record_outcome(outcomes, index, JobOutcome(
                        job=job, digest=digest, status="failed",
                        error=f"job leased by {owner}; gave up after "
                              f"{self.steal_timeout_s}s",
                    ), campaign_name)
                return
            if remaining and not stolen:
                _sleep(poll_s)

    def _answer_finished(
        self,
        entries: list[tuple[int, ProfileSpec, str]],
        snapshot: dict[str, dict[str, object]],
        outcomes: dict[int, JobOutcome],
        campaign_name: str,
    ) -> list[tuple[int, ProfileSpec, str]]:
        """Answer the cells finished elsewhere, from the cache or the store
        ``snapshot``, as ``cached``; returns the rest.  Looked up after
        claiming, no cell is missed: a holder releases its lease only after
        its record is cached and stored."""
        rest: list[tuple[int, ProfileSpec, str]] = []
        for index, job, digest in entries:
            record = self._finished_record(index, job, digest, snapshot)
            if record is None:
                rest.append((index, job, digest))
            else:
                self._record_outcome(outcomes, index, JobOutcome(
                    job=job, digest=digest, status="cached", record=record,
                ), campaign_name)
        return rest

    # ------------------------------------------------------------------ #
    # execution strategies
    # ------------------------------------------------------------------ #
    def _task_args(self, task: _Task) -> tuple[object, ...]:
        """:func:`_run_task`'s arguments for ``task``, picklable for process pools."""
        return (
            [job.to_dict() for _, job, _ in task.entries], task.replay, task.trace_path,
            self.job_runner, self.retries, self.backoff_s, self.backoff_cap_s,
            self.on_failure == "degrade",
        )

    def _run_inline(
        self,
        tasks: list[_Task],
        outcomes: dict[int, JobOutcome],
        campaign_name: str,
    ) -> None:
        """Run ``tasks`` one after another in the calling thread."""
        for task in tasks:
            if self._abort is not None:
                self._end(task, "skipped", f"campaign aborted: {self._abort}", outcomes, campaign_name)
                continue
            for index, job, digest in task.entries:
                self._emit_job(index, job, digest, "started")
            started = time.monotonic()
            value = _run_task(*self._task_args(task))
            self._finish(task, value, time.monotonic() - started, outcomes, campaign_name)

    def _wait_slice(self) -> Optional[float]:
        if self.timeout_s is None:
            return None
        return min(max(self.timeout_s / 4.0, 0.01), 0.5)

    def _run_pool(
        self,
        tasks: list[_Task],
        outcomes: dict[int, JobOutcome],
        campaign_name: str,
    ) -> None:
        # At most `slots` futures are in flight at once, so every submitted
        # future starts immediately on a free worker and its per-task clock
        # starts at submission.  A timed-out task's worker may be unkillable
        # (threads and busy processes can't be interrupted); its slot is
        # retired so later tasks never queue behind a hung worker, and the
        # final shutdown does not wait for abandoned tasks.
        slots = 1 if self.executor == "serial" else self.jobs
        pool: Executor = (
            ProcessPoolExecutor(max_workers=slots) if self.executor == "process"
            else ThreadPoolExecutor(max_workers=slots, thread_name_prefix="pasta-campaign")
        )
        queue = list(tasks)
        in_flight: dict[Future, tuple[_Task, float]] = {}
        telemetry = _active_telemetry()
        queue_depth = telemetry.gauge("campaign.queue_depth")
        in_flight_gauge = telemetry.gauge("campaign.in_flight")
        try:
            while queue or in_flight:
                if self._abort is not None and queue:
                    # fail_fast: nothing new starts; in-flight tasks drain.
                    for task in queue:
                        self._end(task, "skipped", f"campaign aborted: {self._abort}",
                                  outcomes, campaign_name)
                    queue = []
                while queue and len(in_flight) < slots:
                    task = queue.pop(0)
                    for index, job, digest in task.entries:
                        self._emit_job(index, job, digest, "started")
                    future = pool.submit(_run_task, *self._task_args(task))
                    in_flight[future] = (task, time.monotonic())
                queue_depth.set(len(queue))
                in_flight_gauge.set(len(in_flight))
                if not in_flight:
                    break  # every slot retired by timeouts; queue drains below
                done, _ = wait(
                    set(in_flight), timeout=self._wait_slice(), return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                for future in done:
                    task, started = in_flight.pop(future)
                    error = future.exception()
                    self._finish(task, error if error is not None else future.result(),
                                 now - started, outcomes, campaign_name)
                if self.timeout_s is None:
                    continue
                for future in list(in_flight):
                    task, started = in_flight[future]
                    if now - started <= self.timeout_s:
                        continue
                    del in_flight[future]
                    if not future.cancel():
                        slots -= 1  # running and unkillable: retire its worker
                    self._end(task, "timeout", f"job exceeded timeout of {self.timeout_s}s",
                              outcomes, campaign_name, duration_s=now - started)
            for task in queue:
                self._end(task, "failed", "job never started: all workers lost to timed-out jobs",
                          outcomes, campaign_name)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _finish(
        self,
        task: _Task,
        value: Union[tuple[bool, list[dict[str, object]]], BaseException],
        duration_s: float,
        outcomes: dict[int, JobOutcome],
        campaign_name: str,
    ) -> None:
        """Record every job of a finished task from what :func:`_run_task`
        returned, or from the error the pool raised instead (every member
        fails).  The members of a group report together, each with the
        group's duration."""
        if isinstance(value, BaseException):
            failed = _failed("workload recording failed: " if task.replay else "", value)
            value = False, [failed] * len(task.entries)
        simulated, records = value
        self._simulated += simulated
        for position, ((index, job, digest), record) in enumerate(zip(task.entries, records)):
            status = str(record.get("status"))
            errors = list(record.get("attempt_errors", ()))
            outcome = JobOutcome(
                job=job, digest=digest, status=status if status in ("failed", "degraded") else "ok",
                attempts=int(record.get("attempts", 1)), duration_s=duration_s, errors=errors,
                # a group sleeps once: its first job reports it
                backoff_s=0.0 if position else _backoff_total(errors), stolen=task.stolen,
            )
            if status == "failed":
                outcome.error = str(record.get("error"))
            else:
                outcome.record = {**record, "digest": digest, "version": self.version}
                if status == "degraded":
                    outcome.error = str(record["degraded_from"]["error"])
            self._record_outcome(outcomes, index, outcome, campaign_name)

    def _end(
        self,
        task: _Task,
        status: str,
        error: str,
        outcomes: dict[int, JobOutcome],
        campaign_name: str,
        duration_s: float = 0.0,
    ) -> None:
        """Record every job of a task that returned no records: skipped,
        timed out, or never started."""
        for index, job, digest in task.entries:
            self._record_outcome(outcomes, index, JobOutcome(
                job=job, digest=digest, status=status, error=error,
                duration_s=duration_s, stolen=task.stolen,
            ), campaign_name)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def _emit_job(
        self, index: int, job: ProfileSpec, digest: str, event: str
    ) -> None:
        """One job lifecycle record on the progress stream."""
        self._progress.emit(
            "job", event=event, index=index, job=job.label(), digest=digest[:12]
        )

    def _emit_lease(self, event: str, digest: str) -> None:
        """One lease transition on the progress stream."""
        assert self.leases is not None
        self._progress.emit(
            "lease", event=event, digest=digest[:12], owner=self.leases.owner
        )

    def _record_outcome(
        self,
        outcomes: dict[int, JobOutcome],
        index: int,
        outcome: JobOutcome,
        campaign_name: str,
    ) -> None:
        """Record one finished job and persist it immediately.

        Cache writes and store appends happen per job, as each completes, so
        an interrupted campaign keeps everything it already simulated.  A
        ``fail_fast`` scheduler arms its abort here, so that no new work
        starts.
        """
        if not outcome.ok and outcome.status != "skipped" and self.on_failure == "fail_fast":
            self.abort(f"{outcome.job.label()} {outcome.status}: {outcome.error}")
        outcomes[index] = outcome
        # Re-attempts beyond the first try: a success after N failures retried
        # N times; a failure's final attempt was not itself a retry.
        retries = len(outcome.errors) if outcome.ok else max(0, len(outcome.errors) - 1)
        for entry in outcome.errors[:retries]:
            self._progress.emit(
                "job", event="retried", index=index, job=outcome.job.label(),
                digest=outcome.digest[:12], attempt=entry.get("attempt"),
                error=entry.get("error"), backoff_s=entry.get("backoff_s"),
            )
        self._progress.emit(
            "job", event="finished", index=index, job=outcome.job.label(),
            digest=outcome.digest[:12], status=outcome.status,
            cache_hit=outcome.cached, duration_s=round(outcome.duration_s, 6),
            attempts=outcome.attempts, error=outcome.error,
            stolen=outcome.stolen or None,
        )
        telemetry = _active_telemetry()
        if telemetry.enabled:
            # One synthetic lifecycle span per job, timed by the scheduler:
            # works identically for inline, thread-pool and process-pool jobs
            # (pool workers cannot emit into this process's tracer).
            telemetry.record_span(
                "campaign.job",
                int(outcome.duration_s * 1e9),
                attrs={
                    "campaign": campaign_name,
                    "job": outcome.job.label(),
                    "digest": outcome.digest[:12],
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                },
                counters={"retried": retries},
                status="ok" if outcome.ok else "error",
                error=outcome.error,
            )
            telemetry.counter(f"campaign.jobs_{outcome.status}").inc()
            telemetry.counter("campaign.retries").inc(retries)
            if outcome.status != "cached":
                telemetry.histogram("campaign.job_s", DURATION_BUCKETS_S).observe(
                    outcome.duration_s
                )
        if outcome.status == "ok" and outcome.record is not None:
            cached = outcome.record
            job_payload = cached.get("job")
            # The digest ignores record_to, so this entry may later answer a
            # non-recording twin: cache the canonical payload, not the trace
            # destination (the result store keeps the true payload).
            if isinstance(job_payload, dict) and job_payload.get("record_to") is not None:
                cached = dict(cached)
                cached["job"] = {k: v for k, v in job_payload.items() if k != "record_to"}
            self._cache_put(index, outcome.digest, cached)
        self._append_to_store(outcome, campaign_name)
        if self.leases is not None and outcome.digest in self.leases.held:
            self.leases.release(outcome.digest)

    def _cache_put(self, index: int, digest: str, record: dict[str, object]) -> None:
        """Cache one record, if there is a cache.  A failing cache (disk
        full, injected corruption) degrades throughput, never the campaign."""
        if self.cache is None:
            return
        try:
            self.cache.put(digest, record)
        except Exception as error:
            _active_telemetry().counter("campaign.cache_put_errors").inc()
            self._progress.emit(
                "job", event="cache_error", index=index, digest=digest[:12],
                error=_error_detail(error),
            )

    def _append_to_store(self, outcome: JobOutcome, campaign_name: str) -> None:
        """Persist one outcome; a failing store never fails the campaign."""
        if self.store is None:
            return
        if outcome.ok and outcome.record is not None:
            stored = dict(outcome.record)
            stored["campaign"] = campaign_name
            stored["cache_hit"] = outcome.cached
        else:
            stored = {
                "campaign": campaign_name,
                "job": outcome.job.to_dict(),
                "digest": outcome.digest,
                "version": self.version,
                "status": outcome.status,
                "error": outcome.error,
                "attempts": outcome.attempts,
                "errors": outcome.errors,
            }
        try:
            self.store.append(stored)
        except Exception as error:
            # Torn/failed appends (a crashing disk, an injected torn_write)
            # lose this one record; the tolerant reader and the cache keep
            # the campaign itself recoverable.
            _active_telemetry().counter("campaign.store_append_errors").inc()
            self._progress.emit(
                "job", event="store_error", digest=outcome.digest[:12],
                error=_error_detail(error),
            )
