"""Campaign engine: batched, cached, parallel profiling sweeps.

The paper's evaluation is a grid — models x devices x tools x knobs — and
this package turns the repo's one-shot ``pasta profile`` run into a
throughput service over such grids.  A campaign is campaign metadata (name,
execution mode, axes) over the same :class:`~repro.api.spec.ProfileSpec`
that drives live runs, recording and replay:

* :mod:`repro.campaign.spec` — declarative campaign/job specs + grid expansion;
* :mod:`repro.campaign.scheduler` — worker-pool execution with per-job
  retries, timeouts and failure isolation;
* :mod:`repro.campaign.cache` — content-addressed result cache (identical
  specs never re-simulate) and the :class:`CacheBackend` contract;
* :mod:`repro.campaign.cache_http` — the same cache served by a ``pasta
  serve`` daemon over HTTP (workers without a shared filesystem);
* :mod:`repro.campaign.store` — append-only JSONL record store;
* :mod:`repro.campaign.leases` — file-based job leases (claim / heartbeat /
  stale takeover) and digest sharding for the distributed campaign fabric;
* :mod:`repro.campaign.faults` — deterministic fault injection
  (``PASTA_FAULTS``) for crash/chaos drills;
* :mod:`repro.campaign.progress` — live job-lifecycle streaming to
  ``status.jsonl`` (the ``pasta campaign watch`` feed);
* :mod:`repro.campaign.aggregate` — roll-ups, analysis-model comparisons and
  baseline-vs-current regression diffs.

The ``pasta campaign`` command lives in :mod:`repro.commands.campaign`.
"""

from repro.campaign.aggregate import (
    diff_records,
    overhead_model_comparison,
    render_table,
    rollup,
)
from repro.campaign.cache import CacheBackend, CacheStats, ResultCache
from repro.campaign.cache_http import HttpResultCache
from repro.campaign.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    activate_faults,
    active_faults,
    deactivate_faults,
    faults_scope,
)
from repro.campaign.leases import LeaseInfo, LeaseManager, shard_of
from repro.campaign.progress import (
    NULL_PROGRESS,
    NullProgress,
    ProgressWriter,
    active_progress,
    progress_scope,
    read_status,
    render_status,
    snapshot_status,
    status_path,
)
from repro.campaign.scheduler import (
    CampaignRunResult,
    CampaignScheduler,
    JobOutcome,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec, expand_jobs
from repro.campaign.store import ResultStore

__all__ = [
    "CacheBackend",
    "CacheStats",
    "CampaignRunResult",
    "CampaignScheduler",
    "CampaignSpec",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "HttpResultCache",
    "InjectedFault",
    "JobOutcome",
    "LeaseInfo",
    "LeaseManager",
    "NULL_PROGRESS",
    "NullProgress",
    "ProgressWriter",
    "ResultCache",
    "ResultStore",
    "activate_faults",
    "active_faults",
    "active_progress",
    "deactivate_faults",
    "diff_records",
    "faults_scope",
    "expand_jobs",
    "overhead_model_comparison",
    "progress_scope",
    "read_status",
    "render_status",
    "render_table",
    "rollup",
    "run_campaign",
    "shard_of",
    "snapshot_status",
    "status_path",
]
