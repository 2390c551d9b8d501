"""``repro.api``: the one profiling API.

A single declarative, serializable configuration object —
:class:`~repro.api.spec.ProfileSpec` — drives every execution style the
framework offers, through one runner (:mod:`repro.api.runner`):

===========================  ==================================================
live run                     ``run("gpt2", tools=["hotness"])`` or
                             ``profile("gpt2").with_tools("hotness").run()``
record to a trace            ``profile("gpt2").record("t.pasta").run()`` /
                             ``spec.with_record("t.pasta")``
offline replay               ``replay("t.pasta", spec)``
campaign (grid of specs)     :mod:`repro.campaign` expands a
                             :class:`~repro.campaign.spec.CampaignSpec` into
                             ``ProfileSpec`` jobs and schedules them
===========================  ==================================================

The same spec produces byte-identical tool reports across all four paths,
and its canonical serialization is the campaign cache key.
"""

from repro.api.builder import ProfileBuilder, profile
from repro.api.runner import (
    ParallelProfileResult,
    ParallelReplayResult,
    ProfileResult,
    execute,
    execute_payload,
    record_workload_trace,
    replay,
    replay_payload,
    run,
    workload_signature,
)
from repro.api.spec import (
    KnobValue,
    PARALLEL_STRATEGIES,
    ParallelismSpec,
    ProfileSpec,
    RUN_MODES,
    normalize_knobs,
    normalize_parallelism,
)

__all__ = [
    "KnobValue",
    "PARALLEL_STRATEGIES",
    "ParallelismSpec",
    "ParallelProfileResult",
    "ParallelReplayResult",
    "ProfileBuilder",
    "ProfileResult",
    "ProfileSpec",
    "RUN_MODES",
    "execute",
    "execute_payload",
    "normalize_knobs",
    "normalize_parallelism",
    "profile",
    "record_workload_trace",
    "replay",
    "replay_payload",
    "run",
    "workload_signature",
]
