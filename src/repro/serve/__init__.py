"""Profiling as a service: the ``pasta serve`` daemon and its client.

This package turns the repo's one declarative run description —
:class:`~repro.api.spec.ProfileSpec` — into a network service.  Because every
run is already frozen, serializable data with a canonical content digest, and
because execution is already crash-safe and cache-backed (the campaign
fabric), the service layer is *only* queueing and auth-less multi-tenancy:

* :mod:`repro.serve.daemon` — a long-lived, stdlib-only HTTP daemon
  (``ThreadingHTTPServer``) accepting :class:`ProfileSpec` /
  :class:`~repro.campaign.spec.CampaignSpec` submissions and streaming every
  response as JSON Lines;
* :mod:`repro.serve.jobs` — the persistent worker pool behind it, executing
  every submission through the campaign scheduler (a profile job as a
  one-cell campaign), answering repeated digests from
  the shared content-addressed :class:`~repro.campaign.cache.ResultCache`,
  and journaling every job to a :class:`~repro.campaign.store.ResultStore`
  so a daemon restart (or ``kill -9``) re-enqueues queued work and never
  re-simulates finished digests;
* :mod:`repro.serve.client` — ``pasta.connect(url)``: the same fluent
  builder surface as ``pasta.profile(...)`` with ``.submit()`` as the
  terminal verb instead of ``.run()``, returning a :class:`JobHandle` whose
  ``.result()`` is byte-identical to a local run of the same spec;
* :mod:`repro.serve.protocol` — the JSONL record shapes every endpoint
  speaks (one self-describing JSON object per line, flushed per line so
  results and progress stream incrementally with socket backpressure).
"""

from repro.serve.client import (
    JobHandle,
    RemoteCampaignResult,
    RemoteProfileBuilder,
    RemoteRunResult,
    ServeClient,
    ServeError,
    connect,
)
from repro.serve.daemon import PastaDaemon
from repro.serve.jobs import JobManager, QuotaExceeded

__all__ = [
    "JobHandle",
    "JobManager",
    "PastaDaemon",
    "QuotaExceeded",
    "RemoteCampaignResult",
    "RemoteProfileBuilder",
    "RemoteRunResult",
    "ServeClient",
    "ServeError",
    "connect",
]
