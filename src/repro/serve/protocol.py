"""The JSONL wire protocol of the ``pasta serve`` daemon.

Every endpoint speaks newline-delimited JSON: one self-describing object per
line, flushed per line, so unary responses and long-lived streams share one
format and a slow reader applies backpressure through its socket instead of
forcing the server to buffer.  A record is a :func:`repro.jsonl.envelope`
and a line its :func:`repro.jsonl.line`, as in the progress bus.

Record types
------------
``job``
    A job lifecycle record: ``event`` is ``queued`` / ``started`` /
    ``finished``, ``state`` is the job's current state
    (:data:`JOB_STATES`), plus identity fields (``job_id``, ``namespace``,
    ``kind``, ``digest``) and — on terminal records — ``status``,
    ``cache_hit`` and ``error``.
``progress``
    Per-cell progress of a running campaign job (``index`` / ``total`` /
    ``status`` / ``cache_hit`` / ``digest``), emitted as each grid cell
    finishes.
``result``
    The job's result payload.  For profile jobs, ``record`` is exactly what
    :func:`repro.api.runner.execute_payload` returns — which is why a remote
    run is byte-identical to a local one.  For campaign jobs, ``record``
    carries the merged summary plus per-cell digests (full per-cell reports
    stay content-addressed behind ``GET /v1/cache/<digest>``).
``error``
    A failure the *request* (not a job) ran into: ``code`` mirrors the HTTP
    status (400 bad spec, 404 unknown job, 429 quota exceeded, 503 job
    journal unwritable), ``error`` is the human-readable reason.
``health``
    The ``/v1/healthz`` snapshot: daemon version, uptime and job counters.
``cache``
    Cache-endpoint acknowledgements (``stored`` / ``evicted``) and the
    ``GET /v1/cache`` stats snapshot.

Versioning: every record carries ``v`` (:data:`repro.jsonl.VERSION`);
clients reject records from a future major protocol.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro import jsonl
from repro.errors import ReproError

#: Job lifecycle states, in order of progression.  ``done`` / ``failed`` /
#: ``cancelled`` are terminal; ``cancelling`` marks a running job whose
#: cancellation was requested but whose worker has not yet observed it.
JOB_STATES = ("queued", "running", "cancelling", "done", "failed", "cancelled")

#: States a job can never leave.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Submission kinds: one ProfileSpec, or a CampaignSpec grid.
JOB_KINDS = ("profile", "campaign")

#: Default namespace for clients that do not set ``X-Pasta-Namespace``.
DEFAULT_NAMESPACE = "default"

#: Request header carrying the client's namespace.
NAMESPACE_HEADER = "X-Pasta-Namespace"


def error_record(code: int, message: str, **fields: object) -> dict[str, object]:
    """A request-level failure record mirroring an HTTP status code."""
    return jsonl.envelope("error", code=int(code), error=str(message), **fields)


def check_protocol(rec: Mapping[str, object]) -> None:
    """Reject records stamped by a future, incompatible protocol."""
    version = rec.get("v", jsonl.VERSION)
    if isinstance(version, int) and version > jsonl.VERSION:
        raise ReproError(
            f"server speaks protocol v{version}, this client understands "
            f"v{jsonl.VERSION}; upgrade the client"
        )


def validate_namespace(namespace: Optional[str]) -> str:
    """Normalise a namespace: non-empty, no path separators or whitespace."""
    name = (namespace or DEFAULT_NAMESPACE).strip()
    if not name or any(ch in name for ch in "/\\ \t\n"):
        raise ReproError(
            f"namespace must be a non-empty token without separators, "
            f"got {namespace!r}"
        )
    return name
