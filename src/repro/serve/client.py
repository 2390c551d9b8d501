"""``pasta.connect(url)`` — the remote half of the one profiling API.

The redesign's contract: local and remote execution are *the same fluent
builder* with a different terminal verb.  Locally::

    reports = pasta.profile("gpt2").on("a100").train().with_tools("hotness").run().reports()

Remotely, swap ``pasta.profile`` for ``client.profile`` and ``.run()`` for
``.submit()``::

    client = pasta.connect("http://127.0.0.1:8080")
    handle = client.profile("gpt2").on("a100").train().with_tools("hotness").submit()
    reports = handle.result().reports()

and the two ``reports()`` dicts are byte-identical for the same spec,
because the daemon's campaign scheduler executes through the very same
:func:`repro.api.runner.execute_payload` a local run uses.

Everything here is stdlib: requests go through
:class:`repro.transport.HttpTransport` (``http.client``, one kept-alive
HTTP/1.1 connection per client thread, no proxy environment variables
consulted), and the wire format is the JSONL protocol of
:mod:`repro.serve.protocol`.  Stream reads auto-resume: a
:class:`JobHandle` tracks how many records it has consumed, so a dropped
connection reconnects with ``?from=<cursor>`` and the caller never sees a
duplicate or a gap.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Iterator, Mapping, Optional, Union

from repro.api.builder import ProfileBuilder
from repro.serve.protocol import (
    DEFAULT_NAMESPACE,
    NAMESPACE_HEADER,
    TERMINAL_STATES,
    check_protocol,
    validate_namespace,
)
from repro.transport import HttpTransport, ServeError

#: Seconds between reconnect attempts when a stream drops.
_RETRY_BACKOFF_S = 0.2


def _parse_line(line: bytes) -> dict[str, object]:
    try:
        rec = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServeError(f"daemon sent a non-JSONL line: {error}") from None
    if not isinstance(rec, dict):
        raise ServeError(f"daemon sent a non-object record: {rec!r}")
    check_protocol(rec)
    return rec


class ServeClient:
    """A daemon's base URL and a namespace, reached over one kept-alive
    connection per calling thread.

    Entry points: :meth:`profile` (the fluent remote builder),
    :meth:`submit` (a ready spec or dict), :meth:`job` (re-attach to an
    existing job id), plus :meth:`jobs` / :meth:`health` /
    :meth:`cache_get` / :meth:`cache_put` for introspection and the
    HTTP-backed campaign cache.
    """

    def __init__(
        self,
        url: str,
        *,
        namespace: str = DEFAULT_NAMESPACE,
        timeout: float = 30.0,
        stream_timeout: float = 300.0,
        retries: int = 3,
    ) -> None:
        self.url = url.rstrip("/")
        if not self.url.startswith(("http://", "https://")):
            raise ServeError(
                f"serve URL must start with http:// or https://, got {url!r}"
            )
        self.namespace = validate_namespace(namespace)
        self.timeout = timeout
        self.stream_timeout = stream_timeout
        self.retries = retries
        self._transport = HttpTransport(self.url, {NAMESPACE_HEADER: self.namespace})

    def __repr__(self) -> str:
        return f"ServeClient({self.url!r}, namespace={self.namespace!r})"

    # -------------------------------------------------------------- #
    # transport
    # -------------------------------------------------------------- #
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, object]] = None,
    ) -> list[dict[str, object]]:
        """One unary request → the response's parsed records."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        raw = self._transport.request(method, path, data, timeout=self.timeout)
        return [_parse_line(line) for line in raw.splitlines() if line.strip()]

    def _request_one(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, object]] = None,
    ) -> dict[str, object]:
        records = self._request(method, path, body)
        if not records:
            raise ServeError(f"{method} {path}: daemon sent an empty response")
        return records[0]

    # -------------------------------------------------------------- #
    # the fluent surface
    # -------------------------------------------------------------- #
    def profile(self, model: str) -> "RemoteProfileBuilder":
        """Start a fluent profiling configuration that submits to the daemon.

        Identical surface to :func:`repro.pasta.profile` — the terminal verb
        is :meth:`RemoteProfileBuilder.submit` instead of ``.run()``.
        """
        return RemoteProfileBuilder(self, model)

    def submit(
        self,
        spec: Union[Mapping[str, object], object],
        *,
        kind: Optional[str] = None,
    ) -> "JobHandle":
        """Submit a ready spec: a ``ProfileSpec``/``CampaignSpec`` or dict."""
        payload: Mapping[str, object]
        if isinstance(spec, Mapping):
            payload = spec
        elif hasattr(spec, "to_dict"):
            payload = spec.to_dict()  # type: ignore[union-attr]
        else:
            raise ServeError(
                f"cannot submit {type(spec).__name__}: expected a spec dict, "
                f"ProfileSpec or CampaignSpec"
            )
        if kind is not None:
            payload = {"kind": kind, "spec": dict(payload)}
        rec = self._request_one("POST", "/v1/jobs", payload)
        return JobHandle(self, str(rec["job_id"]), status=rec)

    def job(self, job_id: str) -> "JobHandle":
        """Re-attach to an existing job by id (verifies it exists)."""
        return JobHandle(self, job_id, status=self.status(job_id))

    # -------------------------------------------------------------- #
    # job endpoints
    # -------------------------------------------------------------- #
    def status(self, job_id: str) -> dict[str, object]:
        return self._request_one("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict[str, object]:
        return self._request_one("POST", f"/v1/jobs/{job_id}/cancel")

    def jobs(
        self,
        namespace: Optional[str] = None,
        *,
        all_namespaces: bool = False,
    ) -> list[dict[str, object]]:
        """Status records, scoped to this client's namespace by default.

        Pass ``namespace`` to inspect another tenant, or
        ``all_namespaces=True`` for every tenant's jobs.
        """
        path = "/v1/jobs"
        if all_namespaces:
            path += "?all=1"
        elif namespace is not None:
            path += f"?namespace={validate_namespace(namespace)}"
        return self._request("GET", path)

    def stream(
        self, job_id: str, from_index: int = 0, timeout: Optional[float] = None
    ) -> Iterator[dict[str, object]]:
        """Follow a job's records from ``from_index``, resuming on drops.

        Tracks a cursor of consumed records; a connection reset, timeout or
        torn read reconnects with ``?from=<cursor>`` (up to ``retries``
        times per gap), so the caller sees every record exactly once even
        across daemon hiccups mid-campaign.
        """
        cursor = max(0, int(from_index))
        attempts = 0
        read_timeout = self.stream_timeout if timeout is None else timeout
        while True:
            # A refused or unreachable request raises ServeError, which
            # retries would not improve; only a broken read is resumed.
            try:
                with self._transport.open(
                    "GET", f"/v1/jobs/{job_id}/stream?from={cursor}", timeout=read_timeout
                ) as response:
                    for line in response:
                        if not line.strip():
                            continue
                        rec = _parse_line(line)
                        cursor += 1
                        attempts = 0
                        yield rec
                return  # server closed the stream: job is terminal
            except (OSError, http.client.HTTPException) as error:
                attempts += 1
                if attempts > self.retries:
                    raise ServeError(
                        f"stream for {job_id} dropped {attempts} times "
                        f"(last: {error}); giving up at record {cursor}"
                    ) from None
                time.sleep(_RETRY_BACKOFF_S * attempts)

    # -------------------------------------------------------------- #
    # daemon endpoints
    # -------------------------------------------------------------- #
    def health(self) -> dict[str, object]:
        return self._request_one("GET", "/v1/healthz")

    def cache_get(self, digest: str) -> Optional[dict[str, object]]:
        """The cached result record for ``digest``, or ``None``."""
        try:
            return self._request_one("GET", f"/v1/cache/{digest}")
        except ServeError as error:
            if error.code == 404:
                return None
            raise

    def cache_put(self, digest: str, record: Mapping[str, object]) -> None:
        self._request_one("PUT", f"/v1/cache/{digest}", record)

    def cache_stats(self) -> dict[str, object]:
        return self._request_one("GET", "/v1/cache")


class RemoteProfileBuilder(ProfileBuilder):
    """The local fluent builder, re-terminated at the daemon.

    Every configuration method (``on`` / ``mode`` / ``with_tools`` /
    ``knob`` / ``parallel`` / ...) is inherited unchanged; only the terminal
    verbs differ: :meth:`submit` ships the spec, while :meth:`run` /
    :meth:`replay` / :meth:`record` raise with pointers to their remote
    equivalents (a remote daemon cannot write to client-side paths).
    """

    def __init__(self, client: ServeClient, model: str) -> None:
        super().__init__(model)
        self._client = client

    def submit(self) -> "JobHandle":
        """Ship the accumulated spec to the daemon; returns a handle."""
        return self._client.submit(self.build().to_dict(), kind="profile")

    def run(self):  # type: ignore[override]
        raise ServeError(
            "this builder came from pasta.connect(...): the terminal verb is "
            ".submit(), which returns a JobHandle (use .result() on it)"
        )

    def replay(self, trace: object):  # type: ignore[override]
        raise ServeError(
            "remote replay is not supported: traces live on the client; "
            "replay locally with pasta.profile(...).replay(trace)"
        )

    def record(self, path):  # type: ignore[override]
        raise ServeError(
            "record_to names a path on the daemon's host, which a remote "
            "client cannot read back; record traces with a local run instead"
        )


class JobHandle:
    """One submitted job: ``.status()`` / ``.stream()`` / ``.result()`` /
    ``.cancel()``, all addressed by the server-issued job id."""

    def __init__(
        self,
        client: ServeClient,
        job_id: str,
        status: Optional[dict[str, object]] = None,
    ) -> None:
        self.client = client
        self.id = job_id
        self._last_status = status
        self._result: Optional[Union[RemoteRunResult, RemoteCampaignResult]] = None

    def __repr__(self) -> str:
        state = (self._last_status or {}).get("state", "?")
        return f"JobHandle({self.id!r}, state={state!r})"

    def status(self) -> dict[str, object]:
        """The job's current status record (one round trip)."""
        self._last_status = self.client.status(self.id)
        return self._last_status

    @property
    def state(self) -> str:
        """Last observed state (refresh with :meth:`status`)."""
        if self._last_status is None:
            self.status()
        return str((self._last_status or {}).get("state", "queued"))

    def stream(self, from_index: int = 0) -> Iterator[dict[str, object]]:
        """Follow the job's protocol records (resumes on dropped connections)."""
        return self.client.stream(self.id, from_index)

    def cancel(self) -> dict[str, object]:
        self._last_status = self.client.cancel(self.id)
        return self._last_status

    def result(
        self, timeout: Optional[float] = None
    ) -> Union["RemoteRunResult", "RemoteCampaignResult"]:
        """Block until the job finishes; returns its result.

        Profile jobs yield a :class:`RemoteRunResult` whose ``reports()``
        equals a local run's; campaign jobs a :class:`RemoteCampaignResult`.
        Raises :class:`ServeError` when the job failed or was cancelled.
        """
        if self._result is not None:
            return self._result
        result_record: Optional[dict[str, object]] = None
        final: Optional[dict[str, object]] = None
        for rec in self.client.stream(self.id, 0, timeout=timeout):
            kind = rec.get("type")
            if kind == "result" and isinstance(rec.get("record"), dict):
                result_record = rec["record"]  # type: ignore[assignment]
            elif kind == "job" and rec.get("state") in TERMINAL_STATES:
                final = rec
        if final is None:
            raise ServeError(f"stream for {self.id} ended before a terminal state")
        state = str(final.get("state"))
        if state == "failed":
            raise ServeError(f"job {self.id} failed: {final.get('error')}")
        if state == "cancelled":
            raise ServeError(f"job {self.id} was cancelled")
        if result_record is None:
            raise ServeError(f"job {self.id} finished without a result record")
        # The terminal job record carries the kind, digest and cache_hit.
        self._last_status = final
        if final.get("kind") == "campaign":
            self._result = RemoteCampaignResult(self, result_record, final)
        else:
            self._result = RemoteRunResult(self, result_record, final)
        return self._result


class RemoteRunResult:
    """A profile job's result: the reports a local run produces.

    ``record`` is the daemon's cached record for the spec, the one ``GET
    /v1/cache/<digest>`` serves: what :func:`repro.api.runner.execute_payload`
    returned (echoed job payload, summary, tool reports) plus ``attempts``,
    ``digest`` and ``version``.  :meth:`reports` matches
    ``ProfileResult.reports()`` of a local run of the same spec after JSON
    round-tripping.
    """

    def __init__(
        self,
        handle: JobHandle,
        record: dict[str, object],
        status: dict[str, object],
    ) -> None:
        self.handle = handle
        self.record = record
        self.status = status

    @property
    def cache_hit(self) -> bool:
        """True when the daemon answered from its content-addressed cache."""
        return bool(self.status.get("cache_hit"))

    @property
    def digest(self) -> str:
        return str(self.status.get("digest", ""))

    @property
    def summary(self) -> dict[str, object]:
        summary = self.record.get("summary")
        return summary if isinstance(summary, dict) else {}

    def reports(self) -> dict[str, dict[str, object]]:
        """Per-tool reports, same shape as a local ``.run().reports()``."""
        reports = self.record.get("reports")
        return reports if isinstance(reports, dict) else {}


class RemoteCampaignResult:
    """A campaign job's merged result: counts plus per-cell outcomes.

    Full per-cell reports stay content-addressed on the daemon; fetch any
    cell's complete record with :meth:`cell_record`.
    """

    def __init__(
        self,
        handle: JobHandle,
        record: dict[str, object],
        status: dict[str, object],
    ) -> None:
        self.handle = handle
        self.record = record
        self.status = status

    @property
    def total(self) -> int:
        return int(self.record.get("total", 0))  # type: ignore[arg-type]

    @property
    def executed(self) -> int:
        return int(self.record.get("executed", 0))  # type: ignore[arg-type]

    @property
    def cached(self) -> int:
        return int(self.record.get("cached", 0))  # type: ignore[arg-type]

    @property
    def failed(self) -> int:
        return int(self.record.get("failed", 0))  # type: ignore[arg-type]

    @property
    def cells(self) -> list[dict[str, object]]:
        cells = self.record.get("cells")
        return cells if isinstance(cells, list) else []

    def cell_record(self, digest: str) -> Optional[dict[str, object]]:
        """Fetch one cell's full result record from the daemon's cache."""
        return self.handle.client.cache_get(digest)


def connect(
    url: str,
    *,
    namespace: str = DEFAULT_NAMESPACE,
    timeout: float = 30.0,
) -> ServeClient:
    """Connect to a ``pasta serve`` daemon; returns a :class:`ServeClient`.

    The client's :meth:`~ServeClient.profile` mirrors ``pasta.profile``
    exactly — same builder, remote terminal verb::

        client = pasta.connect("http://127.0.0.1:8080")
        handle = client.profile("mlp").with_tools("hotness").submit()
        print(handle.result().reports())
    """
    return ServeClient(url, namespace=namespace, timeout=timeout)
