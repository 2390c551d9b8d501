"""The ``pasta serve`` HTTP daemon — stdlib only, JSON Lines everywhere.

:class:`PastaDaemon` wraps a :class:`~repro.serve.jobs.JobManager` in a
``ThreadingHTTPServer`` (one thread per connection, so a slow stream reader
never blocks a submit).  Every response body is newline-delimited JSON from
:mod:`repro.serve.protocol`, one :func:`repro.jsonl.line` per record; unary
responses are sent with a ``Content-Length``, streams use chunked transfer
encoding with one write per record so backpressure flows through the
socket.

Connections are HTTP/1.1 and kept alive: a client thread sends all its
requests over one connection.  So the daemon disables Nagle's algorithm
(a response's second write would otherwise wait for the client's delayed
ACK, about 40 ms), closes a connection whose request body it answered
without reading (the leftover bytes would parse as the next request), and
on :meth:`PastaDaemon.close` shuts every open connection down, so no
handler thread outlives the daemon.

Endpoints (all under ``/v1``):

=====================================  ==============================================
``POST /v1/jobs``                      submit a spec (body: ``ProfileSpec`` /
                                       ``CampaignSpec`` dict or
                                       ``{"kind":..., "spec":...}``) → ``job`` record
``GET /v1/jobs``                       list jobs (``?namespace=`` filter) →
                                       one ``job`` record per line
``GET /v1/jobs/<id>``                  current status → ``job`` record
``GET /v1/jobs/<id>/stream``           follow lifecycle/progress/result records;
                                       ``?from=N`` resumes after N records
``POST /v1/jobs/<id>/cancel``          cancel queued or running → ``job`` record
``GET /v1/cache/<digest>``             fetch a cached result record (raw JSON)
``PUT /v1/cache/<digest>``             store a result record → ``cache`` record
``GET /v1/cache``                      cache stats snapshot → ``cache`` record
``GET /v1/healthz``                    liveness + job counters → ``health`` record
=====================================  ==============================================

Failures are ``error`` records whose ``code`` mirrors the HTTP status:
400 bad spec / malformed request, 404 unknown job or digest, 429 quota,
503 a submission the job journal could not record.

Multi-tenancy is auth-less: clients pick a namespace via the
``X-Pasta-Namespace`` header (or ``?namespace=``); quotas are enforced per
namespace by the job manager.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qs, urlsplit

import repro
from repro import jsonl
from repro.errors import ReproError
from repro.obs.telemetry import active as _active_telemetry
from repro.serve.jobs import DEFAULT_QUOTA_INFLIGHT, JobManager, JournalError, QuotaExceeded
from repro.serve.protocol import NAMESPACE_HEADER, error_record

#: Largest accepted request body (a campaign grid spec is well under this).
MAX_BODY_BYTES = 32 * 1024 * 1024

_DIGEST_RE = re.compile(r"^[0-9a-f]{8,64}$")

_JOBS_RE = re.compile(r"^/v1/jobs/([^/]+)(/stream|/cancel)?$")
_CACHE_RE = re.compile(r"^/v1/cache/([^/]+)$")


class _ServeHandler(BaseHTTPRequestHandler):
    """Routes one connection's requests onto the daemon's job manager."""

    protocol_version = "HTTP/1.1"
    server_version = f"pasta-serve/{repro.__version__}"
    disable_nagle_algorithm = True
    #: True from a request's headers until its body has been read.
    _unread_body = False

    # Set by _ServeServer for the benefit of type checkers.
    server: "_ServeServer"

    def log_message(self, format: str, *args: object) -> None:
        # Default handler logging writes to stderr per request; route it to
        # telemetry instead so the daemon is quiet unless observed.
        _active_telemetry().event(
            "serve.request", client=self.address_string(), line=format % args
        )

    # -------------------------------------------------------------- #
    # plumbing
    # -------------------------------------------------------------- #
    @property
    def manager(self) -> JobManager:
        return self.server.daemon.manager

    def _namespace(self, params: dict[str, list[str]]) -> Optional[str]:
        values = params.get("namespace")
        if values:
            return values[-1]
        return self.headers.get(NAMESPACE_HEADER)

    def _read_body(self) -> dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ReproError("request needs a JSON body with a Content-Length")
        if length > MAX_BODY_BYTES:
            raise ReproError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        self._unread_body = False
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ReproError(f"request body is not valid JSON: {error}") from None
        if not isinstance(body, dict):
            raise ReproError("request body must be a JSON object")
        return body

    def end_headers(self) -> None:
        if self._unread_body:
            # Answered without reading the body: its bytes are still on the
            # connection and would be parsed as the next request.
            self.send_header("Connection", "close")
        super().end_headers()

    def _send_lines(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/jsonl; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_record(self, status: int, rec: dict[str, object]) -> None:
        self._send_lines(status, jsonl.line(rec))

    def _start_stream(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl; charset=utf-8")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

    def _write_chunk(self, data: bytes) -> None:
        # One write per record: the reader sees each line as it happens, and
        # a slow reader throttles us through the socket instead of a buffer.
        self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))
        self.wfile.flush()

    # -------------------------------------------------------------- #
    # dispatch
    # -------------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def _dispatch(self, method: str) -> None:
        self._unread_body = (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        params = parse_qs(parts.query)
        try:
            self._route(method, path, params)
        except QuotaExceeded as error:
            self._send_record(429, error_record(
                429, str(error), namespace=error.namespace, quota=error.quota
            ))
        except JournalError as error:
            self._send_record(503, error_record(503, str(error)))
        except ReproError as error:
            code = 404 if str(error).startswith("unknown ") else 400
            self._send_record(code, error_record(code, str(error)))
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away mid-response
        except Exception as error:  # pragma: no cover - defensive
            try:
                self._send_record(500, error_record(
                    500, f"{type(error).__name__}: {error}"
                ))
            except OSError:
                self.close_connection = True

    def _route(self, method: str, path: str, params: dict[str, list[str]]) -> None:
        if path == "/v1/healthz" and method == "GET":
            return self._get_health()
        if path == "/v1/jobs":
            if method == "POST":
                return self._post_job(params)
            if method == "GET":
                return self._list_jobs(params)
        match = _JOBS_RE.match(path)
        if match is not None:
            job_id, tail = match.group(1), match.group(2)
            if tail is None and method == "GET":
                return self._get_job(job_id)
            if tail == "/stream" and method == "GET":
                return self._stream_job(job_id, params)
            if tail == "/cancel" and method == "POST":
                return self._cancel_job(job_id)
        if path == "/v1/cache" and method == "GET":
            return self._get_cache_stats()
        match = _CACHE_RE.match(path)
        if match is not None:
            if method == "GET":
                return self._get_cache(match.group(1))
            if method == "PUT":
                return self._put_cache(match.group(1))
        self._send_record(404, error_record(
            404, f"no route for {method} {path}",
        ))

    # -------------------------------------------------------------- #
    # handlers
    # -------------------------------------------------------------- #
    def _get_health(self) -> None:
        self._send_record(200, jsonl.envelope(
            "health",
            status="ok",
            version=repro.__version__,
            protocol=jsonl.VERSION,
            url=self.server.daemon.url,
            **self.manager.stats(),
        ))

    def _post_job(self, params: dict[str, list[str]]) -> None:
        body = self._read_body()
        namespace = self._namespace(params)
        job = self.manager.submit(
            body, namespace=namespace if namespace is not None else "default"
        )
        self._send_record(202, job.status_record())

    def _list_jobs(self, params: dict[str, list[str]]) -> None:
        # Default scope is the caller's own namespace (header or param);
        # ``?all=1`` lists every tenant's jobs (auth-less, like the rest).
        if params.get("all", ["0"])[-1] not in ("0", "", "false"):
            namespace = None
        else:
            namespace = self._namespace(params)
        jobs = self.manager.jobs(namespace=namespace)
        body = b"".join(jsonl.line(job.status_record()) for job in jobs)
        self._send_lines(200, body)

    def _get_job(self, job_id: str) -> None:
        self._send_record(200, self.manager.get(job_id).status_record())

    def _cancel_job(self, job_id: str) -> None:
        self._send_record(200, self.manager.cancel(job_id).status_record())

    def _stream_job(self, job_id: str, params: dict[str, list[str]]) -> None:
        try:
            from_index = int(params.get("from", ["0"])[-1])
        except ValueError:
            raise ReproError("'from' must be an integer record index") from None
        stream = self.manager.stream(job_id, from_index)  # 404s before headers
        self.manager.get(job_id)
        self._start_stream()
        try:
            for rec in stream:
                self._write_chunk(jsonl.line(rec))
            self._write_chunk(b"")
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _get_cache_stats(self) -> None:
        self._send_record(200, jsonl.envelope(
            "cache",
            event="stats",
            stats=self.manager.cache.stats.as_dict(),
            root=str(self.manager.cache.root),
        ))

    def _check_digest(self, digest: str) -> str:
        if not _DIGEST_RE.match(digest):
            raise ReproError(
                f"digest must be lowercase hex (8-64 chars), got {digest!r}"
            )
        return digest

    def _get_cache(self, digest: str) -> None:
        rec = self.manager.cache.get(self._check_digest(digest))
        if rec is None:
            self._send_record(404, error_record(
                404, f"unknown digest {digest!r}", digest=digest
            ))
            return
        # The raw cached record, not an envelope: the HTTP cache backend's
        # get() must round-trip byte-identically with the file store's.
        self._send_lines(200, jsonl.line(rec))

    def _put_cache(self, digest: str) -> None:
        body = self._read_body()
        self.manager.cache.put(self._check_digest(digest), body)
        self._send_record(200, jsonl.envelope("cache", event="stored", digest=digest))


class _ServeServer(ThreadingHTTPServer):
    allow_reuse_address = True
    # The stdlib default listen backlog (5) drops connections when many
    # clients connect at once; SYNs beyond the backlog surface as resets.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], daemon: "PastaDaemon") -> None:
        super().__init__(address, _ServeHandler)
        self.daemon = daemon
        #: Each open connection's handler thread.  A kept-alive connection's
        #: thread idles until the client sends again or the daemon closes.
        self._handlers: dict[socket.socket, threading.Thread] = {}
        self._handlers_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:  # type: ignore[override]
        # A daemon thread: a process that never closes the daemon still exits.
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address),
            name="pasta-serve-connection", daemon=True,
        )
        with self._handlers_lock:
            self._handlers[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:  # type: ignore[override]
        with self._handlers_lock:
            self._handlers.pop(request, None)
        super().shutdown_request(request)

    def shutdown_connections(self) -> list[threading.Thread]:
        """End every open connection; returns their handler threads, which
        return once they read the EOF (or fail their next write)."""
        with self._handlers_lock:
            handlers = dict(self._handlers)
        for connection in handlers:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile
        return list(handlers.values())


class PastaDaemon:
    """The profiling-as-a-service daemon: HTTP front, worker pool back.

    ``port=0`` binds an ephemeral port; read :attr:`url` (or :attr:`port`)
    after construction.  Use as a context manager, or call :meth:`start` /
    :meth:`close` explicitly; :meth:`serve_forever` blocks (the CLI path).
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        quota_inflight: Optional[int] = DEFAULT_QUOTA_INFLIGHT,
        quota_total: Optional[int] = None,
        fsync: bool = False,
    ) -> None:
        self.manager = JobManager(
            data_dir,
            workers=workers,
            quota_inflight=quota_inflight,
            quota_total=quota_total,
            fsync=fsync,
        )
        self._server = _ServeServer((host, port), self)
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        #: Set once start() or serve_forever() begins serving: only a serve
        #: loop that ran can be shut down.
        self._serving = False
        _active_telemetry().event(
            "serve.bound", url=self.url, workers=workers,
            resumed=self.manager.resumed,
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PastaDaemon":
        """Serve on a background thread and return immediately."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="pasta-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or Ctrl-C)."""
        self._serving = True
        self._server.serve_forever()

    def close(self) -> None:
        """Stop accepting requests, end every connection and shut the worker
        pool down.

        Connections end before the job manager closes, so no kept-alive
        client reaches a closed manager; the manager closes before the
        handler threads are joined, so a handler following a stream
        returns.  Queued jobs stay journaled and resume on the next daemon
        start.  A daemon that never served skips only the serve loop's
        shutdown.
        """
        if self._serving:
            self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        handlers = self._server.shutdown_connections()
        self.manager.close()
        for thread in handlers:
            thread.join(timeout=5.0)
        self._server.server_close()

    def __enter__(self) -> "PastaDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
