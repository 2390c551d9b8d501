"""Kept-alive HTTP/1.1 connections to a ``pasta serve`` daemon.

:class:`~repro.serve.client.ServeClient` and
:class:`~repro.campaign.cache_http.HttpResultCache` both reach the daemon
through an :class:`HttpTransport`: stdlib ``http.client`` with one idle
connection per thread, so every request of a thread after its first
reuses one TCP connection.  The transport connects directly; it does not
consult ``http_proxy`` / ``https_proxy``.  It imports nothing from
:mod:`repro.serve`, so the campaign layer stays below the service layer.

A connection goes back into its thread's slot only once its response has
been read to the end.  :meth:`HttpTransport.close` closes every parked
connection, whichever thread parked it, and a connection handed back after
it is closed instead of parked; a slot whose thread has exited keeps its
connection until then.  A response left unread (a stream closed early, an
error, a timeout) closes its connection, so no request ever reads another
one's leftover bytes.  A request that finds a reused connection closed
before any status line (the daemon restarted, or shut its idle
connections) is re-sent once on a new connection.
"""

from __future__ import annotations

import http.client
import json
import threading
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional
from urllib.parse import urlsplit

from repro.errors import ReproError

#: How a reused connection the daemon has closed fails before a status line.
_CLOSED = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)

#: Everything a socket or a malformed HTTP exchange raises.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class ServeError(ReproError):
    """A request the daemon rejected (or a transport failure talking to it).

    ``code`` carries the HTTP-ish status from the server's ``error`` record
    (400 bad spec, 404 unknown job, 429 quota, ...) or ``None`` for
    transport-level failures.
    """

    def __init__(self, message: str, *, code: Optional[int] = None) -> None:
        super().__init__(message)
        self.code = code


class HttpTransport:
    """Requests to one daemon URL over one kept-alive connection per thread."""

    def __init__(self, url: str, headers: Optional[Mapping[str, str]] = None) -> None:
        self.url = url.rstrip("/")
        parts = urlsplit(self.url)
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._host, self._port, self._prefix = parts.hostname or "", parts.port, parts.path
        self._headers = dict(headers or {})
        #: Each thread's idle connection, by thread id.
        self._idle: dict[int, http.client.HTTPConnection] = {}
        self._lock = threading.Lock()
        self._closed = False

    def close(self) -> None:
        """Close every idle connection; later requests still work, but each
        closes its connection when it is done."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for conn in idle.values():
            conn.close()

    @contextmanager
    def open(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        *,
        timeout: float,
    ) -> Iterator[http.client.HTTPResponse]:
        """Send one request and yield its response, whose status is below 400.

        A status of 400 or more raises :class:`ServeError` with the daemon's
        ``error`` record; failing to reach the daemon raises one with
        ``code=None``.  ``timeout`` bounds every socket operation.
        """
        conn, response = self._exchange(method, path, body, timeout)
        try:
            if response.status >= 400:
                raise self._refused(method, path, response)
            yield response
        finally:
            if response.isclosed() and not response.will_close:
                self._keep(conn)  # read to the end: reusable
            else:
                conn.close()

    def request(
        self, method: str, path: str, body: Optional[bytes] = None, *, timeout: float
    ) -> bytes:
        """One unary request → its whole response body."""
        with self.open(method, path, body, timeout=timeout) as response:
            try:
                return response.read()
            except _TRANSPORT_ERRORS as error:
                raise self._unreachable(error) from None

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        """The thread's idle connection (emptying its slot), or a new one."""
        with self._lock:
            conn = self._idle.pop(threading.get_ident(), None)
        return conn if conn is not None else self._connection_class(self._host, self._port)

    def _keep(self, conn: http.client.HTTPConnection) -> None:
        """Park ``conn`` in the thread's slot; a full slot (an interleaved
        request on the same thread returned first) or a closed transport
        closes it instead."""
        with self._lock:
            if not self._closed and self._idle.setdefault(threading.get_ident(), conn) is conn:
                return
        conn.close()

    def _exchange(
        self, method: str, path: str, body: Optional[bytes], timeout: float
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        headers = dict(self._headers)
        if body is not None:
            headers["Content-Type"] = "application/json"
        while True:
            conn = self._connection()
            reused = conn.sock is not None
            conn.timeout = timeout
            if reused:
                conn.sock.settimeout(timeout)
            try:
                conn.request(method, self._prefix + path, body=body, headers=headers)
                return conn, conn.getresponse()
            except _TRANSPORT_ERRORS as error:
                conn.close()
                if not (reused and isinstance(error, _CLOSED)):
                    raise self._unreachable(error) from None
            # An idle connection the daemon closed fails before any status
            # line: re-send once, on a new connection (the slot is empty now).

    # ------------------------------------------------------------------ #
    # errors
    # ------------------------------------------------------------------ #
    def _unreachable(self, error: BaseException) -> ServeError:
        return ServeError(f"cannot reach pasta daemon at {self.url}: {error}")

    def _refused(
        self, method: str, path: str, response: http.client.HTTPResponse
    ) -> ServeError:
        """The daemon's explanation of a refusal: its JSONL ``error`` record."""
        status = response.status
        try:
            rec = json.loads(response.read().splitlines()[0])
        except (*_TRANSPORT_ERRORS, IndexError, ValueError):
            rec = None
        if isinstance(rec, dict) and rec.get("type") == "error":
            code = rec.get("code")
            return ServeError(
                str(rec.get("error") or "daemon error"),
                code=code if isinstance(code, int) else status,
            )
        return ServeError(f"{method} {path} failed: HTTP {status}", code=status)
