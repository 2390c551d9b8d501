"""HTTP-backed campaign result cache — PR 8's "shared filesystem" closed out.

The distributed campaign fabric shares results through a
:class:`~repro.campaign.cache.ResultCache` directory, which requires every
worker to mount the same filesystem.  :class:`HttpResultCache` removes that
requirement: it implements the same :class:`~repro.campaign.cache.CacheBackend`
contract against a ``pasta serve`` daemon's ``/v1/cache`` endpoints, so
``pasta campaign run --cache-url http://daemon:8080`` shares one
content-addressed cache across machines.

Requests go through :class:`repro.transport.HttpTransport`, the transport
the serve client uses: one kept-alive connection per scheduler thread, no
proxy environment variables consulted.  Nothing here imports
:mod:`repro.serve`: the campaign layer stays below the service layer, and a
daemon is just another place bytes live.

Parity with the file store (asserted by the shared conformance test):

* ``get`` of an absent digest → ``None`` miss;
* ``get`` of a *corrupt* entry → ``None`` miss, with the entry quarantined —
  the daemon's own file store does the quarantining, the client just sees
  the honest miss;
* ``put`` + ``get`` round-trips records exactly (canonical JSON both ways);
* hit/miss/write counters in :class:`~repro.campaign.cache.CacheStats`.

Transport failures raise :class:`~repro.errors.ReproError` loudly — a
mistyped ``--cache-url`` must kill the campaign at the first job, not
silently degrade every lookup into a miss and re-simulate the world.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.campaign.cache import CacheStats
from repro.errors import ReproError
from repro.transport import HttpTransport, ServeError


@dataclass
class HttpResultCache:
    """Digest-keyed result cache speaking a ``pasta serve`` daemon's API."""

    url: str
    timeout: float = 30.0
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.url = self.url.rstrip("/")
        if not self.url.startswith(("http://", "https://")):
            raise ReproError(
                f"cache URL must start with http:// or https://, got {self.url!r}"
            )
        self._transport = HttpTransport(self.url)

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _send(self, method: str, digest: str, body: Optional[bytes] = None) -> bytes:
        try:
            return self._transport.request(
                method, f"/v1/cache/{digest}", body, timeout=self.timeout
            )
        except ServeError as error:
            if error.code is None:
                raise  # "cannot reach pasta daemon at ..."
            raise ServeError(
                f"cache daemon at {self.url} refused {method} {digest}: "
                f"HTTP {error.code} ({error})", code=error.code,
            ) from None

    def _fetch(self, digest: str) -> Optional[dict[str, object]]:
        """GET one entry; absent (404) and corrupt responses are ``None``."""
        try:
            raw = self._send("GET", digest)
        except ServeError as error:
            if error.code == 404:
                return None
            raise
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # A record torn in transit: treat as a miss, same as the file
            # store treats a torn entry (the daemon quarantines its side).
            return None
        return record if isinstance(record, dict) else None

    # ------------------------------------------------------------------ #
    # CacheBackend surface
    # ------------------------------------------------------------------ #
    def get(self, digest: str) -> Optional[dict[str, object]]:
        """Cached record for ``digest``, or ``None``."""
        record = self._fetch(digest)
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record

    def put(self, digest: str, record: dict[str, object]) -> str:
        """Store ``record`` under ``digest`` on the daemon."""
        self._send("PUT", digest, json.dumps(record).encode("utf-8"))
        self.stats.writes += 1
        return f"{self.url}/v1/cache/{digest}"

    def contains(self, digest: str) -> bool:
        """True if the daemon currently has ``digest`` (stats untouched)."""
        return self._fetch(digest) is not None
