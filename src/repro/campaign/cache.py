"""Content-addressed on-disk result cache.

Campaign jobs are deterministic functions of their spec: the simulator has no
hidden state, so a (job spec, package version) pair fully determines the
result.  The cache exploits that — each record lives at
``<root>/<digest[:2]>/<digest>.json`` where the digest is the stable hash of
the canonical job dict salted with ``repro.__version__`` (see
:meth:`~repro.api.spec.ProfileSpec.digest`).  Re-running an identical
campaign therefore simulates nothing; bumping the package version invalidates
everything automatically.

Concurrency: the cache is shared by multiple scheduler processes (the
distributed campaign fabric).  Writes are write-to-temp + ``os.replace`` so
readers never observe partial JSON; ``evict``/``clear`` tolerate losing
unlink races (two schedulers cleaning at once); a corrupt entry — torn by a
crashed writer or bit-rotted on disk — is *quarantined* on first read (moved
aside to ``<digest>.json.corrupt``) so the digest becomes a clean refillable
miss instead of a silent re-miss forever.  ``fsync=True`` additionally
fsyncs entry data before the rename (and the shard directory after), for
campaign directories on filesystems where a host crash may otherwise leave
a renamed-but-empty entry.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Protocol, Union, runtime_checkable

from repro.campaign.faults import active_faults
from repro.core.serialization import stable_json_dumps

#: Suffix quarantined (corrupt) entries are renamed to.
QUARANTINE_SUFFIX = ".corrupt"


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Corrupt entries moved aside by :meth:`ResultCache.get`.
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
        }


@runtime_checkable
class CacheBackend(Protocol):
    """What campaign execution needs from a result cache.

    The contract the scheduler (and the serve daemon's job manager) code
    against: digest-keyed ``get``/``put``/``contains`` plus shared
    :class:`CacheStats`.  Two implementations ship:

    * :class:`ResultCache` — the sharded on-disk store (this module);
    * :class:`~repro.campaign.cache_http.HttpResultCache` — the same
      operations over a ``pasta serve`` daemon's ``/v1/cache`` endpoints,
      for workers without a shared filesystem (``pasta campaign run
      --cache-url``).

    Semantics both must honour (covered by the shared conformance test in
    ``tests/test_cache_backend.py``): ``get`` of an absent digest is a
    ``None`` miss; ``get`` of a corrupt entry is *also* a ``None`` miss and
    quarantines the entry so the slot becomes refillable; ``put`` then
    ``get`` round-trips the record exactly (JSON-native data only).
    """

    stats: CacheStats

    def get(self, digest: str) -> Optional[dict[str, object]]:
        """Cached record for ``digest``, or ``None`` on any kind of miss."""
        ...

    def put(self, digest: str, record: dict[str, object]) -> object:
        """Store ``record`` under ``digest`` (atomically, last write wins)."""
        ...

    def contains(self, digest: str) -> bool:
        """True if a record is currently cached under ``digest``."""
        ...


@dataclass
class ResultCache:
    """Sharded directory of cached job records, keyed by content digest."""

    root: Union[str, Path]
    #: fsync entry data before rename (and the shard dir after) on ``put``.
    fsync: bool = False
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, digest: str) -> Path:
        """Location of the record for ``digest`` (whether or not it exists)."""
        return Path(self.root) / digest[:2] / f"{digest}.json"

    def contains(self, digest: str) -> bool:
        """True if a record is cached under ``digest``."""
        return self.path_for(digest).exists()

    def get(self, digest: str) -> Optional[dict[str, object]]:
        """Cached record for ``digest``, or None.

        A corrupt entry is a miss *and* is quarantined — renamed to
        ``<digest>.json.corrupt`` (kept for post-mortems) so the next ``put``
        refills the slot and the next ``get`` is an honest absent-miss, not a
        parse failure repeated on every lookup.
        """
        path = self.path_for(digest)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            self.stats.misses += 1
            return None
        if not isinstance(record, dict):
            self._quarantine(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (racing schedulers tolerate a loss)."""
        try:
            os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
        except OSError:
            return  # another scheduler quarantined (or evicted) it first
        self.stats.quarantined += 1

    def put(self, digest: str, record: dict[str, object]) -> Path:
        """Atomically store ``record`` under ``digest``."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = stable_json_dumps(record)
        fault = active_faults().fire("cache.put", label=digest)
        if fault is not None and fault.kind in ("cache_corrupt", "torn_write"):
            # Emulate a writer dying mid-write / silent media corruption:
            # the entry lands truncated to half its JSON.
            payload = payload[: max(1, len(payload) // 2)]
        # Write-to-temp + rename so concurrent workers never observe partial
        # JSON, even when two jobs race to fill the same entry.
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
                if self.fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp_name, path)
            if self.fsync:
                self._fsync_dir(path.parent)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Durably record the rename itself (best-effort on odd filesystems)."""
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    def evict(self, digest: str) -> bool:
        """Remove one entry; returns True if this call removed it.

        Losing an unlink race to another scheduler (exists-then-vanishes) is
        a normal False, never an exception.
        """
        try:
            self.path_for(digest).unlink()
        except FileNotFoundError:
            return False
        except OSError:
            return False
        return True

    def _walk(self, suffix: str) -> list[Path]:
        """Two-level listing that tolerates directories vanishing mid-walk.

        ``Path.glob`` raises if a racing ``clear`` rmdir's a shard while the
        generator is inside it; this walk treats a vanished shard as empty.
        """
        root = Path(self.root)
        try:
            shards = sorted(p for p in root.iterdir() if p.is_dir())
        except OSError:
            return []
        out: list[Path] = []
        for shard in shards:
            try:
                children = sorted(shard.iterdir())
            except OSError:
                continue  # lost to a concurrent clear
            out.extend(p for p in children if p.name.endswith(suffix))
        return out

    def entries(self) -> list[str]:
        """All cached digests."""
        return [p.stem for p in self._walk(".json")]

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self, quarantined: bool = True) -> int:
        """Delete every entry; returns how many *this call* removed.

        Safe against a concurrent ``clear``/``evict``: entries that vanish
        mid-walk are simply not counted.  ``quarantined`` also sweeps
        ``.corrupt`` tombstones.
        """
        removed = 0
        root = Path(self.root)
        if not root.exists():
            return 0
        suffixes = [".json"]
        if quarantined:
            suffixes.append(f".json{QUARANTINE_SUFFIX}")
        for suffix in suffixes:
            for path in self._walk(suffix):
                if suffix == ".json" and path.name.endswith(QUARANTINE_SUFFIX):
                    continue  # tombstones are not cached results
                try:
                    path.unlink()
                except OSError:
                    continue  # lost the race to a concurrent clear/evict
                if path.suffix == ".json":
                    removed += 1
        try:
            shards = list(root.iterdir())
        except OSError:
            return removed
        for shard in shards:
            try:
                if shard.is_dir() and not any(shard.iterdir()):
                    shard.rmdir()
            except OSError:
                continue
        return removed
