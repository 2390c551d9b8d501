"""Shared conformance suite for every :class:`CacheBackend` implementation.

PR 8 left one open item: the campaign cache assumed a shared filesystem.
This suite pins the backend *contract* — get/put/contains semantics,
quarantine-on-corruption, stats accounting — and runs it identically against

* the on-disk :class:`~repro.campaign.cache.ResultCache`, and
* the HTTP-backed :class:`~repro.campaign.cache_http.HttpResultCache`
  talking to a live ``pasta serve`` daemon (whose own file store does the
  server-side quarantining),

so the two stay interchangeable behind ``pasta campaign run --cache-url``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.campaign.cache import (
    QUARANTINE_SUFFIX,
    CacheBackend,
    ResultCache,
)
from repro.campaign.cache_http import HttpResultCache
from repro.errors import ReproError
from repro.serve.daemon import PastaDaemon

DIGEST = "ab" * 16
OTHER = "cd" * 16

RECORD = {
    "job": {"model": "alexnet", "tools": ["hotness"]},
    "status": "ok",
    "summary": {"events": 123, "ratio": 1.5, "note": "ünïcode ✓"},
    "reports": {"hotness": {"top": [1, 2, 3], "nested": {"deep": None}}},
}


@dataclass
class BackendHarness:
    """One backend under test plus a handle on its underlying file store."""

    cache: CacheBackend
    #: The file store physically holding entries (the backend itself for the
    #: file flavour; the daemon's store for the HTTP flavour).
    file_store: ResultCache


@pytest.fixture(params=["file", "http"])
def harness(request, tmp_path: Path):
    if request.param == "file":
        store = ResultCache(tmp_path / "cache")
        yield BackendHarness(cache=store, file_store=store)
    else:
        with PastaDaemon(tmp_path / "serve", workers=1) as daemon, \
                HttpResultCache(daemon.url) as cache:
            yield BackendHarness(cache=cache, file_store=daemon.manager.cache)


class TestCacheBackendConformance:
    def test_satisfies_protocol(self, harness: BackendHarness) -> None:
        assert isinstance(harness.cache, CacheBackend)

    def test_absent_digest_is_none_miss(self, harness: BackendHarness) -> None:
        assert harness.cache.get(DIGEST) is None
        assert harness.cache.stats.misses == 1
        assert harness.cache.stats.hits == 0
        assert harness.cache.contains(DIGEST) is False

    def test_put_get_round_trips_exactly(self, harness: BackendHarness) -> None:
        harness.cache.put(DIGEST, RECORD)
        assert harness.cache.stats.writes == 1
        fetched = harness.cache.get(DIGEST)
        assert fetched == RECORD
        assert harness.cache.stats.hits == 1
        assert harness.cache.contains(DIGEST) is True
        assert harness.cache.contains(OTHER) is False

    def test_last_write_wins(self, harness: BackendHarness) -> None:
        harness.cache.put(DIGEST, {"version": 1})
        harness.cache.put(DIGEST, {"version": 2})
        assert harness.cache.get(DIGEST) == {"version": 2}

    def test_corrupt_entry_is_quarantined_miss(self, harness: BackendHarness) -> None:
        harness.cache.put(DIGEST, RECORD)
        # Corrupt the physical entry behind the backend's back (a torn
        # writer / bit rot), wherever it actually lives.
        path = harness.file_store.path_for(DIGEST)
        path.write_text('{"torn": ')

        assert harness.cache.get(DIGEST) is None  # a miss, not an error
        tombstone = path.with_name(path.name + QUARANTINE_SUFFIX)
        assert tombstone.exists(), "corrupt entry must be quarantined aside"
        assert not path.exists()

        # The slot is refillable: the next put/get cycle works normally.
        harness.cache.put(DIGEST, RECORD)
        assert harness.cache.get(DIGEST) == RECORD


class TestHttpBackendSpecifics:
    def test_rejects_non_http_url(self) -> None:
        with pytest.raises(ReproError, match="http"):
            HttpResultCache("ftp://example.com")

    def test_unreachable_daemon_is_loud(self) -> None:
        with HttpResultCache("http://127.0.0.1:9", timeout=0.5) as cache:
            with pytest.raises(ReproError, match="cannot reach"):
                cache.get(DIGEST)
            with pytest.raises(ReproError, match="cannot reach"):
                cache.put(DIGEST, {"x": 1})

    def test_bad_digest_rejected_by_daemon(self, tmp_path: Path) -> None:
        with PastaDaemon(tmp_path / "serve", workers=1) as daemon, \
                HttpResultCache(daemon.url) as cache:
            with pytest.raises(ReproError, match="HTTP 400"):
                cache.put("NOT-HEX", {"x": 1})


class TestCampaignOverHttpCache:
    def test_campaign_run_with_cache_url(self, tmp_path: Path) -> None:
        """``pasta campaign run --cache-url`` shares results via the daemon."""
        import json

        from repro.commands import main

        spec = {
            "name": "http-cache-campaign",
            "models": ["alexnet"],
            "tools": [],
            "iterations": 1,
            "knob_sweep": [{"end_grid_id": 30_000_000 + i} for i in range(3)],
        }
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps(spec))

        with PastaDaemon(tmp_path / "serve", workers=1) as daemon:
            daemon.start()
            argv = ["campaign", "run", str(spec_path),
                    "--cache-url", daemon.url, "--json"]
            assert main(argv) == 0
            # Every result landed in the daemon's cache over HTTP...
            store_stats = daemon.manager.cache.stats
            assert len(daemon.manager.cache.entries()) == 3
            assert store_stats.writes == 3
            # ...so an identical rerun stores nothing new: every cell is
            # served back out of the daemon's store.
            assert main(argv) == 0
            assert store_stats.writes == 3
            assert store_stats.hits >= 3
