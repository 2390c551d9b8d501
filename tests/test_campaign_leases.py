"""Tests for the lease protocol and the sharded distributed fabric."""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro
from repro.api import ProfileSpec
from repro.campaign import (
    CampaignScheduler,
    LeaseManager,
    ResultCache,
    ResultStore,
    shard_of,
)
from repro.campaign import scheduler as scheduler_module
from repro.campaign.leases import LEASE_SUFFIX, LeaseInfo
from repro.errors import ReproError


def _jobs(n=6):
    return [ProfileSpec(model="alexnet", batch_size=b, iterations=1)
            for b in range(1, n + 1)]


def _stub_runner(payload):
    return {"job": dict(payload), "status": "ok",
            "summary": {"total_time_ms": 1.0}, "reports": []}


class TestShardOf:
    def test_deterministic_and_in_range(self):
        digests = [j.digest("v") for j in _jobs(10)]
        for count in (1, 2, 3, 7):
            for digest in digests:
                index = shard_of(digest, count)
                assert 0 <= index < count
                assert index == shard_of(digest, count)

    def test_rejects_bad_count(self):
        with pytest.raises(ReproError, match="shard count"):
            shard_of("ab" * 32, 0)

    def test_partitions_cover_everything(self):
        digests = [j.digest("v") for j in _jobs(20)]
        shards = {0: [], 1: [], 2: []}
        for digest in digests:
            shards[shard_of(digest, 3)].append(digest)
        assert sum(len(v) for v in shards.values()) == len(digests)


class TestLeaseManager:
    def test_claim_is_exclusive(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        b = LeaseManager(tmp_path, owner="b", ttl_s=30.0)
        digest = "d" * 64
        assert a.claim(digest) is True
        assert b.claim(digest) is False
        assert a.claim(digest) is True  # re-claim of a held lease is cheap
        info = b.holder(digest)
        assert info is not None and info.owner == "a"

    def test_release_lets_another_worker_claim(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a")
        b = LeaseManager(tmp_path, owner="b")
        digest = "d" * 64
        assert a.claim(digest)
        assert a.release(digest) is True
        assert digest not in a.held
        assert b.claim(digest) is True

    def test_heartbeat_refreshes_timestamp(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a")
        digest = "d" * 64
        a.claim(digest)
        before = a.holder(digest)
        time.sleep(0.02)
        assert a.heartbeat(digest) is True
        after = a.holder(digest)
        assert after.heartbeat_unix > before.heartbeat_unix
        assert after.claimed_unix == before.claimed_unix
        assert a.heartbeat_all() == 1

    def test_stale_lease_is_taken_over(self, tmp_path):
        dead = LeaseManager(tmp_path, owner="dead", ttl_s=0.05)
        live = LeaseManager(tmp_path, owner="live", ttl_s=0.05)
        digest = "d" * 64
        dead.claim(digest)
        # No heartbeat: the lease expires and a stealer wins it.
        time.sleep(0.1)
        assert live.claim(digest) is True
        assert live.takeovers == 1
        assert live.holder(digest).owner == "live"

    def test_fresh_lease_is_not_taken_over(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        b = LeaseManager(tmp_path, owner="b", ttl_s=30.0)
        digest = "d" * 64
        a.claim(digest)
        assert b.claim(digest) is False
        assert b.takeovers == 0

    def test_steal_stale_false_never_takes_over(self, tmp_path):
        dead = LeaseManager(tmp_path, owner="dead", ttl_s=0.01)
        polite = LeaseManager(tmp_path, owner="polite", ttl_s=0.01)
        digest = "d" * 64
        dead.claim(digest)
        time.sleep(0.05)
        assert polite.claim(digest, steal_stale=False) is False

    def test_corrupt_lease_counts_as_stale(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        digest = "d" * 64
        path = tmp_path / f"{digest}{LEASE_SUFFIX}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"torn')  # holder died mid-write
        assert a.holder(digest) is None
        assert a.is_stale(None) is True
        assert a.claim(digest) is True

    def test_heartbeat_detects_lost_ownership(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=0.05)
        thief = LeaseManager(tmp_path, owner="thief", ttl_s=0.05)
        digest = "d" * 64
        a.claim(digest)
        time.sleep(0.1)
        assert thief.claim(digest) is True
        # a was presumed dead and stolen from; it must stop touching the lease.
        assert a.heartbeat(digest) is False
        assert digest not in a.held
        assert a.release(digest) is False
        assert thief.holder(digest).owner == "thief"

    def test_active_leases_lists_decodable_leases(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a")
        d1, d2 = "1" * 64, "2" * 64
        a.claim(d1)
        a.claim(d2)
        leases = a.active_leases()
        assert set(leases) == {d1, d2}
        assert all(isinstance(v, LeaseInfo) for v in leases.values())
        assert a.release_all() == 2
        assert a.active_leases() == {}

    def test_lease_body_is_self_describing(self, tmp_path):
        a = LeaseManager(tmp_path, owner="me")
        digest = "d" * 64
        a.claim(digest)
        data = json.loads(a.path_for(digest).read_text())
        assert data["owner"] == "me"
        assert data["digest"] == digest
        assert data["pid"] > 0
        assert data["host"]


class TestShardedCampaign:
    def test_two_workers_split_the_grid_without_overlap(self, tmp_path):
        jobs = _jobs(8)
        cache = ResultCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        executed: dict[str, list[str]] = {"w0": [], "w1": []}

        def runner_for(worker):
            def runner(payload):
                executed[worker].append(payload["model"] + str(payload["batch_size"]))
                return _stub_runner(payload)
            return runner

        results = []
        for index, worker in enumerate(("w0", "w1")):
            scheduler = CampaignScheduler(
                cache=cache, store=store,
                leases=LeaseManager(tmp_path / "leases", owner=worker, ttl_s=30.0),
                shard=(index, 2), steal=False, steal_timeout_s=0.0,
                job_runner=runner_for(worker),
            )
            results.append(scheduler.run(jobs, name="sharded"))
        # Worker 0 ran only its shard; worker 1 got the rest from shard 1
        # plus cache hits for everything worker 0 already finished.
        assert executed["w0"] and executed["w1"]
        assert not set(executed["w0"]) & set(executed["w1"])
        assert len(executed["w0"]) + len(executed["w1"]) == len(jobs)
        assert results[1].failed == 0
        assert results[1].cached == len(executed["w0"])
        # All leases were released at end of run.
        assert list((tmp_path / "leases").glob(f"*{LEASE_SUFFIX}")) == []

    def test_single_worker_steals_foreign_shard(self, tmp_path):
        jobs = _jobs(6)
        scheduler = CampaignScheduler(
            cache=ResultCache(tmp_path / "cache"),
            store=ResultStore(tmp_path / "results.jsonl"),
            leases=LeaseManager(tmp_path / "leases", ttl_s=5.0),
            shard=(0, 2), steal=True,
            job_runner=_stub_runner,
        )
        result = scheduler.run(jobs, name="solo")
        assert result.failed == 0
        assert result.total == len(jobs)
        # The cells of shard 1 had no owner: claimed and run here, marked stolen.
        assert result.stolen == sum(
            1 for job in jobs if shard_of(job.digest(scheduler.version), 2) == 1
        )

    def test_steal_timeout_gives_up_on_live_foreign_lease(self, tmp_path):
        jobs = _jobs(4)
        holder = LeaseManager(tmp_path / "leases", owner="other", ttl_s=60.0)
        scheduler = CampaignScheduler(
            job_runner=_stub_runner,
            leases=LeaseManager(tmp_path / "leases", owner="me", ttl_s=60.0),
            shard=(0, 2), steal=True, steal_timeout_s=0.2,
        )
        foreign = [j for j in jobs
                   if shard_of(j.digest(scheduler.version), 2) == 1]
        assert foreign, "grid too small: no cell landed in shard 1"
        for job in foreign:
            assert holder.claim(job.digest(scheduler.version))
        result = scheduler.run(jobs, name="blocked")
        gave_up = [o for o in result.outcomes if o.status == "failed"]
        assert len(gave_up) == len(foreign)
        assert all("leased by other" in o.error for o in gave_up)

    def test_shard_requires_leases(self):
        with pytest.raises(ReproError, match="lease manager"):
            CampaignScheduler(shard=(0, 2))

    def test_bad_shard_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="shard"):
            CampaignScheduler(
                leases=LeaseManager(tmp_path), shard=(2, 2)
            )


def _foreign_jobs(n):
    """``n`` jobs whose digests fall in shard 1 of 2, so that a shard-0
    worker steals every one of them."""
    jobs = [j for j in _jobs(10 * n) if shard_of(j.digest(repro.__version__), 2) == 1]
    assert len(jobs) >= n, "grid too small: too few cells landed in shard 1"
    return jobs[:n]


def _sleeping_runner(seconds, release=None):
    """A stub job that takes ``seconds`` (or until ``release`` is set)."""
    def runner(payload):
        if release is None:
            time.sleep(seconds)
        else:
            release.wait(seconds)
        return _stub_runner(payload)
    return runner


class _LeaseEvents:
    """Progress sink that sets ``contested`` once ``n`` cells of the
    worker's own shard turned out to be held by another worker."""

    def __init__(self, n):
        self.n = n
        self.seen = 0
        self.contested = threading.Event()

    def emit(self, kind, **fields):
        if kind == "lease" and fields["event"] == "contested":
            self.seen += 1
            if self.seen == self.n:
                self.contested.set()


class TestStolenCellsRunOnTheExecutor:
    def test_stolen_cells_obey_the_timeout(self, tmp_path):
        release = threading.Event()
        try:
            result = CampaignScheduler(
                jobs=4, timeout_s=0.3, job_runner=_sleeping_runner(1.0, release),
                leases=LeaseManager(tmp_path / "leases", ttl_s=30.0), shard=(0, 2),
            ).run(_foreign_jobs(4), name="stolen-timeout")
        finally:
            release.set()
        assert [o.status for o in result.outcomes] == ["timeout"] * 4
        assert result.stolen == 4
        assert result.duration_s < 0.9

    def test_stolen_cells_run_jobs_wide(self, tmp_path):
        result = CampaignScheduler(
            jobs=4, job_runner=_sleeping_runner(0.5),
            leases=LeaseManager(tmp_path / "leases", ttl_s=30.0), shard=(0, 2),
        ).run(_foreign_jobs(4), name="stolen-wide")
        assert result.executed == result.stolen == 4
        assert result.duration_s < 1.0

    def test_a_live_workers_cells_are_answered_from_one_store_read_per_pass(
        self, tmp_path, monkeypatch
    ):
        jobs = _jobs(30)
        version = repro.__version__
        store = ResultStore(tmp_path / "results.jsonl")
        other = LeaseManager(tmp_path / "leases", owner="other", ttl_s=60.0)
        for job in jobs:
            assert other.claim(job.digest(version))
        reads, naps = [], []
        read_store = store.latest_by_digest
        monkeypatch.setattr(store, "latest_by_digest", lambda: reads.append(1) or read_store())
        monkeypatch.setattr(scheduler_module, "_sleep", lambda s: naps.append(s) or time.sleep(0.05))
        events = _LeaseEvents(len(jobs))

        def live_worker():
            # Starts once the waiting worker found every cell leased, then
            # stores each cell's record before releasing its lease.
            assert events.contested.wait(30.0)
            for job in jobs:
                time.sleep(0.005)
                digest = job.digest(version)
                store.append({**_stub_runner(job.to_dict()), "attempts": 1,
                              "digest": digest, "version": version})
                other.release(digest)

        ran = []
        scheduler = CampaignScheduler(
            store=store, progress=events,
            leases=LeaseManager(tmp_path / "leases", owner="me", ttl_s=60.0),
            job_runner=lambda payload: ran.append(payload) or _stub_runner(payload),
        )
        thread = threading.Thread(target=live_worker)
        thread.start()
        try:
            result = scheduler.run(jobs, name="live")
        finally:
            thread.join()
        assert [o.status for o in result.outcomes] == ["cached"] * len(jobs)
        assert ran == []
        # One read on startup (crash-resume), then one per steal pass; every
        # pass but the last sleeps, since none of them stole anything.
        assert len(reads) <= 1 + len(naps) + 1
