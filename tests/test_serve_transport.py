"""The kept-alive transport between clients and the ``pasta serve`` daemon,
and the job manager's per-namespace quota counters.

* a client thread reuses one connection across round trips, and a campaign
  over :class:`HttpResultCache` one per scheduler thread;
* a connection whose response was left unread is never reused, and a reused
  connection the daemon closed is re-sent once on a new one;
* the daemon closes a connection whose request body it did not read, and
  :meth:`PastaDaemon.close` ends idle connections with their threads;
* the quota counters always equal a recount over the job table.
"""

from __future__ import annotations

import http.client
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import repro.serve.daemon as daemon_module
from repro.campaign.cache_http import HttpResultCache
from repro.campaign.faults import FaultInjector, FaultPlan, FaultRule, faults_scope
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.serve import JobManager, PastaDaemon, ServeError, connect

SPEC = {"model": "alexnet", "tools": ["hotness"], "iterations": 1}

#: A 4-cell campaign over one workload (distinct window knobs).
CAMPAIGN = {
    "name": "transport-test",
    "models": ["alexnet"],
    "tools": [],
    "iterations": 1,
    "knob_sweep": [{"end_grid_id": 40_000_000 + i} for i in range(4)],
}


def wait_for(predicate, timeout: float = 30.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s")


def slow_execution(delay_s: float) -> FaultInjector:
    return FaultInjector(FaultPlan(rules=(
        FaultRule(site="runner.execute", kind="slow", delay_s=delay_s, times=0),
    )))


@pytest.fixture()
def connects(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """The thread id of every ``HTTPConnection.connect`` call."""
    calls: list[int] = []
    real = http.client.HTTPConnection.connect

    def counting(self):
        calls.append(threading.get_ident())
        return real(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return calls


@pytest.fixture()
def daemon(tmp_path: Path):
    with PastaDaemon(tmp_path / "serve", workers=2) as running:
        yield running


def close_in_time(daemon: PastaDaemon, timeout: float = 10.0) -> None:
    closer = threading.Thread(target=daemon.close)
    closer.start()
    closer.join(timeout)
    assert not closer.is_alive(), "PastaDaemon.close() hung"


class TestKeptAliveConnection:
    def test_warm_round_trips_share_one_connection(
        self, daemon: PastaDaemon, connects: list[int]
    ) -> None:
        client = connect(daemon.url)
        client.submit(SPEC).result(timeout=120)
        for _ in range(20):
            assert client.submit(SPEC).result(timeout=60).cache_hit
        assert len(connects) == 1

    def test_a_stream_closed_early_does_not_leave_its_connection_behind(
        self, daemon: PastaDaemon, connects: list[int]
    ) -> None:
        client = connect(daemon.url)
        handle = client.submit(SPEC)
        handle.result(timeout=120)
        stream = handle.stream()
        assert next(stream)["type"] == "job"
        stream.close()  # three records left unread on the connection
        before = len(connects)
        assert handle.status()["state"] == "done"
        assert len(connects) == before + 1
        assert [r["type"] for r in handle.stream()] == ["job", "job", "result", "job"]

    def test_a_status_inside_a_stream_gets_its_own_connection(
        self, daemon: PastaDaemon, connects: list[int]
    ) -> None:
        client = connect(daemon.url)
        handle = client.submit(SPEC)
        handle.result(timeout=120)
        states = [(rec["type"], handle.status()["state"]) for rec in handle.stream()]
        assert [kind for kind, _ in states] == ["job", "job", "result", "job"]
        assert {state for _, state in states} == {"done"}
        assert len(connects) == 2
        client.health()
        assert len(connects) == 2

    def test_a_restarted_daemon_is_reached_with_one_resend(
        self, tmp_path: Path, connects: list[int], monkeypatch: pytest.MonkeyPatch
    ) -> None:
        first = PastaDaemon(tmp_path / "serve", workers=1).start()
        client = connect(first.url)
        assert client.health()["status"] == "ok"
        close_in_time(first)
        requests: list[str] = []
        real_request = http.client.HTTPConnection.request

        def counting(self, method, url, *args, **kwargs):
            requests.append(url)
            return real_request(self, method, url, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request", counting)
        with PastaDaemon(tmp_path / "serve", workers=1, port=first.port) as second:
            assert client.health()["url"] == second.url
        assert requests == ["/v1/healthz", "/v1/healthz"]
        assert len(connects) == 2

    def test_a_dead_daemon_is_unreachable_after_the_resend(self, tmp_path: Path) -> None:
        running = PastaDaemon(tmp_path / "serve", workers=1).start()
        client = connect(running.url)
        client.health()
        close_in_time(running)
        with pytest.raises(ServeError, match="cannot reach pasta daemon") as info:
            client.health()
        assert info.value.code is None


class TestDaemonConnections:
    def test_an_unread_body_closes_the_connection(
        self, daemon: PastaDaemon, connects: list[int], monkeypatch: pytest.MonkeyPatch
    ) -> None:
        client = connect(daemon.url)
        with pytest.raises(ServeError, match="no route") as info:
            client._request("POST", "/v1/nope", {"x": 1})
        assert info.value.code == 404
        assert client.health()["status"] == "ok"

        monkeypatch.setattr(daemon_module, "MAX_BODY_BYTES", 16)
        with pytest.raises(ServeError, match="exceeds") as info:
            client.submit(SPEC)
        assert info.value.code == 400
        for _ in range(2):
            assert client.health()["status"] == "ok"
        # The refused POST's connection; the one the first health() opened
        # and the refused submit reused and closed; the last two health()s'.
        assert len(connects) == 3

    def test_close_ends_idle_connections_and_their_threads(self, tmp_path: Path) -> None:
        before = set(threading.enumerate())
        running = PastaDaemon(tmp_path / "serve", workers=1).start()
        client = connect(running.url)
        client.health()  # leaves its connection idle in the daemon
        close_in_time(running)
        assert set(threading.enumerate()) <= before


class TestHttpResultCacheConnections:
    def test_a_campaign_opens_one_connection_per_scheduler_thread(
        self, daemon: PastaDaemon, connects: list[int]
    ) -> None:
        cache = HttpResultCache(daemon.url)
        cells = CampaignSpec.from_dict(CAMPAIGN).expand()
        run = CampaignScheduler(cache=cache, jobs=2).run(cells, name="transport-test")
        assert run.executed == 4 and run.failed == 0
        # Four GET misses and four PUTs, over one connection per thread.
        assert (cache.stats.misses, cache.stats.writes) == (4, 4)
        assert connects and len(connects) == len(set(connects))


class TestQuotaCounters:
    @staticmethod
    def assert_counts(manager: JobManager) -> None:
        jobs = manager.jobs()

        def nonzero(counts: Counter) -> dict[str, int]:
            return {key: value for key, value in counts.items() if value != 0}

        with manager._cond:
            assert nonzero(manager._total) == Counter(j.namespace for j in jobs)
            assert nonzero(manager._inflight) == Counter(
                j.namespace for j in jobs if not j.terminal
            )

    def test_counts_follow_every_transition_and_a_restart(self, tmp_path: Path) -> None:
        data = tmp_path / "serve"
        with faults_scope(slow_execution(0.5)):
            manager = JobManager(data, workers=1)
            running = manager.submit(SPEC, namespace="a")
            queued = manager.submit({**SPEC, "iterations": 2}, namespace="a")
            failing = manager.submit(
                {"model": "alexnet", "tools": ["no_such_tool"], "iterations": 1}, namespace="b"
            )
            self.assert_counts(manager)
            assert manager.cancel(queued.id).state == "cancelled"
            self.assert_counts(manager)
            wait_for(lambda: running.terminal and failing.terminal)
            assert (running.state, failing.state) == ("done", "failed")
            self.assert_counts(manager)
            again = manager.submit(SPEC, namespace="b")
            wait_for(lambda: again.terminal)
            self.assert_counts(manager)
            blocker = manager.submit({**SPEC, "iterations": 3}, namespace="a")
            left = manager.submit({**SPEC, "iterations": 4}, namespace="b")
            wait_for(lambda: blocker.state == "running")
            manager.close()
            assert not left.terminal

        reborn = JobManager(data, workers=1)
        try:
            assert reborn.resumed >= 1
            self.assert_counts(reborn)
            assert reborn._inflight["b"] == 1
            wait_for(lambda: all(j.terminal for j in reborn.jobs()), timeout=60)
            self.assert_counts(reborn)
            assert reborn._total == Counter({"a": 3, "b": 3})
        finally:
            reborn.close()

    def test_counts_hold_under_concurrent_submits(self, tmp_path: Path) -> None:
        manager = JobManager(tmp_path / "serve", workers=4)
        interval = sys.getswitchinterval()
        try:
            warm = manager.submit(SPEC)
            wait_for(lambda: warm.terminal, timeout=120)
            sys.setswitchinterval(1e-5)
            targets = ["a", "b", "c"] * 2 + ["a", "b"]

            def submit_many(namespace: str) -> None:
                for _ in range(10):
                    manager.submit(SPEC, namespace=namespace)

            threads = [threading.Thread(target=submit_many, args=(ns,)) for ns in targets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            wait_for(lambda: all(j.terminal for j in manager.jobs()), timeout=60)
        finally:
            sys.setswitchinterval(interval)
            manager.close()
        self.assert_counts(manager)
        assert manager._total == Counter({"default": 1, "a": 30, "b": 30, "c": 20})
