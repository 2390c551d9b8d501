"""Tests for the deterministic fault-injection harness and failure policies."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import ProfileSpec
from repro.campaign import (
    CampaignScheduler,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    ResultCache,
    ResultStore,
    activate_faults,
    active_faults,
    deactivate_faults,
    faults_scope,
)
from repro.campaign.cache import QUARANTINE_SUFFIX
from repro.campaign.faults import ACTIVE_FAULTS, FAULTS_ENV, NULL_FAULTS, from_env
from repro.campaign import scheduler as scheduler_module
from repro.errors import ReproError


def _jobs(n=3):
    return [ProfileSpec(model="alexnet", batch_size=b, iterations=1)
            for b in range(1, n + 1)]


def _stub_runner(payload):
    return {"job": dict(payload), "status": "ok",
            "summary": {"total_time_ms": 1.0}, "reports": []}


@pytest.fixture(autouse=True)
def _disarm():
    deactivate_faults()
    yield
    deactivate_faults()


class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ReproError, match="kind"):
            FaultRule(site="x", kind="nope")
        with pytest.raises(ReproError, match="site"):
            FaultRule(site="", kind="error")
        with pytest.raises(ReproError, match="probability"):
            FaultRule(site="x", kind="error", probability=1.5)
        with pytest.raises(ReproError, match=">= 0"):
            FaultRule(site="x", kind="error", after=-1)

    def test_roundtrip(self):
        plan = FaultPlan(rules=(
            FaultRule(site="store.append", kind="torn_write", after=2),
            FaultRule(site="scheduler.job", kind="error", times=3,
                      probability=0.5, match="alexnet"),
        ), seed=42)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_parse_inline_and_file(self, tmp_path):
        text = json.dumps({"seed": 7, "rules": [
            {"site": "cache.put", "kind": "cache_corrupt"}]})
        inline = FaultPlan.parse(text)
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert FaultPlan.parse(str(path)) == inline
        assert inline.seed == 7
        assert inline.rules[0].kind == "cache_corrupt"

    def test_parse_rejects_garbage(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            FaultPlan.parse(str(tmp_path / "missing.json"))
        with pytest.raises(ReproError, match="JSON"):
            FaultPlan.parse("{not json")
        with pytest.raises(ReproError, match="unknown FaultPlan fields"):
            FaultPlan.parse('{"surprise": 1}')
        with pytest.raises(ReproError, match="unknown FaultRule fields"):
            FaultPlan.parse('{"rules": [{"site": "x", "kind": "error", "zz": 1}]}')


class TestFaultInjector:
    def test_error_kind_raises(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(site="s", kind="error"),)))
        with pytest.raises(InjectedFault, match="injected fault at s"):
            injector.fire("s")
        assert injector.injected == 1

    def test_after_and_times_schedule(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(site="s", kind="torn_write", after=2, times=2),)))
        fired = [injector.fire("s") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_match_filters_by_label(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(site="s", kind="torn_write", times=0, match="bert"),)))
        assert injector.fire("s", label="alexnet[bs1]") is None
        assert injector.fire("s", label="bert[bs2]") is not None

    def test_other_sites_untouched(self):
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(site="s", kind="error"),)))
        assert injector.fire("other") is None

    def test_probability_is_seed_deterministic(self):
        plan = {"seed": 123, "rules": [
            {"site": "s", "kind": "torn_write", "times": 0, "probability": 0.5}]}
        sequences = []
        for _ in range(2):
            injector = FaultInjector(FaultPlan.from_dict(plan))
            sequences.append(
                [injector.fire("s") is not None for _ in range(32)]
            )
        assert sequences[0] == sequences[1]
        assert any(sequences[0]) and not all(sequences[0])

    def test_slow_kind_sleeps(self, monkeypatch):
        naps = []
        monkeypatch.setattr("repro.campaign.faults.time.sleep", naps.append)
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(site="s", kind="slow", delay_s=0.25),)))
        rule = injector.fire("s")
        assert rule is not None and rule.kind == "slow"
        assert naps == [0.25]

    def test_env_arming(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert from_env() is NULL_FAULTS
        monkeypatch.setenv(FAULTS_ENV, json.dumps(
            {"rules": [{"site": "s", "kind": "error"}]}))
        injector = from_env()
        assert injector.enabled
        with pytest.raises(InjectedFault):
            injector.fire("s")

    def test_active_faults_lazily_arms_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, json.dumps(
            {"rules": [{"site": "s", "kind": "error"}]}))
        # Simulate a fresh process-pool worker: nothing armed yet.
        ACTIVE_FAULTS.reset()
        assert active_faults().enabled
        deactivate_faults()
        assert not active_faults().enabled

    def test_scope_restores_previous(self):
        outer = FaultInjector(FaultPlan())
        activate_faults(outer)
        with faults_scope(FaultInjector(FaultPlan())) as inner:
            assert active_faults() is inner
        assert active_faults() is outer


class TestRetryBackoff:
    def test_backoff_sleeps_between_retries(self, monkeypatch):
        naps = []
        monkeypatch.setattr(scheduler_module, "_sleep", naps.append)
        plan = FaultPlan(rules=(
            FaultRule(site="scheduler.job", kind="error", times=2),), seed=1)
        with faults_scope(FaultInjector(plan)):
            scheduler = CampaignScheduler(
                retries=3, backoff_s=0.1, backoff_cap_s=5.0,
                job_runner=_stub_runner,
            )
            result = scheduler.run(_jobs(1), name="retry")
        outcome = result.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 3
        assert len(naps) == 2
        assert all(0.1 <= nap <= 5.0 for nap in naps)
        # The slept delays are surfaced on the outcome and its record.
        assert outcome.backoff_s == pytest.approx(sum(naps))
        entries = outcome.record["attempt_errors"]
        assert [e["backoff_s"] for e in entries] == [
            pytest.approx(n, abs=1e-5) for n in naps]

    def test_no_backoff_by_default(self, monkeypatch):
        naps = []
        monkeypatch.setattr(scheduler_module, "_sleep", naps.append)
        plan = FaultPlan(rules=(
            FaultRule(site="scheduler.job", kind="error", times=1),))
        with faults_scope(FaultInjector(plan)):
            result = CampaignScheduler(
                retries=1, job_runner=_stub_runner).run(_jobs(1), name="r")
        assert result.outcomes[0].status == "ok"
        assert naps == []

    def test_exhausted_retries_keep_every_attempt(self):
        plan = FaultPlan(rules=(
            FaultRule(site="scheduler.job", kind="error", times=0),))
        with faults_scope(FaultInjector(plan)):
            result = CampaignScheduler(
                retries=2, job_runner=_stub_runner).run(_jobs(1), name="r")
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert len(outcome.errors) == 3
        assert "injected fault" in outcome.error


class TestTornWrites:
    def test_injected_torn_store_write_never_fails_the_campaign(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        plan = FaultPlan(rules=(
            FaultRule(site="store.append", kind="torn_write", after=1),))
        with faults_scope(FaultInjector(plan)):
            result = CampaignScheduler(
                store=store, job_runner=_stub_runner, resume=False,
            ).run(_jobs(3), name="torn")
        assert result.failed == 0  # sink faults are isolated from outcomes
        # The torn record is lost; the others survive a tolerant read.
        with pytest.warns(RuntimeWarning, match="torn/corrupt"):
            records = store.load()
        assert len(records) == 2
        with pytest.raises(ReproError):
            store.load(strict=True)

    def test_a_failing_cache_refill_never_fails_a_resumed_campaign(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        CampaignScheduler(store=store, job_runner=_stub_runner).run(_jobs(2), name="first")
        plan = FaultPlan(rules=(FaultRule(site="cache.put", kind="error"),))
        with faults_scope(FaultInjector(plan)):
            result = CampaignScheduler(
                store=store, cache=ResultCache(tmp_path / "cache"), job_runner=_stub_runner,
            ).run(_jobs(2), name="resumed")
        assert [o.status for o in result.outcomes] == ["cached", "cached"]

    def test_torn_cache_write_quarantined_on_next_get(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = "ab" + "0" * 62
        plan = FaultPlan(rules=(
            FaultRule(site="cache.put", kind="cache_corrupt"),))
        with faults_scope(FaultInjector(plan)):
            cache.put(digest, {"status": "ok", "big": list(range(50))})
        assert cache.get(digest) is None  # corrupt -> miss
        assert cache.stats.quarantined == 1
        assert cache.path_for(digest).with_name(
            cache.path_for(digest).name + QUARANTINE_SUFFIX).exists()
        # The slot refills cleanly once the fault is gone.
        cache.put(digest, {"status": "ok"})
        assert cache.get(digest) == {"status": "ok"}


class TestFailurePolicies:
    def _failing_plan(self, times=0):
        return FaultPlan(rules=(
            FaultRule(site="scheduler.job", kind="error", times=times,
                      match="alexnet[bs2]"),))

    def test_isolate_records_and_continues(self):
        with faults_scope(FaultInjector(self._failing_plan())):
            result = CampaignScheduler(
                job_runner=_stub_runner, on_failure="isolate",
            ).run(_jobs(3), name="iso")
        assert result.failed == 1
        assert result.executed == 2

    def test_fail_fast_skips_unstarted_jobs(self):
        with faults_scope(FaultInjector(self._failing_plan())):
            result = CampaignScheduler(
                job_runner=_stub_runner, on_failure="fail_fast",
            ).run(_jobs(4), name="ff")
        statuses = [o.status for o in result.outcomes]
        assert statuses[0] == "ok"
        assert statuses[1] == "failed"
        assert statuses[2:] == ["skipped", "skipped"]
        assert all("aborted" in o.error for o in result.outcomes[2:])
        assert result.skipped == 2

    def test_degrade_reruns_without_tools(self, tmp_path):
        calls = []

        def runner(payload):
            calls.append(payload)
            if payload.get("tools"):
                raise RuntimeError("tool exploded")
            return _stub_runner(payload)

        jobs = [ProfileSpec(model="alexnet", iterations=1,
                            tools=("kernel_frequency",))]
        store = ResultStore(tmp_path / "results.jsonl")
        result = CampaignScheduler(
            job_runner=runner, on_failure="degrade",
            store=store, cache=ResultCache(tmp_path / "cache"),
        ).run(jobs, name="deg")
        outcome = result.outcomes[0]
        assert outcome.status == "degraded"
        assert outcome.ok
        assert result.degraded == 1
        assert "tool exploded" in outcome.error
        record = outcome.record
        assert record["status"] == "degraded"
        assert record["degraded_from"]["tools"] == ["kernel_frequency"]
        # The real (tooled) job identity is preserved in the record.
        assert record["job"]["tools"] == ["kernel_frequency"]
        # The fallback really ran without tools.
        assert calls[-1].get("tools") in ((), [], None)
        # Degraded results are stored but never cached under the digest, and
        # never treated as resumable: a rerun tries the real job again.
        assert ResultCache(tmp_path / "cache").get(outcome.digest) is None
        rerun = CampaignScheduler(
            job_runner=_stub_runner, store=store,
        ).run(jobs, name="deg2")
        assert rerun.outcomes[0].status == "ok"

    def test_degrade_keeps_failure_when_fallback_also_fails(self):
        def runner(payload):
            raise RuntimeError("always broken")

        result = CampaignScheduler(
            job_runner=runner, on_failure="degrade",
        ).run(_jobs(1), name="deg3")
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert "degraded fallback also failed" in outcome.error

    def test_degraded_record_keeps_the_attempts_and_counts_no_workload(self):
        def runner(payload):
            if payload.get("tools"):
                raise RuntimeError("tool exploded")
            return _stub_runner(payload)

        jobs = [ProfileSpec(model="alexnet", iterations=1, tools=("kernel_frequency",)),
                ProfileSpec(model="alexnet", batch_size=2, iterations=1)]
        result = CampaignScheduler(
            job_runner=runner, on_failure="degrade", retries=1,
        ).run(jobs, name="deg4")
        assert [o.status for o in result.outcomes] == ["degraded", "ok"]
        record = result.outcomes[0].record
        assert record["attempts"] == result.outcomes[0].attempts == 2
        assert [e["attempt"] for e in record["attempt_errors"]] == [1, 2]
        # A fallback is not the cell's simulation: workloads_recorded still
        # equals executed in simulate mode.
        assert result.workloads_recorded == result.executed == 1

    def test_a_failed_recording_degrades_every_member_of_its_group(self, monkeypatch):
        def broken(payload, trace):
            raise RuntimeError("simulator exploded")

        monkeypatch.setattr(scheduler_module, "record_workload_trace", broken)
        jobs = [ProfileSpec(model="alexnet", iterations=1, tools=(tool,))
                for tool in ("kernel_frequency", "hotness")]
        result = CampaignScheduler(
            job_runner=_stub_runner, on_failure="degrade", execution="replay",
        ).run(jobs, name="deg-group")
        assert [o.status for o in result.outcomes] == ["degraded", "degraded"]
        assert all("workload recording failed" in o.error for o in result.outcomes)
        assert [o.record["job"]["tools"] for o in result.outcomes] == [["kernel_frequency"], ["hotness"]]
        assert result.workloads_recorded == 0

    def test_degrade_fallback_runs_inside_its_tasks_timeout(self):
        release = threading.Event()

        def runner(payload):
            if payload["batch_size"] == 2:
                release.wait(5.0)  # hangs
            elif payload.get("tools"):
                raise RuntimeError("tool exploded")
            else:
                release.wait(3.0)  # the slow fallback
            return _stub_runner(payload)

        jobs = [ProfileSpec(model="alexnet", iterations=1, tools=("kernel_frequency",)),
                ProfileSpec(model="alexnet", batch_size=2, iterations=1)]
        try:
            result = CampaignScheduler(
                jobs=2, timeout_s=1.0, job_runner=runner, on_failure="degrade",
            ).run(jobs, name="deg-timeout")
        finally:
            release.set()
        assert [o.status for o in result.outcomes] == ["timeout", "timeout"]
        assert all(o.duration_s < 2.0 for o in result.outcomes)
        assert result.duration_s < 2.0


class TestSerialExecutor:
    def test_a_timeout_keeps_the_serial_executor_one_job_wide(self):
        lock = threading.Lock()
        running, peak = [0], [0]

        def runner(payload):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.05)
            with lock:
                running[0] -= 1
            return _stub_runner(payload)

        result = CampaignScheduler(
            executor="serial", jobs=4, timeout_s=60.0, job_runner=runner,
        ).run(_jobs(4), name="serial")
        assert result.executed == 4
        assert peak[0] == 1


class TestRunnerFaultSite:
    def test_runner_execute_site_fires_in_real_execution(self):
        plan = FaultPlan(rules=(
            FaultRule(site="runner.execute", kind="error"),))
        with faults_scope(FaultInjector(plan)):
            result = CampaignScheduler(retries=1).run(_jobs(1), name="real")
        # First attempt hits the injected fault, the retry succeeds.
        outcome = result.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert "injected fault at runner.execute" in str(outcome.errors[0]["error"])
