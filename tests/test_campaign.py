"""Tests for the campaign engine: specs, cache, store, scheduler, CLI."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

import repro
from repro import api
from repro.api import ProfileSpec, execute_payload
from repro.campaign import (
    CampaignScheduler,
    CampaignSpec,
    ResultCache,
    ResultStore,
    diff_records,
    overhead_model_comparison,
    render_table,
    rollup,
)
from repro.core.serialization import (
    content_digest,
    json_roundtrip,
    json_sanitize,
    stable_json_dumps,
)
from repro.errors import ReproError


def campaign_main(argv):
    """Run the `pasta campaign` subcommand of the umbrella CLI."""
    from repro.commands import main

    return main(["campaign", *argv])


# ---------------------------------------------------------------------- #
# serialization helpers
# ---------------------------------------------------------------------- #
class TestJsonSanitize:
    def test_enums_tuples_and_sets_become_native(self):
        from repro.gpusim.device import Vendor

        value = {
            "vendor": Vendor.NVIDIA,
            ("a", 1): (1, 2, 3),
            "nested": {"s": {3, 1, 2}},
        }
        out = json_sanitize(value)
        assert out == {"vendor": "nvidia", "a,1": [1, 2, 3], "nested": {"s": [1, 2, 3]}}
        assert json.loads(json.dumps(out)) == out

    def test_numpy_like_scalars_unwrap(self):
        class FakeScalar:
            def item(self):
                return 7

        assert json_sanitize({"x": FakeScalar()}) == {"x": 7}

    @pytest.mark.parametrize(
        "array, expected",
        [
            (np.array([], dtype=np.int64), []),
            (np.array([5], dtype=np.int64), [5]),
            (np.array([True, False]), [True, False]),
            (np.arange(3, dtype=np.int64), [0, 1, 2]),
        ],
        ids=["empty", "length-1", "bool", "int64"],
    )
    def test_numpy_arrays_become_lists_of_native_scalars(self, array, expected):
        report = {"tool": "t", "columns": [array], "by_name": {"column": array}}
        out = json_sanitize(report)
        assert out == {"tool": "t", "columns": [expected], "by_name": {"column": expected}}
        for value in (out["columns"][0], out["by_name"]["column"]):
            assert type(value) is list
            assert [type(item) for item in value] == [type(item) for item in expected]
        assert json.loads(stable_json_dumps(report)) == out

    def test_roundtrip_and_digest_stability(self):
        a = {"b": 1, "a": [1, 2]}
        b = {"a": [1, 2], "b": 1}
        assert json_roundtrip(a) == json_roundtrip(b)
        assert content_digest(a) == content_digest(b)
        assert content_digest(a) != content_digest(a, "other-version")


# ---------------------------------------------------------------------- #
# spec + grid expansion
# ---------------------------------------------------------------------- #
class TestSpecs:
    def test_grid_expansion_product(self):
        spec = CampaignSpec(
            name="grid",
            models=["alexnet", "resnet18", "bert"],
            devices=["a100", "rtx3060"],
            tools=["kernel_frequency", "memory_characteristics"],
        )
        jobs = spec.expand()
        assert len(jobs) == 3 * 2 * 2
        assert {j.model for j in jobs} == {"alexnet", "resnet18", "bert"}
        assert all(len(j.tools) == 1 for j in jobs)

    def test_tool_groups_and_knob_sweep(self):
        spec = CampaignSpec(
            name="axes",
            models=["alexnet"],
            tools=[["kernel_frequency", "memory_timeline"]],
            knob_sweep=[{}, {"start_grid_id": 0, "end_grid_id": 4}],
        )
        jobs = spec.expand()
        assert len(jobs) == 2
        assert jobs[0].tools == ("kernel_frequency", "memory_timeline")
        assert jobs[1].knob_dict == {"start_grid_id": 0, "end_grid_id": 4}

    def test_json_round_trip(self, tmp_path):
        spec = CampaignSpec(
            name="rt",
            models=["alexnet"],
            devices=["a100", "mi300x"],
            tools=["hotness"],
            analysis_models=["gpu_resident", "cpu_side"],
            batch_size=2,
            extra_jobs=[ProfileSpec(model="bert", tools=("kernel_frequency",))],
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = CampaignSpec.load(path)
        assert [j.to_dict() for j in loaded.expand()] == [j.to_dict() for j in spec.expand()]

    def test_invalid_specs_raise(self):
        with pytest.raises(ReproError):
            CampaignSpec(name="", models=["alexnet"])
        with pytest.raises(ReproError):
            CampaignSpec(name="x", models=[])
        with pytest.raises(ReproError):
            CampaignSpec(name="x", models=["alexnet"], modes=["predict"])
        with pytest.raises(ReproError):
            ProfileSpec(model="alexnet", mode="nope")
        with pytest.raises(ReproError):
            ProfileSpec(model="alexnet", knobs={"k": [1, 2]})  # type: ignore[dict-item]
        with pytest.raises(ReproError):
            CampaignSpec.from_dict({"name": "x", "models": ["a"], "wat": 1})
        with pytest.raises(ReproError, match="devices"):
            CampaignSpec(name="x", models=["alexnet"], devices=[])
        with pytest.raises(ReproError, match="modes"):
            CampaignSpec(name="x", models=["alexnet"], modes=[])

    def test_digest_is_stable_and_version_salted(self):
        a = ProfileSpec(model="alexnet", knobs={"b": 1, "a": 2})
        b = ProfileSpec(model="alexnet", knobs={"a": 2, "b": 1})
        assert a == b
        assert a.digest("1.0.0") == b.digest("1.0.0")
        assert a.digest("1.0.0") != a.digest("1.0.1")
        assert a.digest("1.0.0") != ProfileSpec(model="resnet18").digest("1.0.0")


# ---------------------------------------------------------------------- #
# store + cache
# ---------------------------------------------------------------------- #
class TestStore:
    def test_jsonl_round_trip_and_query(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append({"digest": "d1", "status": "ok", "job": {"model": "alexnet", "device": "a100"}})
        store.append({"digest": "d2", "status": "failed", "job": {"model": "bert", "device": "a100"}})
        store.append({"digest": "d1", "status": "ok", "job": {"model": "alexnet", "device": "a100"}, "n": 2})
        assert len(store) == 3
        assert store.load()[0]["job"]["model"] == "alexnet"
        assert [r["job"]["model"] for r in store.query(status="ok")] == ["alexnet", "alexnet"]
        assert store.query(device="a100", model="bert")[0]["status"] == "failed"
        latest = store.latest_by_digest()
        assert set(latest) == {"d1", "d2"}
        assert latest["d1"]["n"] == 2

    def test_corrupt_line_warns_and_skips_by_default(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"ok": 1}\nnot json\n{"ok": 2}\n')
        with pytest.warns(RuntimeWarning, match="r.jsonl:2"):
            records = ResultStore(path).load()
        assert [r["ok"] for r in records] == [1, 2]

    def test_corrupt_line_raises_with_location_in_strict_mode(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ReproError, match="r.jsonl:2"):
            ResultStore(path).load(strict=True)

    def test_torn_trailing_line_tolerated(self, tmp_path):
        # A writer killed mid-append leaves half a record and no newline.
        path = tmp_path / "r.jsonl"
        path.write_text('{"ok": 1}\n{"ok": 2')
        with pytest.warns(RuntimeWarning, match="torn/corrupt"):
            records = ResultStore(path).load()
        assert [r["ok"] for r in records] == [1]

    def test_append_heals_newline_boundary_after_tear(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"ok": 1}\n{"torn": ')
        store = ResultStore(path)
        store.append({"ok": 3})
        with pytest.warns(RuntimeWarning):
            records = store.load()
        # The tear costs exactly one record; post-crash appends survive.
        assert [r.get("ok") for r in records] == [1, 3]
        assert path.read_text().endswith("\n")


class TestCache:
    def test_put_get_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = "ab" + "0" * 62
        assert cache.get(digest) is None
        cache.put(digest, {"status": "ok"})
        assert cache.contains(digest)
        assert cache.get(digest) == {"status": "ok"}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get(digest) is None

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = "cd" + "0" * 62
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_text("{broken")
        assert cache.get(digest) is None
        # The corrupt entry was moved aside, not left to fail every read.
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert cache.stats.quarantined == 1
        assert cache.stats.as_dict()["quarantined"] == 1
        # The slot refills cleanly.
        cache.put(digest, {"status": "ok"})
        assert cache.get(digest) == {"status": "ok"}

    def test_clear_sweeps_quarantined_tombstones(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = "ef" + "0" * 62
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_text("not json")
        assert cache.get(digest) is None
        # The tombstone is not a cached result: clear() counts 0 removed
        # entries but still sweeps it.
        assert cache.clear() == 0
        assert list((tmp_path / "cache").glob("*/*")) == []

    def test_evict_tolerates_losing_the_unlink_race(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = "12" + "0" * 62
        cache.put(digest, {"status": "ok"})
        assert cache.evict(digest) is True
        # A second evict (another scheduler got there first) is a calm False.
        assert cache.evict(digest) is False

    def test_clear_counts_only_what_this_call_removed(self, tmp_path):
        cache_a = ResultCache(tmp_path / "cache")
        cache_b = ResultCache(tmp_path / "cache")
        digests = [f"{i:02x}" + "0" * 62 for i in range(4)]
        for digest in digests:
            cache_a.put(digest, {"status": "ok"})
        # Another scheduler evicts two entries between walk and unlink.
        cache_b.evict(digests[0])
        cache_b.evict(digests[1])
        assert cache_a.clear() == 2
        assert cache_a.clear() == 0

    def test_concurrent_clears_never_raise_and_split_the_count(self, tmp_path):
        import threading as _threading

        cache = ResultCache(tmp_path / "cache")
        digests = [f"{i:02x}" + "0" * 62 for i in range(32)]
        for digest in digests:
            cache.put(digest, {"status": "ok"})
        counts = []
        workers = [
            _threading.Thread(
                target=lambda: counts.append(ResultCache(tmp_path / "cache").clear())
            )
            for _ in range(4)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        # Every entry was removed exactly once across the racing clears.
        assert sum(counts) == len(digests)
        assert len(cache) == 0

    def test_fsync_put_still_roundtrips(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fsync=True)
        digest = "34" + "0" * 62
        cache.put(digest, {"status": "ok", "n": 1})
        assert cache.get(digest) == {"status": "ok", "n": 1}


# ---------------------------------------------------------------------- #
# scheduler (stubbed runner: no simulation)
# ---------------------------------------------------------------------- #
def _stub_runner(payload):
    if payload["model"] == "explodes":
        raise RuntimeError("boom")
    return {
        "job": payload,
        "status": "ok",
        "summary": {"kernel_launches": 10, "total_kernel_time_ns": 1000,
                    "peak_allocated_bytes": 64},
        "reports": {"overhead": {"normalized_overhead": 2.0, "total_ns": 3000}},
    }


class TestScheduler:
    def _jobs(self, *models):
        return [ProfileSpec(model=m, tools=("kernel_frequency",)) for m in models]

    def test_failure_isolation_in_parallel_pool(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        sched = CampaignScheduler(jobs=4, job_runner=_stub_runner, store=store)
        result = sched.run(self._jobs("a", "explodes", "b", "c"), name="iso")
        assert result.total == 4
        assert result.executed == 3
        assert result.failed == 1
        failure = result.failures()[0]
        assert failure.job.model == "explodes"
        assert "boom" in failure.error
        stored = store.load()
        assert len(stored) == 4
        assert sum(1 for r in stored if r["status"] == "failed") == 1

    def test_retries_eventually_succeed(self):
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return _stub_runner(payload)

        sched = CampaignScheduler(jobs=1, executor="serial", retries=2, job_runner=flaky)
        result = sched.run(self._jobs("a"))
        assert result.executed == 1 and result.failed == 0
        assert calls["n"] == 3
        assert result.outcomes[0].record["attempts"] == 3

    def test_timeout_is_recorded_not_fatal(self):
        release = threading.Event()

        def slow(payload):
            if payload["model"] == "slow":
                release.wait(2.0)
            return _stub_runner(payload)

        sched = CampaignScheduler(jobs=2, timeout_s=0.2, job_runner=slow)
        result = sched.run(self._jobs("fast", "slow"), name="to")
        release.set()
        by_model = {o.job.model: o for o in result.outcomes}
        assert by_model["fast"].status == "ok"
        assert by_model["slow"].status == "timeout"
        assert "timeout" in by_model["slow"].error

    def test_cache_short_circuits_second_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        counter = {"n": 0}

        def counting(payload):
            counter["n"] += 1
            return _stub_runner(payload)

        sched = CampaignScheduler(jobs=2, cache=cache, job_runner=counting)
        jobs = self._jobs("a", "b", "c")
        first = sched.run(jobs)
        assert (first.executed, first.cached) == (3, 0)
        assert counter["n"] == 3
        second = sched.run(jobs)
        assert (second.executed, second.cached) == (0, 3)
        assert counter["n"] == 3  # nothing re-simulated
        assert all(o.record["job"]["model"] in "abc" for o in second.outcomes)

    def test_timeout_enforced_even_with_one_job_slot(self):
        release = threading.Event()

        def slow(payload):
            release.wait(2.0)
            return _stub_runner(payload)

        # jobs=1 (the CLI default) must still honour the timeout budget.
        sched = CampaignScheduler(jobs=1, timeout_s=0.1, job_runner=slow)
        result = sched.run(self._jobs("slow"))
        release.set()
        assert result.outcomes[0].status == "timeout"

    def test_queued_jobs_are_not_falsely_timed_out(self):
        def briefly_slow(payload):
            time.sleep(0.15)
            return _stub_runner(payload)

        # 4 jobs through 1 worker, each well under the 1s budget: the queued
        # ones must wait their turn, not inherit the head job's clock.
        sched = CampaignScheduler(jobs=1, executor="thread", timeout_s=1.0,
                                  job_runner=briefly_slow)
        result = sched.run(self._jobs("a", "b", "c", "d"))
        assert [o.status for o in result.outcomes] == ["ok"] * 4

    def test_results_are_persisted_as_jobs_complete(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        seen_counts = []

        def snooping(payload):
            seen_counts.append(len(store.load()))
            return _stub_runner(payload)

        sched = CampaignScheduler(jobs=1, executor="serial", store=store,
                                  job_runner=snooping)
        sched.run(self._jobs("a", "b", "c"))
        # by the time job N runs, jobs 0..N-1 are already on disk
        assert seen_counts == [0, 1, 2]

    def test_process_executor_rejects_custom_runner(self):
        with pytest.raises(ReproError):
            CampaignScheduler(executor="process", job_runner=_stub_runner)
        with pytest.raises(ReproError):
            CampaignScheduler(jobs=0)


# ---------------------------------------------------------------------- #
# real end-to-end campaign (acceptance criteria)
# ---------------------------------------------------------------------- #
class TestEndToEnd:
    def test_grid_runs_parallel_then_hits_cache_100_percent(self, tmp_path):
        spec = CampaignSpec(
            name="accept",
            models=["alexnet", "resnet18", "resnet34"],
            devices=["a100", "rtx3060"],
            tools=["kernel_frequency", "memory_characteristics"],
            batch_size=2,
        )
        assert spec.job_count() == 12
        cache = ResultCache(tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        sched = CampaignScheduler(jobs=4, cache=cache, store=store)

        first = sched.run(spec)
        assert first.total == 12
        assert first.executed == 12 and first.failed == 0 and first.cached == 0
        for record in first.records():
            assert record["status"] == "ok"
            assert record["summary"]["kernel_launches"] > 0
            # every persisted record survives a JSON round trip unchanged
            assert json.loads(json.dumps(record)) == record

        second = sched.run(spec)
        assert second.total == 12
        assert second.executed == 0, "identical spec must re-simulate nothing"
        assert second.cached == 12 and second.failed == 0

        # cached records are byte-identical to the originals
        firsts = {o.digest: o.record for o in first.outcomes}
        for outcome in second.outcomes:
            assert outcome.record == firsts[outcome.digest]

    def test_spec_driven_payload_matches_direct_run(self):
        payload = ProfileSpec(
            model="alexnet", device="rtx3060", tools=("kernel_frequency",),
            batch_size=2, knobs={"start_grid_id": 0, "end_grid_id": 4},
        ).to_dict()
        record = execute_payload(payload)
        assert record["status"] == "ok"
        assert record["reports"]["kernel_frequency"]["total_launches"] == 5
        assert record["job"]["model"] == "alexnet"

    def test_analysis_model_knob_changes_overhead(self):
        gpu = execute_payload(ProfileSpec(model="alexnet", batch_size=2).to_dict())
        cpu = execute_payload(
            ProfileSpec(model="alexnet", batch_size=2, analysis_model="cpu_side").to_dict()
        )
        assert (cpu["reports"]["overhead"]["normalized_overhead"]
                > gpu["reports"]["overhead"]["normalized_overhead"])

    def test_unknown_knob_is_a_clean_error(self):
        with pytest.raises(ReproError, match="unknown knobs"):
            execute_payload(ProfileSpec(model="alexnet", knobs={"warp_speed": 9}).to_dict())
        with pytest.raises(ReproError, match="must be numeric"):
            execute_payload(
                ProfileSpec(model="alexnet", knobs={"collection_ns_per_record": "2.5"}).to_dict()
            )
        with pytest.raises(ReproError, match="integer grid id"):
            execute_payload(
                ProfileSpec(model="alexnet", knobs={"start_grid_id": "zero"}).to_dict()
            )


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
class TestAggregate:
    def _record(self, model, device, time_ns, overhead, analysis_model="gpu_resident"):
        return {
            "status": "ok",
            "digest": content_digest([model, device, analysis_model, time_ns]),
            "job": {"model": model, "device": device, "mode": "inference",
                    "tools": ["kernel_frequency"], "analysis_model": analysis_model},
            "summary": {"kernel_launches": 5, "total_kernel_time_ns": time_ns,
                        "peak_allocated_bytes": 100},
            "reports": {"overhead": {"normalized_overhead": overhead, "total_ns": time_ns * 2}},
        }

    def test_rollup_groups_and_averages(self):
        records = [
            self._record("alexnet", "a100", 100, 2.0),
            self._record("alexnet", "rtx3060", 300, 4.0),
            self._record("bert", "a100", 1000, 3.0),
        ]
        rows = rollup(records, by="model")
        assert [row["model"] for row in rows] == ["alexnet", "bert"]
        alexnet = rows[0]
        assert alexnet["jobs"] == 2
        assert alexnet["total_kernel_time_ns_mean"] == 200
        assert alexnet["normalized_overhead_max"] == 4.0
        with pytest.raises(ReproError):
            rollup(records, by="flavour")
        assert "alexnet" in render_table(rows)

    def test_overhead_model_comparison_ratio(self):
        records = [
            self._record("alexnet", "a100", 100, 2.0, "gpu_resident"),
            self._record("alexnet", "a100", 100, 8.0, "cpu_side"),
        ]
        rows = overhead_model_comparison(records)
        assert rows[0]["device"] == "a100"
        assert rows[0]["cpu_to_gpu_ratio"] == pytest.approx(4.0)

    def test_diff_flags_regressions(self):
        base = [self._record("alexnet", "a100", 100, 2.0)]
        good = [self._record("alexnet", "a100", 100, 2.0)]
        bad = [self._record("alexnet", "a100", 100, 2.6)]
        clean = diff_records(base, good)
        assert clean["matched"] == 1 and clean["regressions"] == 0
        flagged = diff_records(base, bad, threshold=0.1)
        assert flagged["regressions"] == 1
        cell = flagged["rows"][0]["metrics"]["normalized_overhead"]
        assert cell["regressed"] and cell["ratio"] == pytest.approx(1.3)


# ---------------------------------------------------------------------- #
# pasta-campaign CLI
# ---------------------------------------------------------------------- #
class TestCampaignCli:
    @pytest.fixture
    def spec_path(self, tmp_path):
        spec = {
            "name": "cli-sweep",
            "models": ["alexnet", "resnet18"],
            "devices": ["a100"],
            "tools": ["kernel_frequency"],
            "batch_size": 2,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_dry_run_lists_grid(self, spec_path, capsys):
        assert campaign_main(["run", str(spec_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "2 jobs" in out
        assert "alexnet/a100/inference/kernel_frequency" in out

    def test_run_report_diff_clean_cycle(self, spec_path, tmp_path, capsys):
        cache = tmp_path / "cache"
        store = tmp_path / "results.jsonl"
        argv = ["run", str(spec_path), "--jobs", "4",
                "--cache-dir", str(cache), "--store", str(store), "--json"]
        assert campaign_main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["total"] == 2 and summary["executed"] == 2

        # identical rerun: all served from cache
        assert campaign_main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["executed"] == 0 and summary["cached"] == 2

        assert campaign_main(["report", str(store), "--by", "model", "--json"]) == 0
        tables = json.loads(capsys.readouterr().out)
        assert {row["model"] for row in tables["rollup"]} == {"alexnet", "resnet18"}

        assert campaign_main(["diff", str(store), str(store), "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["matched"] == 2 and diff["regressions"] == 0

        assert campaign_main(["clean", "--cache-dir", str(cache)]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_missing_spec_is_clean_error(self, tmp_path, capsys):
        assert campaign_main(["run", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# WorkloadResult conveniences
# ---------------------------------------------------------------------- #
class TestWorkloadResult:
    def test_tool_error_lists_attached_tools(self):
        from repro.tools.kernel_frequency import KernelFrequencyTool

        result = api.run("alexnet", device="rtx3060", batch_size=2,
                              tools=[KernelFrequencyTool()])
        assert result.report("kernel_frequency")["total_launches"] > 0
        with pytest.raises(ReproError) as excinfo:
            result.tool("hotness")
        assert "kernel_frequency" in str(excinfo.value)
        assert "hotness" in str(excinfo.value)

    def test_version_is_the_cache_salt(self):
        job = ProfileSpec(model="alexnet")
        assert job.digest(repro.__version__) == job.digest(repro.__version__)
        assert job.digest(repro.__version__) != job.digest("v-next")
