"""Integration tests: self-telemetry wired through sessions, campaigns, CLI."""

from __future__ import annotations

import json
import pickle

import pytest

import repro
from repro.api import ParallelismSpec, ProfileSpec, execute
from repro.campaign.cache import ResultCache
from repro.campaign.scheduler import CampaignScheduler, JobAttemptsError
from repro.commands import main
from repro.obs import (
    Telemetry,
    activated,
    deactivate,
    read_records,
    reset_logging,
    summarize,
    telemetry_path,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    deactivate()
    reset_logging()
    yield
    deactivate()
    reset_logging()


def _spans(records):
    return [r for r in records if r["type"] == "span"]


# ---------------------------------------------------------------------- #
# profile runs
# ---------------------------------------------------------------------- #
class TestProfileTelemetry:
    def test_fine_grained_run_covers_wall_time(self, tmp_path):
        spec = ProfileSpec(model="alexnet", device="rtx3060", batch_size=2,
                           tools=("kernel_frequency",), fine_grained=True)
        telemetry = Telemetry.open(tmp_path)
        with activated(telemetry):
            with telemetry.span("cli.profile"):
                result = execute(spec)
        records = read_records(tmp_path)
        names = {r["name"] for r in _spans(records)}
        assert {"cli.profile", "profile.setup", "profile.simulate",
                "session.run"} <= names
        summary = summarize(records)
        # Acceptance gate: the span tree accounts for >= 95% of wall time.
        assert summary["coverage"] >= 0.95
        assert summary["errors"] == 0
        # The session span sampled the pipeline's counters.
        session_span = next(r for r in _spans(records) if r["name"] == "session.run")
        # One device, one session: it stays on the main export lane.
        assert "rank" not in session_span["attrs"]
        counters = session_span["counters"]
        assert counters["events_processed"] > 0
        assert counters["batches_dispatched"] > 0
        assert counters["alloc.allocations"] > 0
        assert "alloc.free_list_depth" in counters
        assert any(k.startswith("hook_ns.") for k in counters)
        # Provenance carries the spec digest.
        assert summary["provenance"]["spec_digest"] == spec.digest(repro.__version__)
        assert result.summary.as_dict()["kernel_launches"] > 0

    def test_parallel_run_covers_wall_time(self, tmp_path):
        # A parallel profile is a world of ranks run through the same
        # setup/simulate span pair as a single device, so its setup (device
        # set, runner, per-rank sessions) is inside the span tree too.
        spec = ProfileSpec(model="megatron_gpt2_345m", mode="train", batch_size=2,
                           tools=("kernel_frequency",),
                           parallelism=ParallelismSpec("tp", world_size=2))
        telemetry = Telemetry.open(tmp_path)
        with activated(telemetry):
            with telemetry.span("cli.profile"):
                execute(spec)
        records = read_records(tmp_path)
        names = {r["name"] for r in _spans(records)}
        assert {"cli.profile", "profile.setup", "profile.simulate",
                "session.run"} <= names
        session_ranks = sorted(
            r["attrs"]["rank"] for r in _spans(records) if r["name"] == "session.run")
        assert session_ranks == [0, 1]
        summary = summarize(records)
        assert summary["coverage"] >= 0.95
        assert summary["errors"] == 0
        assert summary["provenance"]["spec_digest"] == spec.digest(repro.__version__)

    def test_reports_identical_with_telemetry_on_and_off(self, tmp_path):
        spec = ProfileSpec(model="alexnet", device="rtx3060", batch_size=2,
                           tools=("kernel_frequency",))
        plain = execute(spec).reports()
        telemetry = Telemetry.open(tmp_path)
        with activated(telemetry):
            instrumented = execute(spec).reports()
        # Telemetry must not perturb what the profiler reports: the two
        # documents are byte-identical.
        encode = lambda reports: json.dumps(reports, sort_keys=True, default=str)
        assert encode(plain) == encode(instrumented)

    def test_disabled_telemetry_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = ProfileSpec(model="alexnet", device="rtx3060", batch_size=2,
                           tools=("kernel_frequency",))
        execute(spec)
        assert list(tmp_path.rglob("telemetry.jsonl")) == []


# ---------------------------------------------------------------------- #
# campaign runs
# ---------------------------------------------------------------------- #
def _stub_runner(payload):
    if payload["model"] == "explodes":
        raise RuntimeError("boom")
    return {
        "job": payload,
        "status": "ok",
        "summary": {"kernel_launches": 1, "total_kernel_time_ns": 10,
                    "peak_allocated_bytes": 8},
        "reports": {},
    }


def _jobs(*models):
    return [ProfileSpec(model=m, tools=("kernel_frequency",)) for m in models]


class TestCampaignTelemetry:
    def test_job_spans_cache_and_status_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        telemetry = Telemetry.open(tmp_path / "t1")
        with activated(telemetry):
            sched = CampaignScheduler(jobs=2, cache=cache, job_runner=_stub_runner)
            sched.run(_jobs("a", "b", "explodes"), name="first")
        records = read_records(tmp_path / "t1")
        metrics = summarize(records)["metrics"]["counters"]
        assert metrics["campaign.cache_misses"] == 3
        assert metrics["campaign.jobs_ok"] == 2
        assert metrics["campaign.jobs_failed"] == 1
        assert metrics.get("campaign.cache_hits", 0) == 0
        job_spans = [r for r in _spans(records) if r["name"] == "campaign.job"]
        assert len(job_spans) == 3
        assert sorted(s["attrs"]["status"] for s in job_spans) == [
            "failed", "ok", "ok"]
        failed = next(s for s in job_spans if s["attrs"]["status"] == "failed")
        assert failed["status"] == "error"
        assert "boom" in failed["error"]

        # Second run over the same cache: the two successes are cache hits.
        telemetry = Telemetry.open(tmp_path / "t2")
        with activated(telemetry):
            sched = CampaignScheduler(jobs=2, cache=cache, job_runner=_stub_runner)
            sched.run(_jobs("a", "b"), name="second")
        metrics = summarize(read_records(tmp_path / "t2"))["metrics"]["counters"]
        assert metrics["campaign.cache_hits"] == 2
        assert metrics["campaign.jobs_cached"] == 2
        assert "campaign.cache_misses" not in metrics

    def test_retry_counters_and_span_coverage(self, tmp_path):
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return _stub_runner(payload)

        telemetry = Telemetry.open(tmp_path)
        with activated(telemetry):
            sched = CampaignScheduler(jobs=1, executor="serial", retries=2,
                                      job_runner=flaky)
            result = sched.run(_jobs("a", "b", "c"), name="retry")
        assert result.failed == 0
        summary = summarize(read_records(tmp_path))
        # Job "a" succeeded on its third attempt: exactly 2 retries.
        assert summary["metrics"]["counters"]["campaign.retries"] == 2
        retried = [r for r in _spans(read_records(tmp_path))
                   if r["name"] == "campaign.job" and r["counters"]["retried"]]
        assert len(retried) == 1 and retried[0]["counters"]["retried"] == 2

    def test_campaign_run_span_carries_job_status_counts(self, tmp_path):
        telemetry = Telemetry.open(tmp_path)
        with activated(telemetry):
            sched = CampaignScheduler(jobs=1, executor="serial",
                                      job_runner=_stub_runner)
            sched.run(_jobs("a", "explodes"), name="counted")
        run_span = next(r for r in _spans(read_records(tmp_path))
                        if r["name"] == "campaign.run")
        assert run_span["counters"]["jobs_ok"] == 1
        assert run_span["counters"]["jobs_failed"] == 1


# ---------------------------------------------------------------------- #
# retry visibility (satellite): every attempt's error is kept
# ---------------------------------------------------------------------- #
class TestRetryVisibility:
    def test_failed_job_keeps_every_attempts_error(self):
        def always_fails(payload):
            raise RuntimeError(f"attempt failure for {payload['model']}")

        sched = CampaignScheduler(jobs=1, executor="serial", retries=2,
                                  job_runner=always_fails)
        result = sched.run(_jobs("a"), name="attempts")
        (outcome,) = result.failures()
        assert [e["attempt"] for e in outcome.errors] == [1, 2, 3]
        assert all("attempt failure" in e["error"] for e in outcome.errors)
        assert all("RuntimeError" in e["traceback"] for e in outcome.errors)
        # Last attempt's message also remains the headline error, without a
        # JobAttemptsError prefix stutter.
        assert outcome.error.startswith("RuntimeError: attempt failure")
        summary_errors = result.summary()["failures"][0]["errors"]
        assert len(summary_errors) == 3

    def test_success_after_failures_keeps_earlier_errors(self):
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("first try only")
            return _stub_runner(payload)

        sched = CampaignScheduler(jobs=1, executor="serial", retries=1,
                                  job_runner=flaky)
        result = sched.run(_jobs("a"))
        outcome = result.outcomes[0]
        assert outcome.ok
        assert outcome.attempts == 2
        assert [e["attempt"] for e in outcome.errors] == [1]
        assert "ValueError: first try only" in outcome.errors[0]["error"]

    def test_job_attempts_error_survives_pickling(self):
        error = JobAttemptsError([
            {"attempt": 1, "error": "ValueError: a", "traceback": "tb1"},
            {"attempt": 2, "error": "ValueError: b", "traceback": "tb2"},
        ])
        revived = pickle.loads(pickle.dumps(error))
        assert isinstance(revived, JobAttemptsError)
        assert revived.errors == error.errors
        assert str(revived) == "ValueError: b"

    def test_process_pool_keeps_attempt_errors(self):
        sched = CampaignScheduler(jobs=2, executor="process", retries=1)
        result = sched.run(_jobs("no_such_model"), name="pool")
        (outcome,) = result.failures()
        assert len(outcome.errors) == 2
        assert all("no_such_model" in e["error"] for e in outcome.errors)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCli:
    def test_version_flag_everywhere(self, capsys):
        for argv in (["--version"], ["profile", "--version"],
                     ["campaign", "--version"], ["trace", "--version"],
                     ["telemetry", "--version"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 0
            assert f"pasta {repro.__version__}" in capsys.readouterr().out

    def test_profile_with_telemetry_flag(self, tmp_path, capsys):
        # The acceptance scenario: a fine-grained gpt2 run whose span tree
        # accounts for >= 95% of measured wall time.
        code = main(["profile", "gpt2", "--tool", "kernel_frequency",
                     "--fine-grained", "--json",
                     "--telemetry", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["self_overhead"]["telemetry_enabled"] is True
        assert 0.0 <= document["self_overhead"]["overhead_fraction"] <= 1.0
        assert f"telemetry written to {telemetry_path(tmp_path)}" in captured.err
        summary = summarize(read_records(tmp_path))
        assert summary["roots"] == ["cli.profile"]
        assert summary["coverage"] >= 0.95

    def test_no_self_overhead_section_without_telemetry(self, capsys):
        code = main(["profile", "alexnet", "--tool", "kernel_frequency",
                     "--device", "rtx3060", "--batch-size", "2", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert "self_overhead" not in document

    def test_telemetry_env_var_activates(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PASTA_TELEMETRY", str(tmp_path))
        code = main(["profile", "alexnet", "--tool", "kernel_frequency",
                     "--device", "rtx3060", "--batch-size", "2", "--json"])
        assert code == 0
        assert telemetry_path(tmp_path).exists()

    def test_telemetry_summary_top_export(self, tmp_path, capsys):
        assert main(["profile", "alexnet", "--tool", "kernel_frequency",
                     "--device", "rtx3060", "--batch-size", "2", "--json",
                     "--telemetry", str(tmp_path)]) == 0
        capsys.readouterr()

        assert main(["telemetry", "summary", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out and "cli.profile" in out

        assert main(["telemetry", "top", str(tmp_path), "-n", "3"]) == 0
        assert "self" in capsys.readouterr().out

        assert main(["telemetry", "export", str(tmp_path)]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported[0]["type"] == "manifest"

        assert main(["telemetry", "export", str(tmp_path), "--tree"]) == 0
        assert "cli.profile" in capsys.readouterr().out

        assert main(["telemetry", "summary", "--json", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["spans"] >= 4

    def test_telemetry_summary_missing_file_errors(self, tmp_path, capsys):
        assert main(["telemetry", "summary", str(tmp_path / "nope")]) == 1
        assert "no telemetry file" in capsys.readouterr().err

    def test_campaign_run_with_telemetry(self, tmp_path, capsys):
        # The acceptance scenario: a 3-job campaign whose span tree accounts
        # for >= 95% of measured wall time.
        spec = {"name": "mini", "models": ["alexnet", "resnet18", "gpt2"],
                "devices": ["rtx3060"], "tools": ["kernel_frequency"],
                "batch_size": 2}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["campaign", "run", str(spec_path), "--no-cache",
                     "--telemetry", str(tmp_path / "obs")])
        assert code == 0
        summary = summarize(read_records(tmp_path / "obs"))
        assert summary["roots"] == ["cli.campaign"]
        assert summary["metrics"]["counters"]["campaign.jobs_ok"] == 3
        assert summary["by_name"]["campaign.job"]["count"] == 3
        assert summary["coverage"] >= 0.95

    def test_log_level_flag(self, tmp_path, capsys):
        code = main(["profile", "alexnet", "--tool", "kernel_frequency",
                     "--device", "rtx3060", "--batch-size", "2", "--json",
                     "--telemetry", str(tmp_path), "--log-level", "debug"])
        assert code == 0
        err = capsys.readouterr().err
        assert "span session.run" in err

    def test_bad_log_level_is_usage_error(self, capsys):
        code = main(["profile", "alexnet", "--tool", "kernel_frequency",
                     "--log-level", "shouty"])
        assert code == 2
        assert "shouty" in capsys.readouterr().err
