"""Tests for live campaign progress streaming (:mod:`repro.campaign.progress`)
and the ``pasta campaign watch`` consumer."""

from __future__ import annotations

import json

import pytest

from repro.api import ProfileSpec, execute
from repro.api.spec import ParallelismSpec
from repro.campaign.cache import ResultCache
from repro.campaign.progress import (
    NULL_PROGRESS,
    ProgressWriter,
    activate_progress,
    active_progress,
    deactivate_progress,
    progress_scope,
    read_status,
    render_status,
    snapshot_status,
    status_path,
)
from repro.campaign.scheduler import CampaignScheduler
from repro.commands import main
from repro.errors import ReproError
from repro.obs import deactivate, reset_logging


@pytest.fixture(autouse=True)
def _clean_progress_state():
    """Keep process-global telemetry and progress state test-hermetic."""
    deactivate()
    deactivate_progress()
    reset_logging()
    yield
    deactivate()
    deactivate_progress()
    reset_logging()


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


def _events(records, kind):
    return [r for r in records if r["type"] == kind]


def _job_events(records, index):
    return [r["event"] for r in _events(records, "job") if r["index"] == index]


# ---------------------------------------------------------------------- #
# writer + active bus
# ---------------------------------------------------------------------- #
class TestProgressWriter:
    def test_status_path_resolution(self, tmp_path):
        assert status_path(tmp_path) == tmp_path / "status.jsonl"
        assert status_path(tmp_path / "other.jsonl") == tmp_path / "other.jsonl"

    def test_emit_appends_flushed_typed_records(self, tmp_path):
        writer = ProgressWriter(tmp_path)
        writer.emit("campaign", event="start", total=3)
        # Flush-per-write: readable immediately, without close().
        records = read_status(tmp_path)
        assert records == [{"type": "campaign", "v": 1, "event": "start", "total": 3,
                            "ts_unix": records[0]["ts_unix"]}]
        writer.emit("job", event="queued", index=0)
        assert writer.records_written == 2
        assert len(read_status(tmp_path)) == 2
        writer.close()

    def test_emit_after_close_is_silent(self, tmp_path):
        writer = ProgressWriter(tmp_path)
        writer.close()
        writer.emit("job", event="queued", index=0)
        assert writer.records_written == 0

    def test_context_manager_closes(self, tmp_path):
        with ProgressWriter(tmp_path) as writer:
            writer.emit("campaign", event="start")
        assert writer.closed

    def test_read_status_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no status file"):
            read_status(tmp_path)

    def test_active_bus_default_and_scope(self, tmp_path):
        assert active_progress() is NULL_PROGRESS
        writer = ProgressWriter(tmp_path)
        with progress_scope(writer) as scoped:
            assert active_progress() is scoped is writer
        assert active_progress() is NULL_PROGRESS
        assert writer.closed  # the scope closed it

    def test_activate_deactivate(self, tmp_path):
        writer = ProgressWriter(tmp_path)
        assert activate_progress(writer) is writer
        assert active_progress() is writer
        deactivate_progress()
        assert active_progress() is NULL_PROGRESS
        writer.close()

    def test_null_progress_is_inert(self):
        NULL_PROGRESS.emit("job", event="queued")
        NULL_PROGRESS.close()
        assert NULL_PROGRESS.enabled is False


# ---------------------------------------------------------------------- #
# snapshot + render
# ---------------------------------------------------------------------- #
def _stream(*records, start=1_000.0):
    out = []
    for offset, record in enumerate(records):
        out.append({"ts_unix": start + offset, **record})
    return out


class TestSnapshot:
    def test_live_campaign_counts_and_eta(self):
        records = _stream(
            {"type": "campaign", "event": "start", "campaign": "sweep",
             "execution": "simulate", "total": 4, "slots": 2},
            {"type": "job", "event": "queued", "index": 0, "job": "a"},
            {"type": "job", "event": "queued", "index": 1, "job": "b"},
            {"type": "job", "event": "queued", "index": 2, "job": "c"},
            {"type": "job", "event": "queued", "index": 3, "job": "d"},
            {"type": "job", "event": "started", "index": 0, "job": "a"},
            {"type": "job", "event": "started", "index": 1, "job": "b"},
            {"type": "job", "event": "finished", "index": 0, "job": "a",
             "status": "ok", "cache_hit": False, "duration_s": 1.0},
            {"type": "job", "event": "finished", "index": 1, "job": "b",
             "status": "ok", "cache_hit": True, "duration_s": 0.0},
        )
        snapshot = snapshot_status(records, now_unix=1_010.0)
        assert snapshot["campaign"] == "sweep"
        assert snapshot["total"] == 4
        assert snapshot["finished"] == 2
        assert snapshot["queued"] == 2
        assert snapshot["running"] == 0
        assert snapshot["remaining"] == 2
        assert snapshot["by_status"] == {"ok": 2}
        assert snapshot["cache_hits"] == 1
        assert snapshot["cache_misses"] == 1
        assert snapshot["ended"] is False
        # 2 finished over 10s of wall clock => 5s/job => ETA 10s for 2 left.
        assert snapshot["elapsed_s"] == pytest.approx(10.0)
        assert snapshot["throughput_jobs_s"] == pytest.approx(0.2)
        assert snapshot["eta_s"] == pytest.approx(10.0)

    def test_ended_campaign_uses_its_own_clock(self):
        records = _stream(
            {"type": "campaign", "event": "start", "campaign": "sweep",
             "execution": "simulate", "total": 1, "slots": 1},
            {"type": "job", "event": "queued", "index": 0, "job": "a"},
            {"type": "job", "event": "started", "index": 0, "job": "a"},
            {"type": "job", "event": "finished", "index": 0, "job": "a",
             "status": "ok", "cache_hit": False, "duration_s": 1.0},
            {"type": "campaign", "event": "end", "campaign": "sweep"},
        )
        # now_unix far in the future must not dilute a finished campaign.
        snapshot = snapshot_status(records, now_unix=9_999.0)
        assert snapshot["ended"] is True
        assert snapshot["elapsed_s"] == pytest.approx(4.0)
        assert snapshot["eta_s"] == 0.0
        assert snapshot["remaining"] == 0
        assert "campaign finished" in render_status(snapshot)

    def test_retries_and_running_states(self):
        records = _stream(
            {"type": "campaign", "event": "start", "campaign": "s",
             "execution": "simulate", "total": 2, "slots": 1},
            {"type": "job", "event": "queued", "index": 0, "job": "a"},
            {"type": "job", "event": "started", "index": 0, "job": "a"},
            {"type": "job", "event": "retried", "index": 0, "job": "a",
             "attempt": 1, "error": "RuntimeError: transient"},
        )
        snapshot = snapshot_status(records, now_unix=1_010.0)
        assert snapshot["running"] == 1
        assert snapshot["retried"] == 1
        assert snapshot["finished"] == 0

    def test_rank_progress_latest_wins(self):
        records = _stream(
            {"type": "campaign", "event": "start", "campaign": "s",
             "execution": "simulate", "total": 1, "slots": 1},
            {"type": "rank", "event": "progress", "job": "j", "rank": 0,
             "iteration": 1, "iterations": 3},
            {"type": "rank", "event": "progress", "job": "j", "rank": 1,
             "iteration": 1, "iterations": 3},
            {"type": "rank", "event": "progress", "job": "j", "rank": 0,
             "iteration": 2, "iterations": 3},
        )
        snapshot = snapshot_status(records, now_unix=1_010.0)
        assert snapshot["ranks"] == {"j": {
            "rank0": {"iteration": 2, "iterations": 3},
            "rank1": {"iteration": 1, "iterations": 3},
        }}
        assert "ranks[j]: rank0 2/3, rank1 1/3" in render_status(snapshot)

    def test_snapshot_is_json_native(self):
        snapshot = snapshot_status(_stream(
            {"type": "campaign", "event": "start", "campaign": "s",
             "execution": "simulate", "total": 0, "slots": 1},
            {"type": "campaign", "event": "end", "campaign": "s"},
        ))
        assert json.loads(json.dumps(snapshot, sort_keys=True)) == snapshot


# ---------------------------------------------------------------------- #
# scheduler integration: the full lifecycle stream
# ---------------------------------------------------------------------- #
class TestSchedulerStream:
    def test_every_job_transition_with_cache_attribution(self, tmp_path):
        # Acceptance gate: a >= 6-job campaign leaves a status stream with
        # every lifecycle transition, cache misses attributed on the first
        # pass and cache hits on the second.
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs("a", "b", "c", "d", "e", "f")
        with progress_scope(ProgressWriter(tmp_path / "s1")):
            CampaignScheduler(jobs=2, cache=cache,
                              job_runner=_stub_runner).run(jobs, name="first")
        records = read_status(tmp_path / "s1")
        assert [r["event"] for r in _events(records, "campaign")] == [
            "start", "end"]
        start = _events(records, "campaign")[0]
        assert start["campaign"] == "first"
        assert start["total"] == 6 and start["slots"] == 2
        for index in range(6):
            assert _job_events(records, index) == [
                "queued", "started", "finished"]
        finished = [r for r in _events(records, "job")
                    if r["event"] == "finished"]
        assert all(r["cache_hit"] is False for r in finished)
        assert all(r["status"] == "ok" for r in finished)
        assert all(len(r["digest"]) == 12 for r in _events(records, "job"))

        # Second pass over the same cache: jobs never start, they finish
        # straight from the cache with cache_hit attribution.
        with progress_scope(ProgressWriter(tmp_path / "s2")):
            CampaignScheduler(jobs=2, cache=cache,
                              job_runner=_stub_runner).run(jobs, name="second")
        records = read_status(tmp_path / "s2")
        for index in range(6):
            assert _job_events(records, index) == ["queued", "finished"]
        finished = [r for r in _events(records, "job")
                    if r["event"] == "finished"]
        assert all(r["cache_hit"] is True for r in finished)
        snapshot = snapshot_status(records)
        assert snapshot["cache_hits"] == 6 and snapshot["cache_misses"] == 0

    def test_failed_job_finishes_with_error(self, tmp_path):
        with progress_scope(ProgressWriter(tmp_path)):
            CampaignScheduler(jobs=1, executor="serial",
                              job_runner=_stub_runner).run(
                _jobs("a", "explodes"), name="fails")
        records = read_status(tmp_path)
        failed = next(r for r in _events(records, "job")
                      if r["event"] == "finished" and r["status"] == "failed")
        assert "boom" in failed["error"]
        assert snapshot_status(records)["by_status"] == {"failed": 1, "ok": 1}

    def test_retried_events_carry_attempt_errors(self, tmp_path):
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return _stub_runner(payload)

        with progress_scope(ProgressWriter(tmp_path)):
            CampaignScheduler(jobs=1, executor="serial", retries=2,
                              job_runner=flaky).run(_jobs("a"), name="retry")
        records = read_status(tmp_path)
        retried = [r for r in _events(records, "job") if r["event"] == "retried"]
        assert [r["attempt"] for r in retried] == [1, 2]
        assert all("transient" in r["error"] for r in retried)
        finished = next(r for r in _events(records, "job")
                        if r["event"] == "finished")
        assert finished["attempts"] == 3 and finished["status"] == "ok"
        assert snapshot_status(records)["retried"] == 2

    def test_explicit_writer_beats_active_bus(self, tmp_path):
        writer = ProgressWriter(tmp_path / "explicit")
        CampaignScheduler(jobs=1, executor="serial", job_runner=_stub_runner,
                          progress=writer).run(_jobs("a"), name="direct")
        writer.close()
        assert len(read_status(tmp_path / "explicit")) >= 4
        assert not status_path(tmp_path).exists()

    def test_no_bus_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        CampaignScheduler(jobs=1, executor="serial",
                          job_runner=_stub_runner).run(_jobs("a"))
        assert list(tmp_path.rglob("status.jsonl")) == []


# ---------------------------------------------------------------------- #
# per-rank progress from parallel profiles
# ---------------------------------------------------------------------- #
class TestRankProgress:
    def test_parallel_run_streams_one_record_per_rank_per_iteration(
            self, tmp_path):
        spec = ProfileSpec(
            model="megatron_gpt2_345m", tools=("kernel_frequency",),
            mode="train", iterations=3,
            parallelism=ParallelismSpec(strategy="tp", world_size=2))
        with progress_scope(ProgressWriter(tmp_path)):
            execute(spec)
        rank_records = _events(read_status(tmp_path), "rank")
        assert len(rank_records) == 6  # 3 iterations x 2 ranks
        assert {r["rank"] for r in rank_records} == {0, 1}
        assert {r["strategy"] for r in rank_records} == {"tp"}
        last = [r for r in rank_records if r["iteration"] == 3]
        assert {r["rank"] for r in last} == {0, 1}
        assert all(r["iterations"] == 3 for r in rank_records)

    def test_no_bus_means_no_hook_overhead(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = ProfileSpec(
            model="megatron_gpt2_345m", tools=("kernel_frequency",),
            mode="train", iterations=1,
            parallelism=ParallelismSpec(strategy="dp", world_size=2))
        execute(spec)
        assert list(tmp_path.rglob("status.jsonl")) == []


# ---------------------------------------------------------------------- #
# CLI: campaign run --status + campaign watch
# ---------------------------------------------------------------------- #
def _spec_file(tmp_path, models=("alexnet", "resnet18", "bert"),
               devices=("rtx3060", "a100")):
    spec = {"name": "watched", "models": list(models),
            "devices": list(devices), "tools": ["kernel_frequency"],
            "batch_size": 2}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


class TestWatchCli:
    def test_run_status_then_watch_once(self, tmp_path, capsys):
        # Acceptance gate: a 6-job campaign streams to status.jsonl and
        # `campaign watch` renders its progress.
        spec_path = _spec_file(tmp_path)
        assert main(["campaign", "run", str(spec_path), "--no-cache",
                     "--status", str(tmp_path / "live")]) == 0
        capsys.readouterr()
        records = read_status(tmp_path / "live")
        for index in range(6):
            assert _job_events(records, index) == [
                "queued", "started", "finished"]
        assert main(["campaign", "watch", str(tmp_path / "live"),
                     "--once"]) == 0
        out = capsys.readouterr().out
        assert "campaign watched" in out
        assert "6/6 finished" in out
        assert "campaign finished" in out

    def test_watch_follows_to_completion_and_emits_json(self, tmp_path, capsys):
        spec_path = _spec_file(tmp_path, models=("alexnet",),
                               devices=("rtx3060",))
        assert main(["campaign", "run", str(spec_path), "--no-cache",
                     "--status", str(tmp_path / "live")]) == 0
        capsys.readouterr()
        # The stream already ended, so the follow loop exits on first read.
        assert main(["campaign", "watch", str(tmp_path / "live"),
                     "--interval", "0.01", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["ended"] is True
        assert snapshot["finished"] == snapshot["total"] == 1
        assert snapshot["cache_misses"] == 1

    def test_watch_once_missing_file_errors(self, tmp_path, capsys):
        assert main(["campaign", "watch", str(tmp_path), "--once"]) == 1
        assert "no status file" in capsys.readouterr().err

    def test_watch_timeout_on_unfinished_stream(self, tmp_path, capsys):
        writer = ProgressWriter(tmp_path)
        writer.emit("campaign", event="start", campaign="stuck",
                    execution="simulate", total=2, slots=1)
        writer.emit("job", event="queued", index=0, job="a")
        writer.close()
        assert main(["campaign", "watch", str(tmp_path), "--interval", "0.05",
                     "--timeout", "0.1"]) == 1
        assert "watch timeout" in capsys.readouterr().out
