"""Conformance of :mod:`repro.jsonl` and its four users: the campaign store,
the serve job journal, the progress bus and the telemetry sink.

Each user appends through the one module, so each must show the same crash
behaviour: a torn line costs exactly one record, concurrent appenders never
interleave inside a line, and a fault at the user's site never fails the
campaign or profile the file records.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import pytest

from repro import jsonl
from repro.api import ProfileSpec
from repro.campaign.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    deactivate_faults,
    faults_scope,
)
from repro.campaign.progress import ProgressWriter, deactivate_progress, progress_scope, read_status
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.store import ResultStore
from repro.errors import ReproError
from repro.obs import Telemetry, activated, deactivate, read_records
from repro.obs.sink import JsonlSink
from repro.serve import PastaDaemon, connect
from repro.serve.client import ServeError
from repro.serve.jobs import JobManager

SPEC = {"model": "alexnet", "tools": ["hotness"], "iterations": 1}


@pytest.fixture(autouse=True)
def _hermetic():
    deactivate_faults()
    deactivate()
    deactivate_progress()
    yield
    deactivate_faults()
    deactivate()
    deactivate_progress()


def _stub_runner(payload):
    return {"job": dict(payload), "status": "ok",
            "summary": {"total_time_ms": 1.0}, "reports": []}


def _jobs(n=3):
    return [ProfileSpec(model="alexnet", batch_size=b, iterations=1)
            for b in range(1, n + 1)]


def _torn_once(site: str, after: int = 0) -> FaultInjector:
    return FaultInjector(FaultPlan(rules=(
        FaultRule(site=site, kind="torn_write", after=after),)))


def _read_quietly(read: Callable[[], list]) -> list:
    """``read()``, failing on any torn/corrupt-line warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return read()


def _wait_for(predicate, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


# ---------------------------------------------------------------------- #
# the four users
# ---------------------------------------------------------------------- #
@dataclass
class User:
    """One JSONL user: its fault site, writer and reader."""

    site: str
    write: Callable[[dict], None]
    read: Callable[[], list]
    #: The best-effort writer whose counters to check (None: appends raise).
    writer: Optional[jsonl.BestEffortWriter] = None
    #: Records the user writes on its own before any test record.
    preamble: int = 0


@pytest.fixture(params=["store", "journal", "progress", "telemetry"])
def user(request, tmp_path):
    if request.param == "store":
        store = ResultStore(tmp_path / "results.jsonl")
        yield User("store.append", store.append, store.load)
    elif request.param == "journal":
        manager = JobManager(tmp_path / "serve", workers=1)
        try:
            yield User("store.append", manager.journal.append, manager.journal.load)
        finally:
            manager.close()
    elif request.param == "progress":
        bus = ProgressWriter(tmp_path / "status")
        yield User("progress.write", bus.write,
                   lambda: read_status(tmp_path / "status"), writer=bus)
        bus.close()
    else:
        sink = JsonlSink(tmp_path / "obs" / "telemetry.jsonl")
        yield User("telemetry.write", sink.write,
                   lambda: read_records(tmp_path / "obs"), writer=sink, preamble=1)
        sink.close()


class TestConformance:
    def test_a_torn_line_costs_exactly_one_record(self, user):
        user.write({"n": 1})
        with faults_scope(_torn_once(user.site)):
            if user.writer is None:
                with pytest.raises(ReproError, match="torn write"):
                    user.write({"n": 2})
            else:
                user.write({"n": 2})  # best effort: counted, not raised
                assert user.writer.write_errors == 1
        user.write({"n": 3})  # heals: starts on a fresh line
        with pytest.warns(RuntimeWarning, match="torn/corrupt") as caught:
            records = user.read()
        assert len(caught) == 1
        assert [r["n"] for r in records[user.preamble:]] == [1, 3]

    def test_two_threads_append_whole_lines(self, user):
        barrier = threading.Barrier(2)

        def append_many(thread):
            barrier.wait(timeout=30)
            for i in range(500):
                user.write({"thread": thread, "i": i})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append_many, args=(t,)) for t in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        records = _read_quietly(user.read)[user.preamble:]
        assert sorted((r["thread"], r["i"]) for r in records) == [
            (t, i) for t in range(2) for i in range(500)]
        if user.writer is not None:
            assert user.writer.records_written == 1000 + user.preamble
            assert user.writer.write_errors == 0


def _append_from_process(path: Path, worker: int, barrier) -> None:
    store = ResultStore(path)
    # 14 KB: the size of a world-size-4 fine-grained six-tool record, well
    # past the 8 KiB at which a buffered text writer splits its write().
    pad = "x" * 14_000
    barrier.wait(timeout=60)
    for i in range(200):
        store.append({"digest": f"{worker}-{i}", "pad": pad})


def test_three_processes_appending_14kb_records_lose_nothing(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    path = tmp_path / "results.jsonl"
    barrier = ctx.Barrier(3)
    workers = [ctx.Process(target=_append_from_process, args=(path, w, barrier))
               for w in range(3)]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        assert [worker.exitcode for worker in workers] == [0, 0, 0]
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.kill()
    records = ResultStore(path).load(strict=True)
    assert sorted(r["digest"] for r in records) == sorted(
        f"{w}-{i}" for w in range(3) for i in range(200))


@pytest.mark.parametrize("bad_line", ["not json", "[2]", '{"torn": '])
def test_strict_read_names_path_and_line(tmp_path, bad_line):
    path = tmp_path / "r.jsonl"
    path.write_text('{"ok": 1}\n' + bad_line + '\n{"ok": 3}\n')
    with pytest.raises(ReproError, match=r"r\.jsonl:2"):
        list(jsonl.read(path, strict=True))
    with pytest.warns(RuntimeWarning, match=r"r\.jsonl:2"):
        assert [r["ok"] for r in jsonl.read(path)] == [1, 3]


def test_a_record_jsonl_cannot_encode_is_a_counted_write_error(tmp_path):
    sink = JsonlSink(tmp_path / "telemetry.jsonl")
    sink.write({"type": "metrics", "value": float("nan")})
    sink.close()
    assert (sink.records_written, sink.write_errors) == (1, 1)
    assert [r["type"] for r in _read_quietly(lambda: read_records(tmp_path))] == ["manifest"]


# ---------------------------------------------------------------------- #
# a fault at every site leaves the run intact
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("site", ["store.append", "progress.write", "telemetry.write"])
def test_one_torn_write_at_each_site_never_fails_the_campaign(tmp_path, site):
    store = ResultStore(tmp_path / "results.jsonl")
    telemetry = Telemetry.open(tmp_path / "obs")
    with faults_scope(_torn_once(site, after=1)), activated(telemetry), \
            progress_scope(ProgressWriter(tmp_path / "status")):
        result = CampaignScheduler(
            store=store, job_runner=_stub_runner, resume=False,
        ).run(_jobs(3), name="torn")
    assert result.failed == 0
    readers = {
        "store.append": store.load,
        "progress.write": lambda: read_status(tmp_path / "status"),
        "telemetry.write": lambda: read_records(tmp_path / "obs"),
    }
    for reader_site, read in readers.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert read()
        assert len(caught) == (1 if reader_site == site else 0), reader_site


def test_an_unlimited_fault_at_telemetry_write_terminates(tmp_path):
    # Every telemetry write tears, and announcing each injected fault is
    # itself a telemetry write: that must not fire the rule again.
    plan = FaultPlan(rules=(
        FaultRule(site="telemetry.write", kind="torn_write", times=0),
        FaultRule(site="scheduler.job", kind="error"),
    ))
    with faults_scope(FaultInjector(plan)):
        telemetry = Telemetry.open(tmp_path / "obs")
        with activated(telemetry):
            result = CampaignScheduler(
                job_runner=_stub_runner, retries=1,
            ).run(_jobs(2), name="unlimited")
    assert result.failed == 0
    assert telemetry.sink.records_written == 0
    assert telemetry.sink.write_errors > 0


# ---------------------------------------------------------------------- #
# the serve journal
# ---------------------------------------------------------------------- #
def test_a_failed_journal_append_at_submit_leaves_no_job(tmp_path):
    data = tmp_path / "serve"
    with PastaDaemon(data, workers=1, quota_inflight=1) as daemon, connect(daemon.url) as client:
        with faults_scope(_torn_once("store.append")):
            with pytest.raises(ServeError) as failure:
                client.submit(SPEC)
        assert failure.value.code == 503  # the daemon failed, not the spec
        assert daemon.manager.jobs() == []
        # Nothing zombie holds the in-flight quota: the next submit runs.
        handle = client.submit({**SPEC, "iterations": 2})
        handle.result(timeout=120)
        _wait_for(lambda: daemon.manager.get(handle.id).terminal)
    # A restart restores only the job whose journal records are intact.
    with pytest.warns(RuntimeWarning, match="torn/corrupt"):
        reborn = JobManager(data, workers=1)
    try:
        assert [job.id for job in reborn.jobs()] == [handle.id]
        assert reborn.get(handle.id).state == "done"
        assert reborn.resumed == 0
    finally:
        reborn.close()


def test_a_torn_finished_record_resumes_its_job_after_a_restart(tmp_path):
    data = tmp_path / "serve"
    manager = JobManager(data, workers=1)
    try:
        warm = manager.submit(SPEC)
        _wait_for(lambda: warm.terminal)
        assert warm.state == "done"
        # The submitted record goes through; the finished record tears.
        with faults_scope(_torn_once("store.append", after=1)):
            job = manager.submit(SPEC)
            _wait_for(lambda: job.terminal)
        assert job.state == "done" and job.cache_hit  # the outcome stands in memory
    finally:
        manager.close()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reborn = JobManager(data, workers=1)
    try:
        assert len(caught) == 1 and "torn/corrupt" in str(caught[0].message)
        assert reborn.resumed == 1
        again = reborn.get(job.id)
        _wait_for(lambda: again.terminal)
        assert again.state == "done" and again.cache_hit
        assert again.digest == job.digest
        assert reborn.get(warm.id).state == "done"
    finally:
        reborn.close()
    # The re-run's finished record is the whole line after the torn one.
    lines = (data / "jobs.jsonl").read_bytes().splitlines()
    [torn] = [number for number, line in enumerate(lines) if not _parses(line)]
    after = json.loads(lines[torn + 1])
    assert (after["event"], after["job_id"], after["status"]) == ("finished", job.id, "done")


def _parses(line: bytes) -> bool:
    try:
        json.loads(line)
    except ValueError:
        return False
    return True
