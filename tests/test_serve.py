"""Profiling-as-a-service: daemon, job lifecycle, client, and parity tests.

The acceptance spine of PR 10:

* submit → status → stream → result, with remote reports **byte-identical**
  to a local run of the same spec;
* resubmitting an identical spec is a **pure cache hit** — zero simulation;
* cancel of queued and running jobs (profile and campaign);
* per-namespace quota rejection as a 429-style JSONL error record;
* a client reconnect resumes a result stream mid-campaign without
  duplicates or gaps;
* manager shutdown + restart over the same data dir re-enqueues unfinished
  jobs and never re-simulates finished digests (the ``kill -9`` flavour
  lives in ``tests/test_serve_cli.py``).

Everything runs against an in-process :class:`PastaDaemon` on an ephemeral
port; slow jobs are manufactured with the PR 8 fault harness (a ``slow``
rule at the ``runner.execute`` site), not with sleeps in test code.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import pytest

import repro
import repro.api.spec as spec_module
from repro import pasta
from repro.api.spec import ProfileSpec
from repro.campaign.faults import FaultInjector, FaultPlan, FaultRule, faults_scope
from repro.core.serialization import json_sanitize, stable_json_dumps
from repro.errors import ReproError
from repro.serve import JobManager, PastaDaemon, QuotaExceeded, ServeClient, ServeError, connect
from repro.serve.jobs import classify_submission

#: The tiny spec most tests submit.
SPEC = {"model": "alexnet", "tools": ["hotness"], "iterations": 1}

#: A 4-cell campaign over the same workload (distinct window knobs).
CAMPAIGN = {
    "name": "serve-test",
    "models": ["alexnet"],
    "tools": [],
    "iterations": 1,
    "knob_sweep": [{"end_grid_id": 20_000_000 + i} for i in range(4)],
}


def slow_execution(delay_s: float = 0.5) -> FaultInjector:
    """A fault plan that stalls every simulation by ``delay_s``."""
    return FaultInjector(FaultPlan(rules=(
        FaultRule(site="runner.execute", kind="slow", delay_s=delay_s, times=0),
    )))


def wait_for(predicate, timeout: float = 10.0, interval: float = 0.02):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s")


@pytest.fixture()
def daemon(tmp_path: Path):
    with PastaDaemon(tmp_path / "serve", workers=2) as running:
        yield running


# ---------------------------------------------------------------------- #
# lifecycle + parity
# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_submit_status_stream_result(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            handle = client.profile("alexnet").with_tools("hotness").iterations(1).submit()
            assert handle.id.startswith("job-")

            result = handle.result(timeout=120)
            status = handle.status()
            assert status["state"] == "done"
            assert status["kind"] == "profile"
            assert status["namespace"] == "default"
            assert result.cache_hit is False
            assert result.digest == status["digest"]

            records = list(handle.stream())
            types = [r["type"] for r in records]
            assert types == ["job", "job", "result", "job"]
            events = [r.get("event") for r in records if r["type"] == "job"]
            assert events == ["queued", "started", "finished"]
            assert all(r["v"] == 1 for r in records)

    def test_remote_reports_byte_identical_to_local(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            remote = (
                client.profile("alexnet").with_tools("hotness").iterations(1)
                .submit().result(timeout=120)
            )
        local = pasta.profile("alexnet").with_tools("hotness").iterations(1).run()
        local_reports = stable_json_dumps(json_sanitize(local.reports()))
        remote_reports = stable_json_dumps(remote.reports())
        assert remote_reports == local_reports
        local_summary = stable_json_dumps(json_sanitize(local.summary.as_dict()))
        assert stable_json_dumps(remote.summary) == local_summary

    def test_resubmit_is_pure_cache_hit(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            first = client.submit(SPEC).result(timeout=120)
            assert first.cache_hit is False
            assert daemon.manager.executed == 1

            second = client.submit(SPEC).result(timeout=120)
            assert second.cache_hit is True
            # Zero simulation: the executed counter did not move.
            assert daemon.manager.executed == 1
            assert daemon.manager.cache_hits == 1
            assert stable_json_dumps(second.record) == stable_json_dumps(first.record)

    def test_warm_result_reads_the_terminal_record_without_a_status_request(
        self, daemon: PastaDaemon, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        with connect(daemon.url) as client:
            cold = client.submit(SPEC).result(timeout=120)
            status_calls = []
            real_status = ServeClient.status

            def counting_status(self, job_id):
                status_calls.append(job_id)
                return real_status(self, job_id)

            monkeypatch.setattr(ServeClient, "status", counting_status)
            handle = client.submit(SPEC)
            warm = handle.result(timeout=120)
            assert status_calls == []
            assert warm.cache_hit is True and warm.digest == cold.digest == warm.record["digest"]
            assert handle.state == "done"
            assert status_calls == []

    def test_campaign_job_streams_progress(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            handle = client.submit(CAMPAIGN)
            result = handle.result(timeout=300)
            assert result.total == 4
            assert result.executed == 4
            assert result.failed == 0
            progress = [r for r in handle.stream() if r["type"] == "progress"]
            assert [p["index"] for p in progress] == [0, 1, 2, 3]
            assert all(p["total"] == 4 for p in progress)
            # Each cell's full record is content-addressed behind the cache API.
            cell = result.cells[0]
            fetched = result.cell_record(cell["digest"])
            assert fetched is not None and fetched["status"] == "ok"

            # Identical campaign rerun: all four digests answered from cache.
            rerun = client.submit(CAMPAIGN).result(timeout=300)
            assert rerun.cached == 4 and rerun.executed == 0
            assert daemon.manager.executed == 4

    def test_profile_result_is_the_cached_cell_record(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            # A profile job fills the cache with its own record ...
            first = client.submit(SPEC).result(timeout=120)
            # ... or a one-cell campaign over the same spec filled it first.
            campaign = client.submit({
                "name": "one-cell", "models": ["alexnet"], "tools": ["hotness"], "iterations": 2,
            }).result(timeout=120)
            second = client.submit({**SPEC, "iterations": 2}).result(timeout=120)
            assert second.cache_hit and [c["digest"] for c in campaign.cells] == [second.digest]
            for result in (first, second):
                assert result.record == client.cache_get(result.digest)
                assert result.record["digest"] == result.digest
                assert result.record["version"] == repro.__version__
            assert sorted(first.record) == sorted(second.record)

    def test_remote_builder_redirects_local_verbs(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            builder = client.profile("alexnet")
            with pytest.raises(ServeError, match=r"\.submit\(\)"):
                builder.run()
            with pytest.raises(ServeError, match="replay locally"):
                builder.replay(object())
            with pytest.raises(ServeError, match="record"):
                builder.record("trace.pasta")

    def test_campaign_replay_mode_is_honoured(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            result = client.submit({**CAMPAIGN, "execution": "replay"}).result(timeout=300)
            assert result.total == 4 and result.failed == 0
            for cell in result.cells:
                fetched = result.cell_record(cell["digest"])
                assert fetched is not None and fetched["execution"] == "replay"

    def test_record_to_rejected_at_submit(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            for spec in (
                {**SPEC, "record_to": "trace.pasta"},
                {**CAMPAIGN, "extra_jobs": [{**SPEC, "record_to": "trace.pasta"}]},
            ):
                with pytest.raises(ServeError, match="record_to") as info:
                    client.submit(spec)
                assert info.value.code == 400
            assert daemon.manager.jobs() == []


# ---------------------------------------------------------------------- #
# cancellation
# ---------------------------------------------------------------------- #
class TestCancel:
    def test_cancel_queued_job(self, tmp_path: Path) -> None:
        with faults_scope(slow_execution(1.0)):
            with PastaDaemon(tmp_path / "serve", workers=1) as daemon:
                with connect(daemon.url) as client:
                    running = client.submit(SPEC)
                    wait_for(lambda: running.status()["state"] in ("running", "done"))
                    queued = client.submit({**SPEC, "iterations": 2})
                    assert queued.status()["state"] == "queued"

                    cancelled = queued.cancel()
                    # Queued jobs cancel immediately, not at dequeue time.
                    assert cancelled["state"] == "cancelled"
                    with pytest.raises(ServeError, match="cancelled"):
                        queued.result(timeout=30)
                    # The running job is unaffected.
                    assert running.result(timeout=120).reports()

    def test_cancel_running_profile_job(self, tmp_path: Path) -> None:
        with faults_scope(slow_execution(1.5)):
            with PastaDaemon(tmp_path / "serve", workers=1) as daemon:
                with connect(daemon.url) as client:
                    handle = client.submit(SPEC)
                    wait_for(lambda: handle.status()["state"] == "running")
                    assert handle.cancel()["state"] in ("cancelling", "cancelled")
                    wait_for(lambda: handle.status()["state"] == "cancelled",
                             timeout=30)
                    records = list(handle.stream())
                    assert all(r["type"] != "result" for r in records)

    def test_cancel_running_campaign_between_cells(self, tmp_path: Path) -> None:
        with faults_scope(slow_execution(0.4)):
            with PastaDaemon(tmp_path / "serve", workers=1) as daemon:
                with connect(daemon.url) as client:
                    handle = client.submit(CAMPAIGN)
                    # Wait until at least one cell completed, then cancel.
                    wait_for(lambda: any(
                        r["type"] == "progress"
                        for r in daemon.manager.get(handle.id).events
                    ))
                    handle.cancel()
                    wait_for(lambda: handle.status()["state"] == "cancelled",
                             timeout=30)
                    progress = [r for r in handle.stream()
                                if r["type"] == "progress"]
                # Cancelled between cell boundaries: some ran, not all four.
                assert 1 <= len(progress) < 4

    def test_cancel_terminal_job_is_noop(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            handle = client.submit(SPEC)
            handle.result(timeout=120)
            assert handle.cancel()["state"] == "done"


# ---------------------------------------------------------------------- #
# multi-tenancy: namespaces + quotas
# ---------------------------------------------------------------------- #
class TestQuotas:
    def test_inflight_quota_rejects_with_429(self, tmp_path: Path) -> None:
        with faults_scope(slow_execution(1.5)):
            with PastaDaemon(
                tmp_path / "serve", workers=1, quota_inflight=1
            ) as daemon:
                with connect(daemon.url, namespace="team-a") as busy:
                    first = busy.submit(SPEC)
                    with pytest.raises(ServeError, match="in flight") as info:
                        busy.submit({**SPEC, "iterations": 2})
                    assert info.value.code == 429

                    # Quotas are per namespace: another tenant is unaffected.
                    with connect(daemon.url, namespace="team-b") as other:
                        second = other.submit({**SPEC, "iterations": 3})
                        assert first.result(timeout=120).reports()
                        assert second.result(timeout=120).reports()

    def test_total_quota_counts_finished_jobs(self, tmp_path: Path) -> None:
        with PastaDaemon(tmp_path / "serve", workers=1, quota_total=2) as daemon:
            with connect(daemon.url) as client:
                client.submit(SPEC).result(timeout=120)
                client.submit(SPEC).result(timeout=120)  # cache hit, still counted
                with pytest.raises(ServeError, match="total submission quota") as info:
                    client.submit(SPEC)
                assert info.value.code == 429

    def test_namespace_filtering_and_validation(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url, namespace="team-a") as a, \
                connect(daemon.url, namespace="team-b") as b:
            a.submit(SPEC).result(timeout=120)
            b.submit(SPEC).result(timeout=120)
            assert len(a.jobs()) == 1  # scoped to the caller's namespace
            assert len(a.jobs(namespace="team-b")) == 1
            assert len(a.jobs(all_namespaces=True)) == 2
        with pytest.raises(ReproError, match="namespace"):
            connect(daemon.url, namespace="bad/name")


# ---------------------------------------------------------------------- #
# streaming: reconnect + resume
# ---------------------------------------------------------------------- #
class TestStreamResume:
    def test_reconnect_resumes_mid_campaign(self, tmp_path: Path) -> None:
        with faults_scope(slow_execution(0.3)):
            with PastaDaemon(tmp_path / "serve", workers=1) as daemon:
                with connect(daemon.url) as client:
                    handle = client.submit(CAMPAIGN)

                    # First connection: read a few records mid-run, then drop it
                    # (closing the generator closes the HTTP connection).
                    first_chunk = list(itertools.islice(handle.stream(), 3))
                    assert len(first_chunk) == 3
                    assert handle.status()["state"] in ("running", "done")

                    # Reconnect with the cursor: the rest, no dupes and no gaps.
                    second_chunk = list(handle.stream(from_index=3))
                    replay = list(handle.stream())  # full after-the-fact replay
                    combined = first_chunk + second_chunk
                    assert [r["type"] for r in combined] == [r["type"] for r in replay]
                    assert stable_json_dumps(combined) == stable_json_dumps(replay)
                    assert combined[-1]["type"] == "job"
                    assert combined[-1]["state"] == "done"

    def test_stream_from_beyond_end_returns_nothing(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            handle = client.submit(SPEC)
            handle.result(timeout=120)
            total = len(list(handle.stream()))
            assert list(handle.stream(from_index=total)) == []


# ---------------------------------------------------------------------- #
# error surface
# ---------------------------------------------------------------------- #
class TestErrors:
    def test_unknown_job_is_404(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            with pytest.raises(ServeError, match="unknown job") as info:
                client.status("job-zzzzzz-000000")
            assert info.value.code == 404
            with pytest.raises(ServeError) as info:
                list(client.stream("job-zzzzzz-000000"))
            assert info.value.code == 404

    def test_bad_spec_is_400(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            with pytest.raises(ServeError, match="mode") as info:
                client.submit({"model": "alexnet", "mode": "bogus"})
            assert info.value.code == 400
            with pytest.raises(ServeError, match="neither") as info:
                client.submit({"nonsense": True})
            assert info.value.code == 400

    def test_failing_job_reports_failed_state(self, daemon: PastaDaemon) -> None:
        # An unknown tool passes spec validation (tools resolve at run time)
        # but fails execution — the job must land in 'failed', not hang.
        with connect(daemon.url) as client:
            handle = client.submit(
                {"model": "alexnet", "tools": ["no_such_tool"], "iterations": 1})
            with pytest.raises(ServeError, match="failed"):
                handle.result(timeout=120)
            assert handle.status()["state"] == "failed"
            assert "no_such_tool" in str(handle.status()["error"])

    def test_health_endpoint(self, daemon: PastaDaemon) -> None:
        with connect(daemon.url) as client:
            health = client.health()
        assert health["type"] == "health"
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_classify_submission(self) -> None:
        assert classify_submission(SPEC)[0] == "profile"
        assert classify_submission(CAMPAIGN)[0] == "campaign"
        kind, spec = classify_submission({"kind": "profile", "spec": SPEC})
        assert kind == "profile" and spec == SPEC
        with pytest.raises(ReproError, match="kind"):
            classify_submission({"kind": "bogus", "spec": SPEC})


# ---------------------------------------------------------------------- #
# persistence: restart over the same data dir
# ---------------------------------------------------------------------- #
class TestRestart:
    def test_restart_resumes_unfinished_jobs(self, tmp_path: Path) -> None:
        data = tmp_path / "serve"
        with faults_scope(slow_execution(0.6)):
            first = JobManager(data, workers=1)
            done = first.submit(SPEC)
            queued = [
                first.submit({**SPEC, "iterations": n}) for n in (2, 3)
            ]
            # Let the first job finish, then shut down mid-queue.  The worker
            # may already have picked up the next job before close() lands,
            # but the last one is still queued when the pool stops draining.
            wait_for(lambda: first.get(done.id).terminal, timeout=30)
            first.close()
            unfinished = [j for j in queued if not first.get(j.id).terminal]
            assert unfinished, "expected at least one job left queued"

        second = JobManager(data, workers=1)
        try:
            assert second.resumed == len(unfinished)
            for job in unfinished:
                resumed = second.get(job.id)
                assert resumed.resumed is True
                wait_for(lambda j=resumed: j.terminal, timeout=60)
                assert second.get(job.id).state == "done"
            # The finished job was restored terminal, result intact.
            restored = second.get(done.id)
            assert restored.state == "done" and not restored.resumed
            assert restored.result is not None
            # Never re-simulate a finished digest: resubmitting it hits cache.
            again = second.submit(SPEC)
            wait_for(lambda: second.get(again.id).terminal, timeout=30)
            assert second.get(again.id).cache_hit is True
            # Only the resumed jobs simulated; finished digests never re-ran.
            assert second.executed == len(unfinished)
        finally:
            second.close()

    def test_restart_preserves_namespaces_and_order(self, tmp_path: Path) -> None:
        data = tmp_path / "serve"
        manager = JobManager(data, workers=1)
        job = manager.submit(SPEC, namespace="team-a")
        wait_for(lambda: manager.get(job.id).terminal, timeout=60)
        manager.close()

        reborn = JobManager(data, workers=1)
        try:
            restored = reborn.get(job.id)
            assert restored.namespace == "team-a"
            assert [j.id for j in reborn.jobs()] == [job.id]
            # Job ids keep incrementing past journaled history.
            newer = reborn.submit({**SPEC, "iterations": 2})
            assert int(newer.id.split("-")[1]) > int(job.id.split("-")[1])
        finally:
            reborn.close()


class TestParseOnce:
    def test_a_warm_job_parses_and_digests_each_spec_once(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        manager = JobManager(tmp_path / "serve", workers=1)

        def run(payload: dict[str, object]):
            job = manager.submit(payload)
            wait_for(lambda: job.terminal, timeout=120)
            assert job.state == "done" and job.parsed is None
            return job

        try:
            cold_profile, cold_campaign = run(SPEC), run(CAMPAIGN)
            parses: list[object] = []
            digests: list[object] = []
            real_from_dict = ProfileSpec.from_dict.__func__  # type: ignore[attr-defined]
            real_digest = spec_module.content_digest

            def counting_from_dict(cls, data):
                parses.append(data)
                return real_from_dict(cls, data)

            def counting_digest(*args):
                digests.append(args)
                return real_digest(*args)

            monkeypatch.setattr(ProfileSpec, "from_dict", classmethod(counting_from_dict))
            monkeypatch.setattr(spec_module, "content_digest", counting_digest)
            warm = run(SPEC)
            assert (len(parses), len(digests)) == (1, 1)
            assert warm.cache_hit and warm.result == cold_profile.result

            digests.clear()
            warm = run(CAMPAIGN)
            assert len(digests) == 4
            assert warm.cache_hit and warm.result is not None
            cells = warm.result["cells"]
            assert [c["digest"] for c in cells] == [
                c["digest"] for c in cold_campaign.result["cells"]
            ]
            for job in (cold_campaign, warm):
                progress = sorted(
                    (r for r in job.events if r["type"] == "progress"), key=lambda r: r["index"]
                )
                assert [p["digest"] for p in progress] == [
                    c["digest"] for c in job.result["cells"]
                ]
        finally:
            manager.close()


class TestQuotaExceededType:
    def test_quota_exceeded_is_repro_error(self) -> None:
        error = QuotaExceeded("over", namespace="x", quota="inflight")
        assert isinstance(error, ReproError)
        assert error.namespace == "x" and error.quota == "inflight"
