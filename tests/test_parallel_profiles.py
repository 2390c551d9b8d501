"""Multi-GPU parallelism as a first-class ProfileSpec dimension.

The acceptance criteria of the parallelism integration:

* a TP profile recorded to a trace and replayed offline produces
  **byte-identical per-rank reports** to the live run;
* a campaign sweeping ``parallelism`` over {dp, tp, pp} x 2 ranks runs
  through the scheduler and is answered **entirely from the cache** on rerun;
* per-rank trace slicing by ``device_index`` recovers exactly one rank's
  event stream.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import ParallelismSpec, ProfileSpec, api, pasta
from repro.campaign import CampaignScheduler, CampaignSpec, ResultCache
from repro.core.registry import REGISTRY
from repro.core.serialization import stable_json_dumps
from repro.dlframework.models.megatron import MegatronConfig, MegatronGpt2
from repro.errors import ReproError, TraceError
from repro.replay.reader import TraceReader

#: Deliberately small Megatron configuration so parallel profiles stay fast.
SMALL_CONFIG = MegatronConfig(
    vocab_size=2048, hidden=256, num_layers=4, num_heads=8, seq_length=128,
    batch_size=2,
)

SMALL_MODEL = "megatron_small_test"


@pytest.fixture(autouse=True, scope="module")
def small_megatron():
    REGISTRY.register("models", SMALL_MODEL, lambda: MegatronGpt2(SMALL_CONFIG),
                      overwrite=True)
    yield
    REGISTRY.namespace("models").unregister(SMALL_MODEL)


def canonical_bytes(reports) -> bytes:
    return stable_json_dumps(reports).encode("utf-8")


# ---------------------------------------------------------------------- #
# ParallelismSpec: validation, round-trip, identity
# ---------------------------------------------------------------------- #
class TestParallelismSpec:
    def test_strategy_normalisation_and_aliases(self):
        assert ParallelismSpec("tensor_parallel").strategy == "tp"
        assert ParallelismSpec("DP").strategy == "dp"
        assert ParallelismSpec("pipeline-parallel").strategy == "pp"

    def test_unknown_strategy_suggests(self):
        with pytest.raises(ReproError, match="strategy"):
            ParallelismSpec("expert_parallel")

    def test_world_size_and_devices_validation(self):
        with pytest.raises(ReproError, match="world_size"):
            ParallelismSpec("dp", world_size=1)
        with pytest.raises(ReproError, match="one device per rank"):
            ParallelismSpec("dp", world_size=2, devices=("a100",))
        with pytest.raises(ReproError, match="microbatches"):
            ParallelismSpec("pp", microbatches=0)

    def test_resolved_devices_replicates_the_default(self):
        assert ParallelismSpec("tp").resolved_devices("a100") == ("a100", "a100")
        explicit = ParallelismSpec("tp", devices=("a100", "rtx3060"))
        assert explicit.resolved_devices("a100") == ("a100", "rtx3060")

    def test_spec_json_round_trip_includes_parallelism(self):
        spec = ProfileSpec(
            model=SMALL_MODEL, mode="train", tools=("kernel_frequency",),
            parallelism=ParallelismSpec("tp", world_size=2),
        )
        assert ProfileSpec.from_json(spec.to_json()) == spec
        assert spec.canonical()["parallelism"]["strategy"] == "tp"

    def test_parallelism_accepts_dict_and_bare_strategy(self):
        from_dict = ProfileSpec(model=SMALL_MODEL, mode="train",
                                parallelism={"strategy": "pp", "microbatches": 4})
        assert from_dict.parallelism == ParallelismSpec("pp", microbatches=4)
        bare = ProfileSpec(model=SMALL_MODEL, mode="train", parallelism="dp")
        assert bare.parallelism == ParallelismSpec("dp")

    def test_parallel_profiles_must_train(self):
        with pytest.raises(ReproError, match="train"):
            ProfileSpec(model=SMALL_MODEL, mode="inference", parallelism="tp")

    def test_digest_distinguishes_strategies_and_world_sizes(self):
        base = ProfileSpec(model=SMALL_MODEL, mode="train", parallelism="dp")
        version = repro.__version__
        assert base.digest(version) != base.with_parallelism("tp").digest(version)
        assert (base.digest(version)
                != base.with_parallelism("dp", world_size=3).digest(version))
        assert base.digest(version) != base.replace(parallelism=None).digest(version)

    def test_workload_signature_includes_parallelism(self):
        single = ProfileSpec(model=SMALL_MODEL, mode="train")
        tp = single.with_parallelism("tp")
        assert single.workload_signature() != tp.workload_signature()
        assert tp.workload_signature() == tp.replace(tools=("hotness",)).workload_signature()

    def test_label_carries_the_strategy(self):
        spec = ProfileSpec(model=SMALL_MODEL, mode="train", parallelism="pp")
        assert spec.label().endswith("/ppx2")

    def test_builder_parallel_defaults_to_train(self):
        spec = pasta.profile(SMALL_MODEL).parallel("tp", world_size=2).build()
        assert spec.mode == "train"
        assert spec.parallelism == ParallelismSpec("tp", world_size=2)

    def test_microbatches_is_identity_only_for_pp(self):
        # dp/tp ignore microbatches at execution time, so two dp specs
        # differing only there are the SAME configuration: equal, same
        # digest, same workload signature (no spurious cache misses).
        a = ProfileSpec(model=SMALL_MODEL, mode="train",
                        parallelism=ParallelismSpec("dp", microbatches=2))
        b = ProfileSpec(model=SMALL_MODEL, mode="train",
                        parallelism=ParallelismSpec("dp", microbatches=4))
        assert a == b
        assert a.digest(repro.__version__) == b.digest(repro.__version__)
        assert a.workload_signature() == b.workload_signature()
        # pp genuinely varies with it.
        pp2 = ParallelismSpec("pp", microbatches=2)
        pp4 = ParallelismSpec("pp", microbatches=4)
        assert pp2 != pp4


# ---------------------------------------------------------------------- #
# live execution: one session per rank, Figure-15 semantics
# ---------------------------------------------------------------------- #
class TestLiveParallelProfiles:
    @pytest.fixture(scope="class")
    def tp_result(self):
        return pasta.profile(SMALL_MODEL).parallel("tp", world_size=2).run()

    def test_one_instrumented_session_per_rank(self, tp_result):
        assert len(tp_result.sessions) == 2
        for session, rank_report in zip(tp_result.sessions, tp_result.rank_reports()):
            assert "memory_timeline" in rank_report
            assert "overhead" in rank_report

    def test_report_structure_and_symmetry(self, tp_result):
        reports = tp_result.reports()
        assert set(reports) == {"parallelism", "ranks", "cross_rank"}
        assert set(reports["ranks"]) == {"rank0", "rank1"}
        cross = reports["cross_rank"]
        assert cross["peak_symmetry"] == pytest.approx(1.0, rel=0.02)

    def test_spec_tools_attach_per_rank(self):
        result = (pasta.profile(SMALL_MODEL)
                  .parallel("dp", world_size=2)
                  .with_tools("kernel_frequency")
                  .run())
        for rank in range(2):
            assert result.report("kernel_frequency", rank)["total_launches"] > 0
        # Per-rank instances are independent objects.
        assert result.tool("kernel_frequency", 0) is not result.tool("kernel_frequency", 1)

    def test_dp_tp_pp_peak_relations(self):
        results = {
            strategy: pasta.profile(SMALL_MODEL).parallel(strategy).run()
            for strategy in ("dp", "tp", "pp")
        }
        dp = results["dp"].reports()["cross_rank"]
        tp = results["tp"].reports()["cross_rank"]
        pp = results["pp"].reports()["cross_rank"]
        assert dp["peak_symmetry"] == pytest.approx(1.0, rel=0.02)
        assert tp["peak_symmetry"] == pytest.approx(1.0, rel=0.02)
        assert tp["max_peak_bytes"] < 0.8 * dp["max_peak_bytes"]
        assert pp["last_over_first_peak"] > 1.0

    def test_summary_rolls_up_across_ranks(self, tp_result):
        summary = tp_result.summary.as_dict()
        ranks = summary["ranks"]
        assert len(ranks) == 2
        assert summary["kernel_launches"] == sum(r["kernel_launches"] for r in ranks)
        assert summary["peak_allocated_bytes"] == max(
            r["peak_allocated_bytes"] for r in ranks)
        assert summary["parallelism"] == {"strategy": "tp", "world_size": 2}

    def test_run_accepts_parallelism_kwarg_and_defaults_to_train(self):
        result = api.run(SMALL_MODEL, parallelism="dp")
        assert result.spec.mode == "train"
        assert result.spec.parallelism == ParallelismSpec("dp")

    def test_unsupported_model_raises_cleanly(self):
        with pytest.raises(ReproError, match="does not support multi-GPU"):
            api.run("alexnet", mode="train", parallelism="dp")

    def test_programmatic_escape_hatches_rejected(self):
        from repro.tools import KernelFrequencyTool

        spec = ProfileSpec(model=SMALL_MODEL, mode="train", parallelism="dp")
        with pytest.raises(ReproError, match="per rank"):
            api.execute(spec, extra_tools=[KernelFrequencyTool()])

    def test_heterogeneous_device_sets_resolve_per_rank(self):
        result = api.run(
            SMALL_MODEL,
            parallelism=ParallelismSpec("dp", devices=("a100", "rtx3060")),
        )
        names = [s["device"] for s in result.summary.as_dict()["ranks"]]
        assert names == ["a100", "rtx3060"]


# ---------------------------------------------------------------------- #
# acceptance: record once, replay byte-identically, slice per rank
# ---------------------------------------------------------------------- #
class TestParallelRecordReplay:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("parallel-traces") / "tp.pastatrace"
        spec = ProfileSpec(
            model=SMALL_MODEL, mode="train",
            tools=("kernel_frequency", "memory_characteristics"),
            parallelism=ParallelismSpec("tp", world_size=2),
        )
        live = api.execute(spec.with_record(trace))
        return spec, trace, live

    def test_replay_reports_are_byte_identical_to_live(self, recorded):
        spec, trace, live = recorded
        replayed = api.replay(trace, spec)
        assert canonical_bytes(replayed.reports()) == canonical_bytes(live.reports())
        assert (canonical_bytes(replayed.rank_reports()[0])
                == canonical_bytes(live.rank_reports()[0]))
        assert replayed.events_replayed > 0

    def test_trace_metadata_carries_per_rank_device_indices(self, recorded):
        _spec, trace, live = recorded
        reader = TraceReader(trace)
        assert reader.header.workload["device_indices"] == live.device_indices
        assert reader.header.workload["rank_devices"] == ["a100", "a100"]

    def test_events_slice_by_device_index(self, recorded):
        _spec, trace, live = recorded
        reader = TraceReader(trace)
        total = sum(1 for _ in reader.events())
        per_rank = []
        for index in live.device_indices:
            events = list(reader.events(device_index=index))
            assert events, f"no events for device {index}"
            assert all(e.device_index == index for e in events)
            per_rank.append(len(events))
        # Every recorded event belongs to exactly one rank.
        assert sum(per_rank) == total

    def test_slice_to_materialises_one_rank(self, recorded, tmp_path):
        _spec, trace, live = recorded
        reader = TraceReader(trace)
        rank0 = live.device_indices[0]
        out = tmp_path / "rank0.pastatrace"
        footer = reader.slice_to(out, device_index=rank0)
        sliced = TraceReader(out)
        assert sliced.header.workload["sliced_device_index"] == rank0
        assert footer.event_count == sum(1 for _ in reader.events(device_index=rank0))
        assert all(e.device_index == rank0 for e in sliced.events())

    def test_replay_of_single_gpu_trace_fails_loudly(self, tmp_path):
        trace = tmp_path / "single.pastatrace"
        api.execute(ProfileSpec(model="alexnet", batch_size=2).with_record(trace))
        parallel_spec = ProfileSpec(model=SMALL_MODEL, mode="train", parallelism="tp")
        with pytest.raises(TraceError, match="multi-GPU"):
            api.replay(trace, parallel_spec)

    def test_world_size_mismatch_fails_loudly(self, recorded):
        spec, trace, _live = recorded
        mismatched = spec.with_parallelism("tp", world_size=3)
        with pytest.raises(TraceError, match="ranks"):
            api.replay(trace, mismatched)

    def test_measure_overhead_false_reaches_every_rank(self, recorded):
        spec, trace, _live = recorded
        reports = api.replay(trace, spec, measure_overhead=False).reports()
        assert set(reports["ranks"]) == {"rank0", "rank1"}
        for rank_report in reports["ranks"].values():
            assert "overhead" not in rank_report
            assert "kernel_frequency" in rank_report

    @pytest.mark.parametrize(
        "parallelism", [None, ParallelismSpec("tp", world_size=2)],
        ids=["single_device", "tp"],
    )
    def test_failed_session_construction_finalises_the_shared_writer(
        self, tmp_path, parallelism
    ):
        # Duplicate tool names make session construction raise after the
        # runner opened the trace writer, at any world size; the writer must
        # still be aborted so the trace is a readable, explicitly-incomplete
        # file rather than a leaked header-only fragment.
        trace = tmp_path / "aborted.pastatrace"
        spec = ProfileSpec(
            model=SMALL_MODEL, mode="train",
            tools=("kernel_frequency", "kernel_frequency"),
            parallelism=parallelism,
        )
        with pytest.raises(Exception, match="kernel_frequency"):
            api.execute(spec.with_record(trace))
        reader = TraceReader(trace, allow_incomplete=True)
        assert reader.footer.complete is False
        assert "PastaError" in reader.footer.abort_reason


# ---------------------------------------------------------------------- #
# acceptance: campaign sweep over {dp, tp, pp} with cache hits on rerun
# ---------------------------------------------------------------------- #
class TestParallelCampaigns:
    @pytest.fixture()
    def sweep(self):
        return CampaignSpec(
            name="parallelism-sweep",
            models=[SMALL_MODEL],
            modes=["train"],
            tools=["kernel_frequency"],
            parallelisms=["dp", "tp", "pp"],
        )

    def test_grid_expands_the_parallelism_axis(self, sweep):
        labels = [job.label() for job in sweep.expand()]
        assert len(labels) == 3
        assert any(label.endswith("/dpx2") for label in labels)
        assert any(label.endswith("/tpx2") for label in labels)
        assert any(label.endswith("/ppx2") for label in labels)

    def test_campaign_json_round_trip(self, sweep):
        clone = CampaignSpec.from_json(json.dumps(sweep.to_dict()))
        assert clone.expand() == sweep.expand()

    def test_sweep_runs_and_reruns_from_cache(self, sweep, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scheduler = CampaignScheduler(cache=cache)
        first = scheduler.run(sweep)
        assert first.failed == 0 and first.executed == 3
        for record in first.records():
            assert set(record["reports"]) == {"parallelism", "ranks", "cross_rank"}
        second = scheduler.run(sweep)
        assert second.cached == 3 and second.executed == 0
        assert (canonical_bytes(second.records()[0]["reports"])
                == canonical_bytes(first.records()[0]["reports"]))

    def test_replay_mode_simulates_each_parallel_workload_once(self):
        spec = CampaignSpec(
            name="parallel-replay",
            models=[SMALL_MODEL],
            modes=["train"],
            tools=["kernel_frequency", "memory_timeline"],
            parallelisms=["tp"],
            execution="replay",
        )
        result = CampaignScheduler().run(spec)
        assert result.failed == 0 and result.total == 2
        assert result.workloads_recorded == 1
        reports = [record["reports"] for record in result.records()]
        assert all(set(r) == {"parallelism", "ranks", "cross_rank"} for r in reports)


# ---------------------------------------------------------------------- #
# CLI: pasta profile --parallel
# ---------------------------------------------------------------------- #
class TestParallelCli:
    def test_profile_parallel_json(self, capsys):
        from repro.commands import main

        rc = main(["profile", SMALL_MODEL, "--parallel", "tp", "--world-size", "2",
                   "-t", "kernel_frequency", "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) >= {"parallelism", "ranks", "cross_rank", "run"}
        assert document["run"]["parallelism"] == {"strategy": "tp", "world_size": 2}

    def test_profile_parallel_implies_train(self, capsys):
        from repro.commands import main

        rc = main(["profile", SMALL_MODEL, "--parallel", "dp",
                   "-t", "memory_timeline", "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["run"]["mode"] == "train"

    def test_parallel_only_flags_require_parallel(self, capsys):
        from repro.commands import main

        for flag, value in (("--world-size", "4"),
                            ("--parallel-devices", "a100,a100"),
                            ("--microbatches", "4")):
            with pytest.raises(SystemExit):
                main(["profile", SMALL_MODEL, "-t", "kernel_frequency",
                      flag, value])
            assert "--parallel" in capsys.readouterr().err

    def test_trace_slice_by_device_index(self, tmp_path, capsys):
        from repro.commands import main

        trace = tmp_path / "cli.pastatrace"
        rc = main(["profile", SMALL_MODEL, "--parallel", "dp",
                   "-t", "memory_timeline", "--record", str(trace), "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["trace"]["path"] == str(trace)
        reader = TraceReader(trace)
        rank0 = int(reader.header.workload["device_indices"][0])
        out = tmp_path / "rank0.pastatrace"
        rc = main(["trace", "slice", str(trace), "-o", str(out),
                   "--device-index", str(rank0)])
        assert rc == 0
        assert all(e.device_index == rank0 for e in TraceReader(out).events())
