"""Tests for the unified profiling API (`repro.api`).

The acceptance criterion of the API redesign: a single
:class:`~repro.api.spec.ProfileSpec` value drives all four execution paths —
live run, record-to-trace, offline replay, and a one-job campaign — and the
resulting tool reports are byte-identical across them; the spec round-trips
through JSON and its canonical serialization is the sole input to the
campaign cache digest.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro import ProfileSpec, pasta, profile, run
from repro import api
from repro.campaign import CampaignScheduler, ResultCache
from repro.core.serialization import content_digest, stable_json_dumps
from repro.errors import ReproError
from repro.tools import KernelFrequencyTool

#: Tools whose reports are pure functions of the event stream (no global
#: per-process counters such as device indices), so two separate simulations
#: of the same spec produce identical reports.
DETERMINISTIC_TOOLS = ("kernel_frequency", "memory_characteristics")


def canonical_bytes(reports) -> bytes:
    """Reports normalised to their canonical JSON byte representation."""
    return stable_json_dumps(reports).encode("utf-8")


# ---------------------------------------------------------------------- #
# ProfileSpec: round-trip, validation, identity
# ---------------------------------------------------------------------- #
class TestProfileSpec:
    def test_json_round_trip(self):
        spec = ProfileSpec(
            model="gpt2", device="rtx3060", mode="train",
            tools=("hotness", "access_histogram"), iterations=2, batch_size=4,
            backend="nvbit", analysis_model="cpu_side", fine_grained=True,
            knobs={"start_grid_id": 0, "end_grid_id": 49},  # type: ignore[arg-type]
            record_to="trace.pasta",
        )
        assert ProfileSpec.from_json(spec.to_json()) == spec
        assert ProfileSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(spec.to_json()) == spec.to_dict()

    def test_knobs_normalise_to_sorted_pairs(self):
        a = ProfileSpec(model="alexnet", knobs={"b": 1, "a": 2})  # type: ignore[arg-type]
        b = ProfileSpec(model="alexnet", knobs={"a": 2, "b": 1})  # type: ignore[arg-type]
        assert a == b and hash(a) == hash(b)
        assert a.knobs == (("a", 2), ("b", 1))

    def test_validation(self):
        with pytest.raises(ReproError, match="non-empty"):
            ProfileSpec(model="")
        with pytest.raises(ReproError, match="did you mean 'train'"):
            ProfileSpec(model="alexnet", mode="training")
        with pytest.raises(ReproError, match="iterations"):
            ProfileSpec(model="alexnet", iterations=0)
        with pytest.raises(ReproError, match="unknown ProfileSpec fields"):
            ProfileSpec.from_dict({"model": "alexnet", "colour": "red"})

    def test_canonical_excludes_only_the_trace_destination(self):
        spec = ProfileSpec(model="alexnet", record_to="t.pasta")
        assert "record_to" in spec.to_dict()
        assert "record_to" not in spec.canonical()
        assert set(spec.to_dict()) - set(spec.canonical()) == {"record_to"}

    def test_digest_is_content_digest_of_canonical_serialization(self):
        spec = ProfileSpec(model="alexnet", tools=("kernel_frequency",))
        assert spec.digest("1.2.0") == content_digest(spec.canonical(), "1.2.0")

    def test_digest_ignores_record_to_but_not_version(self):
        spec = ProfileSpec(model="alexnet")
        assert spec.digest("v1") == spec.with_record("anywhere.pasta").digest("v1")
        assert spec.digest("v1") != spec.digest("v2")
        assert spec.digest("v1") != ProfileSpec(model="resnet18").digest("v1")

    def test_workload_signature_ignores_analysis_only_fields(self):
        base = ProfileSpec(model="alexnet", batch_size=2)
        assert (base.replace(tools=("kernel_frequency",)).workload_signature()
                == base.replace(analysis_model="cpu_side",
                                knobs={"start_grid_id": 0}).workload_signature())  # type: ignore[arg-type]
        assert base.workload_signature() != base.replace(device="rtx3060").workload_signature()


# ---------------------------------------------------------------------- #
# fluent builder
# ---------------------------------------------------------------------- #
class TestProfileBuilder:
    def test_fluent_chain_builds_the_expected_spec(self):
        spec = (profile("gpt2")
                .on("a100")
                .mode("train")
                .with_tools("hotness", "access_histogram")
                .iterations(2)
                .batch_size(4)
                .backend("nvbit")
                .analysis_model("cpu_side")
                .fine_grained()
                .window(0, 49)
                .record("trace.pasta")
                .build())
        assert spec == ProfileSpec(
            model="gpt2", device="a100", mode="train",
            tools=("hotness", "access_histogram"), iterations=2, batch_size=4,
            backend="nvbit", analysis_model="cpu_side", fine_grained=True,
            knobs={"start_grid_id": 0, "end_grid_id": 49},  # type: ignore[arg-type]
            record_to="trace.pasta",
        )

    def test_builder_is_importable_from_the_pasta_facade(self):
        spec = pasta.profile("alexnet").on("rtx3060").build()
        assert spec.device == "rtx3060"

    def test_builder_run_executes(self):
        result = (profile("alexnet").on("rtx3060")
                  .with_tools("kernel_frequency").batch_size(2).run())
        assert result.report("kernel_frequency")["total_launches"] > 0
        assert result.spec.device == "rtx3060"

    def test_builder_accepts_tool_instances_at_run_time(self):
        tool = KernelFrequencyTool()
        result = profile("alexnet").with_tools(tool).batch_size(2).run()
        assert result.tool("kernel_frequency") is tool

    def test_builder_with_instances_refuses_to_build_a_spec(self):
        builder = profile("alexnet").with_tools(KernelFrequencyTool())
        with pytest.raises(ReproError, match="registry names"):
            builder.build()

    def test_builder_replay_reuses_the_configuration(self, tmp_path):
        trace = tmp_path / "b.pastatrace"
        live = (profile("alexnet").with_tools("kernel_frequency")
                .batch_size(2).record(trace).run())
        replayed = (profile("alexnet").with_tools("kernel_frequency")
                    .batch_size(2).replay(trace))
        assert canonical_bytes(replayed.reports()) == canonical_bytes(live.reports())


# ---------------------------------------------------------------------- #
# acceptance: one spec, four execution paths, byte-identical reports
# ---------------------------------------------------------------------- #
class TestOneSpecFourPaths:
    @pytest.fixture(scope="class")
    def spec(self):
        return ProfileSpec(
            model="alexnet", device="a100", mode="inference",
            tools=DETERMINISTIC_TOOLS, batch_size=2,
        )

    def test_reports_byte_identical_across_all_paths(self, spec, tmp_path):
        trace = tmp_path / "spec.pastatrace"

        # 1. live run
        live = api.execute(spec)
        # 2. record-to-trace (same spec, plus a destination)
        recorded = api.execute(spec.with_record(trace))
        # 3. offline replay of the recorded trace, configured by the spec
        replayed = api.replay(trace, spec)
        # 4a. one-job campaign, simulate mode
        cache = ResultCache(tmp_path / "cache")
        campaign = CampaignScheduler(cache=cache).run([spec], name="api-accept")
        assert campaign.failed == 0 and campaign.total == 1
        # 4b. one-job campaign, replay mode (records its own trace once)
        campaign_replay = CampaignScheduler(execution="replay").run(
            [spec], name="api-accept-replay")
        assert campaign_replay.failed == 0

        reference = canonical_bytes(live.reports())
        assert canonical_bytes(recorded.reports()) == reference
        assert canonical_bytes(replayed.reports()) == reference
        assert canonical_bytes(campaign.records()[0]["reports"]) == reference
        assert canonical_bytes(campaign_replay.records()[0]["reports"]) == reference

    def test_campaign_cache_is_keyed_by_the_spec_digest(self, spec, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scheduler = CampaignScheduler(cache=cache)
        first = scheduler.run([spec], name="digest-check")
        expected = spec.digest(repro.__version__)
        assert first.outcomes[0].digest == expected
        assert cache.contains(expected)
        # identical spec: served from the cache, nothing re-simulated
        second = scheduler.run([spec], name="digest-check")
        assert second.cached == 1 and second.executed == 0

    def test_record_to_shares_the_digest_but_never_skips_the_trace(
            self, spec, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scheduler = CampaignScheduler(cache=cache)
        assert scheduler.run([spec], name="warm").executed == 1
        # Same digest, but the job asks for a trace artifact: the scheduler
        # must execute it (producing the file) rather than answer from cache.
        trace = tmp_path / "job.pastatrace"
        recording = spec.with_record(trace)
        assert recording.digest(repro.__version__) == spec.digest(repro.__version__)
        result = scheduler.run([recording], name="warm")
        assert result.executed == 1 and result.cached == 0
        assert trace.exists()

    def test_replay_mode_campaign_still_writes_requested_traces(self, spec, tmp_path):
        # Replay-mode answers jobs from a shared workload trace, but a job
        # that asks for its own trace artifact must be simulated so the
        # file actually exists — with reports identical to its replayed twin.
        trace = tmp_path / "replay-job.pastatrace"
        plain, recording = spec, spec.with_record(trace)
        result = CampaignScheduler(execution="replay").run(
            [plain, recording], name="replay-record")
        assert result.failed == 0 and result.executed == 2
        assert trace.exists()
        records = result.records()
        assert canonical_bytes(records[0]["reports"]) == canonical_bytes(records[1]["reports"])

    def test_payload_round_trips_through_json_for_worker_pools(self, spec):
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ProfileSpec.from_dict(payload) == spec
        record = api.execute_payload(payload)
        assert record["status"] == "ok"
        assert set(record["reports"]) == set(DETERMINISTIC_TOOLS) | {"overhead"}


# ---------------------------------------------------------------------- #
# public surface
# ---------------------------------------------------------------------- #
class TestPublicSurface:
    REQUIRED_EXPORTS = (
        "ProfileSpec", "profile", "run", "replay",
        "create_tool", "registered_tools", "PastaError",
    )

    def test_required_names_are_exported(self):
        for name in self.REQUIRED_EXPORTS:
            assert name in repro.__all__, name

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_readme_and_examples_import_only_the_public_surface(self):
        root = Path(__file__).resolve().parent.parent
        sources = [root / "README.md"]
        sources += sorted((root / "examples").glob("*.py"))
        pattern = re.compile(
            r"^\s*from repro import ([A-Za-z0-9_,\s]+?)\s*$", re.MULTILINE
        )
        seen = set()
        for source in sources:
            for match in pattern.finditer(source.read_text()):
                for name in match.group(1).split(","):
                    name = name.strip()
                    if name:
                        seen.add(name)
        assert seen, "expected README/examples to import from repro"
        missing = seen - set(repro.__all__)
        assert not missing, f"README/examples import non-public names: {sorted(missing)}"

    def test_facade_module_reexports_the_api(self):
        assert pasta.ProfileSpec is ProfileSpec
        assert pasta.profile is profile
        assert pasta.run is run


# ---------------------------------------------------------------------- #
# backward compatibility: old campaign spec files
# ---------------------------------------------------------------------- #
class TestDeprecatedShims:
    def test_campaign_spec_json_files_keep_working(self, tmp_path):
        # Old-style campaign JSON (including extra_jobs in the historical
        # JobSpec shape, without record_to) loads and runs unchanged.
        from repro.campaign import CampaignSpec

        spec = CampaignSpec.from_dict({
            "name": "legacy",
            "models": ["alexnet"],
            "tools": ["kernel_frequency"],
            "batch_size": 2,
            "extra_jobs": [{"model": "alexnet", "tools": ["memory_characteristics"],
                            "batch_size": 2}],
        })
        jobs = spec.expand()
        assert all(isinstance(job, ProfileSpec) for job in jobs)
        assert len(jobs) == 2
        result = CampaignScheduler().run(spec)
        assert result.failed == 0 and result.total == 2
