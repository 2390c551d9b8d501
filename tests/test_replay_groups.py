"""A replay-mode workload group is answered in one analysis pass.

``replay_payload`` answers every member of a group from one recording, with
one pass over the recorded events per rank and grid window: one instance of
each distinct tool, and one overhead accountant per distinct analysis model
and cost config.  These tests pin that each member's record is still the
record a replay of its own, and a simulate-mode run of its spec, would give;
that the passes are as few as that; and that a member's failure stays its
own.
"""

from __future__ import annotations

import importlib
import itertools

import pytest

from repro.api.runner import execute_payload, record_workload_trace, replay_payload
from repro.api.spec import ParallelismSpec, ProfileSpec
from repro.campaign import CampaignScheduler
from repro.errors import PastaError, ReproError, TraceError
from repro.replay import MemoryTrace
from repro.replay.replayer import TraceReplayer
from repro.tools.hotness import TimeSeriesHotnessTool

#: The simulator's process-global id counters (tests/test_process_globals.py).
SIMULATOR_COUNTERS = (
    "repro.gpusim.kernel._launch_ids",
    "repro.gpusim.device._device_ids",
    "repro.gpusim.memory._object_ids",
    "repro.dlframework.tensor._tensor_ids",
    "repro.dlframework.allocator._block_ids",
    "repro.dlframework.allocator._segment_seqs",
    "repro.dlframework.callbacks._op_ids",
)

ALEXNET = ProfileSpec(model="alexnet", batch_size=2, fine_grained=True)

#: Tool sets sharing tools, both analysis models, a grid window and a cost knob.
ALEXNET_GROUP = (
    ALEXNET.replace(tools=("access_histogram", "memory_characteristics")),
    ALEXNET.replace(tools=("access_histogram", "memory_characteristics"),
                    analysis_model="cpu_side"),
    ALEXNET.replace(tools=("kernel_frequency", "access_histogram", "hotness")),
    ALEXNET.replace(tools=("kernel_frequency", "access_histogram", "hotness"),
                    analysis_model="cpu_side"),
    ALEXNET.replace(tools=("memory_characteristics", "kernel_frequency"),
                    analysis_model="cpu_side",
                    knobs={"cpu_analysis_ns_per_record": 900.0}),
    ALEXNET.replace(tools=("kernel_frequency", "memory_characteristics"),
                    knobs={"start_grid_id": 3, "end_grid_id": 9}),
)

MEGATRON = ProfileSpec(model="megatron_gpt2_345m", mode="train", batch_size=1,
                       parallelism=ParallelismSpec("tp", world_size=2))

#: Rank tools shared with the implicit per-rank memory timeline.
MEGATRON_GROUP = (
    MEGATRON.replace(tools=("kernel_frequency", "memory_timeline")),
    MEGATRON.replace(tools=("memory_characteristics", "kernel_frequency"),
                     analysis_model="cpu_side"),
)


@pytest.fixture
def rewind(monkeypatch):
    """Rewind the simulator's id counters, so each simulation after a call
    hands out the ids the first one did."""

    def rewind_ids() -> None:
        for name in SIMULATOR_COUNTERS:
            module, attr = name.rsplit(".", 1)
            monkeypatch.setattr(importlib.import_module(module), attr, itertools.count(1))

    return rewind_ids


@pytest.fixture
def passes(monkeypatch):
    """Counts :meth:`TraceReplayer.run` calls."""
    calls = []
    original = TraceReplayer.run

    def counting(replayer):
        calls.append(len(replayer.members))
        return original(replayer)

    monkeypatch.setattr(TraceReplayer, "run", counting)
    return calls


def _record(group, rewind):
    rewind()
    trace = MemoryTrace()
    summary = record_workload_trace(group[0].to_dict(), trace)
    return trace, summary


@pytest.mark.parametrize("group, group_passes", [
    (ALEXNET_GROUP, [5, 1]),  # one window for five members, one for the sixth
    (MEGATRON_GROUP, [2, 2]),  # one pass per rank
], ids=["alexnet_fine", "megatron_tp2"])
def test_each_member_equals_its_own_replay_and_its_simulation(
        group, group_passes, rewind, passes):
    trace, summary = _record(group, rewind)
    payloads = [spec.to_dict() for spec in group]
    records = replay_payload(payloads, trace, summary)
    assert passes == group_passes
    for spec, payload, record in zip(group, payloads, records):
        assert record == replay_payload([payload], trace, summary)[0], spec.label()
        rewind()
        simulated = execute_payload(payload)
        assert record == {**simulated, "execution": "replay"}, spec.label()


def test_a_group_over_one_rank_and_one_window_is_one_pass(rewind, passes):
    group = ALEXNET_GROUP[:5]
    trace, summary = _record(group, rewind)
    records = replay_payload([spec.to_dict() for spec in group], trace, summary)
    assert passes == [5]
    assert [record["status"] for record in records] == ["ok"] * 5
    # One accountant per distinct (analysis model, cost config): three here.
    overheads = {str(record["reports"]["overhead"]) for record in records}
    assert len(overheads) == 3


def test_a_raising_tool_fails_only_the_members_that_name_it(rewind, passes, monkeypatch):
    group = ALEXNET_GROUP[:5]
    trace, summary = _record(group, rewind)
    payloads = [spec.to_dict() for spec in group]
    expected = replay_payload(payloads, trace, summary)
    passes.clear()

    def explode(tool, event):
        raise RuntimeError("hotness hook exploded")

    monkeypatch.setattr(TimeSeriesHotnessTool, "on_kernel_launch", explode)
    outcomes = replay_payload(payloads, trace, summary)
    # The shared pass raised, so each member was replayed on its own.
    assert passes == [5, 1, 1, 1, 1, 1]
    for spec, outcome, reference in zip(group, outcomes, expected):
        if "hotness" in spec.tools:
            assert isinstance(outcome, RuntimeError) and "exploded" in str(outcome)
        else:
            assert outcome == reference, spec.label()


def test_a_members_configuration_error_fails_it_before_any_pass(rewind, passes):
    coarse = ProfileSpec(model="alexnet", batch_size=2, tools=("kernel_frequency",))
    trace, summary = _record([coarse], rewind)
    bad = {
        "unknown tool": coarse.replace(tools=("no_such_tool",)),
        "bad knob": coarse.replace(knobs={"no_such_knob": 1}),
        "duplicate tools": coarse.replace(tools=("kernel_frequency", "kernel_frequency")),
        "fine tool, coarse trace": coarse.replace(tools=("access_histogram",)),
    }
    good = [coarse, coarse.replace(tools=("hotness", "kernel_frequency"),
                                   analysis_model="cpu_side")]
    payloads = [spec.to_dict() for spec in [good[0], *bad.values(), good[1]]]
    outcomes = replay_payload(payloads, trace, summary)
    assert passes == [2]
    errors = dict(zip(bad, outcomes[1:-1]))
    assert isinstance(errors["unknown tool"], ReproError)
    assert isinstance(errors["bad knob"], ReproError)
    assert isinstance(errors["duplicate tools"], PastaError)
    assert isinstance(errors["fine tool, coarse trace"], TraceError)
    for payload, outcome in zip([payloads[0], payloads[-1]], [outcomes[0], outcomes[-1]]):
        assert outcome == replay_payload([payload], trace, summary)[0]


def test_the_scheduler_replays_a_group_in_one_call(monkeypatch):
    import repro.campaign.scheduler as scheduler_module

    calls = []
    original = scheduler_module.replay_payload

    def counting(payloads, trace, summary):
        calls.append(len(payloads))
        return original(payloads, trace, summary)

    monkeypatch.setattr(scheduler_module, "replay_payload", counting)
    jobs = [*ALEXNET_GROUP[:2], ALEXNET.replace(tools=("no_such_tool",))]
    result = CampaignScheduler(execution="replay").run(jobs)
    assert calls == [3]
    assert [outcome.status for outcome in result.outcomes] == ["ok", "ok", "failed"]
    assert result.outcomes[2].error.startswith("replay failed: ")
    assert "no_such_tool" in result.outcomes[2].error
