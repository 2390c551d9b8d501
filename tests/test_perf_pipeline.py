"""Equivalence and stress tests for the fast-path event pipeline.

Two properties guard the batched fine-grained pipeline:

* **Batched == per-record stream**: for every bundled tool, replaying a
  recorded fine-grained event stream as recorded (columnar batches) and with
  every batch unrolled into per-record events produces byte-identical
  reports.  The processor turns each lone per-record event into a length-1
  batch, so tools see only batches either way.
* **Allocator invariants**: the size-indexed, linked-list allocator survives
  alloc/free churn with correct coalescing and the same peak statistics as
  a straightforward reference accounting.
"""

from __future__ import annotations

import random

import pytest

import repro.tools  # noqa: F401  (side effect: tool registration)
from repro.core.events import (
    EventCategory,
    InstructionBatch,
    MemoryAccessBatch,
    MemoryAccessEvent,
)
from repro.core.registry import create_tool, registered_tools
from repro.core.serialization import stable_json_dumps
from repro.core.tool import PastaTool
from repro.dlframework.allocator import CachingAllocator, round_size
from repro.dlframework.tensor import DType
from repro.gpusim.device import A100, MiB
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.runtime import create_runtime
from repro.replay import MemoryTrace, TraceReader, replay_trace
from repro.tools import InefficiencyLocatorTool, TimeSeriesHotnessTool
from repro import api

#: Bundled tools in their sampled (fine-grained) modes, beside the default
#: configurations every registered name creates.
_SAMPLED_TOOLS = {
    "hotness_sampled": lambda: TimeSeriesHotnessTool(use_sampled_accesses=True),
    "inefficiency_sampled": lambda: InefficiencyLocatorTool(track_device_records=True),
}


def _make_tool(name: str) -> PastaTool:
    if name not in _SAMPLED_TOOLS:
        return create_tool(name)
    tool = _SAMPLED_TOOLS[name]()
    tool.tool_name = name
    return tool


@pytest.fixture(scope="module")
def fine_grained_events(tmp_path_factory):
    """One fine-grained recording, decoded once for every equivalence case,
    plus the same stream with every batch unrolled into per-record events,
    each held in a memory trace."""
    trace = tmp_path_factory.mktemp("pipeline") / "fine.pastatrace"
    api.run("alexnet", device="a100", tools=(), fine_grained=True,
                 batch_size=2, record_to=trace)
    reader = TraceReader(trace)
    events = list(reader.events())
    assert any(isinstance(e, MemoryAccessBatch) for e in events)
    assert any(isinstance(e, InstructionBatch) for e in events)
    unrolled: list = []
    for event in events:
        if isinstance(event, (MemoryAccessBatch, InstructionBatch)):
            unrolled.extend(event.unroll())
        else:
            unrolled.append(event)
    return MemoryTrace(reader.header, events), MemoryTrace(reader.header, unrolled)


class TestBatchedUnrolledEquivalence:
    @pytest.mark.parametrize("name", [*registered_tools(), *_SAMPLED_TOOLS])
    def test_reports_identical(self, fine_grained_events, name):
        events, unrolled = fine_grained_events
        batched_tool, per_record_tool = _make_tool(name), _make_tool(name)
        batched_result = replay_trace(events, tools=[batched_tool])
        per_record_result = replay_trace(unrolled, tools=[per_record_tool])
        batched_report = stable_json_dumps(batched_result.reports())
        per_record_report = stable_json_dumps(per_record_result.reports())
        assert batched_report == per_record_report
        # Guard against vacuous equality: every tool saw events, and the
        # fine-grained subscribers saw the fine-grained stream.
        assert batched_tool.events_received > 0
        if batched_tool.wants(EventCategory.MEMORY_ACCESS_BATCH):
            assert batched_tool.events_received == per_record_tool.events_received > 100

    def test_unroll_fallback_reaches_per_record_hooks(self):
        seen: list[MemoryAccessEvent] = []

        class LegacyTool(PastaTool):
            """A pre-batching tool: only per-record hooks overridden."""

            tool_name = "legacy"
            subscribed_categories = frozenset({EventCategory.MEMORY_ACCESS})

            def on_memory_access(self, event):
                seen.append(event)

        tool = LegacyTool()
        assert tool.wants(EventCategory.MEMORY_ACCESS_BATCH)
        batch = MemoryAccessBatch(
            kernel_launch_id=9,
            addresses=(0x100, 0x200), sizes=(4, 8), write_flags=(False, True),
            thread_indices=(1, 2), block_indices=(0, 1),
            device_index=3, source="test",
        )
        tool.handle_event(batch)
        assert [e.address for e in seen] == [0x100, 0x200]
        assert [e.is_write for e in seen] == [False, True]
        assert all(e.kernel_launch_id == 9 and e.device_index == 3 for e in seen)
        # Logical event accounting counts records, not containers.
        assert tool.events_received == 2

    def test_instruction_batch_unroll(self):
        kinds: list[InstructionKind] = []

        class BarrierCounter(PastaTool):
            tool_name = "barrier_counter"
            subscribed_categories = frozenset({EventCategory.INSTRUCTION})

            def on_instruction(self, event):
                kinds.append(event.kind)

        batch = InstructionBatch(
            kernel_launch_id=1,
            kinds=(InstructionKind.BLOCK_ENTRY, InstructionKind.BLOCK_EXIT),
            thread_indices=(0, 0), block_indices=(0, 0),
        )
        BarrierCounter().handle_event(batch)
        assert kinds == [InstructionKind.BLOCK_ENTRY, InstructionKind.BLOCK_EXIT]


class TestAllocatorStress:
    def _churn(self, allocator: CachingAllocator, steps: int, seed: int) -> None:
        rng = random.Random(seed)
        live = []
        for step in range(steps):
            if live and (len(live) > 40 or rng.random() < 0.45):
                victim = live.pop(rng.randrange(len(live)))
                allocator.free_tensor(victim)
            else:
                nbytes = rng.choice([256, 4 << 10, 64 << 10, 1 << 20, 3 << 20])
                jitter = rng.randrange(1, 512)
                live.append(
                    allocator.allocate_tensor(((nbytes + jitter),), dtype=DType.INT8)
                )
            if step % 64 == 0:
                allocator.check_consistency()
        allocator.check_consistency()
        allocator.free_tensors(live)
        allocator.check_consistency()

    @pytest.mark.parametrize("seed", [1, 7, 2026])
    def test_alloc_free_churn_keeps_invariants(self, seed):
        allocator = CachingAllocator(create_runtime(A100))
        self._churn(allocator, steps=500, seed=seed)
        # Everything freed: one fully coalesced free block per segment.
        assert allocator.stats.allocated_bytes == 0
        for segment in allocator.segments:
            assert len(segment.blocks) == 1
            assert segment.blocks[0].free
            assert segment.blocks[0].size == segment.size
        released = allocator.empty_cache()
        assert released == allocator.stats.peak_reserved_bytes or released > 0
        assert allocator.reserved_bytes() == 0
        allocator.check_consistency()

    def test_coalescing_merges_across_free_order(self):
        allocator = CachingAllocator(create_runtime(A100))
        tensors = [allocator.allocate_tensor((256 << 10,), dtype=DType.INT8)
                   for _ in range(8)]
        # Free in an interleaved order: odd indices, then even.
        for t in tensors[1::2]:
            allocator.free_tensor(t)
        allocator.check_consistency()
        for t in tensors[0::2]:
            allocator.free_tensor(t)
        allocator.check_consistency()
        for segment in allocator.segments:
            free_blocks = [b for b in segment.blocks if b.free]
            assert len(free_blocks) == 1

    def test_best_fit_matches_linear_reference(self):
        """The bisect index picks the block a linear best-fit scan would."""
        allocator = CachingAllocator(create_runtime(A100))
        rng = random.Random(99)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.5:
                allocator.free_tensor(live.pop(rng.randrange(len(live))))
            else:
                nbytes = rng.choice([512, 8 << 10, 128 << 10, 2 << 20])
                request = round_size(nbytes)
                pool = allocator._pool_for(request)
                expected = None
                for segment in allocator.segments:
                    if segment.pool != pool:
                        continue
                    for block in segment.blocks:
                        if block.free and block.size >= request:
                            if expected is None or block.size < expected.size:
                                expected = block
                actual = allocator._free_blocks[pool].best_fit(request)
                if expected is None:
                    assert actual is None
                else:
                    assert actual is not None
                    assert actual.size == expected.size
                live.append(allocator.allocate_tensor((nbytes,), dtype=DType.INT8))
        allocator.check_consistency()

    def test_peak_stats_invariant_under_churn(self):
        """Peak tracking equals an independent running-maximum reference."""
        allocator = CachingAllocator(create_runtime(A100))
        observed_peak = 0
        rng = random.Random(5)
        live = []
        for _ in range(400):
            if live and rng.random() < 0.48:
                allocator.free_tensor(live.pop(rng.randrange(len(live))))
            else:
                live.append(allocator.allocate_tensor(
                    (rng.choice([1 << 10, 256 << 10, 2 << 20]),), dtype=DType.INT8))
            observed_peak = max(observed_peak, allocator.stats.allocated_bytes)
        assert allocator.stats.peak_allocated_bytes == observed_peak
        assert allocator.stats.allocation_count - allocator.stats.free_count == len(live)

    def test_empty_cache_drops_free_index_entries(self):
        allocator = CachingAllocator(create_runtime(A100))
        t = allocator.allocate_tensor((4 * MiB,), dtype=DType.INT8)
        allocator.free_tensor(t)
        assert len(allocator._free_blocks["large"]) > 0
        allocator.empty_cache()
        assert len(allocator._free_blocks["large"]) == 0
        allocator.check_consistency()
