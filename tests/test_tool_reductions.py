"""Vectorised tool reductions against their per-element loop references.

The fine-grained tools reduce numpy batch columns with array operations
(``np.unique``, ``np.sort``, ``np.count_nonzero``, ``sum(axis=1)``).  The
classes below keep the per-element loops those reductions replaced, run
over the same records as Python scalars, and every report must come out
byte-identical: on a real gpt2 fine-grained run and on synthetic batches
chosen for the edge cases (empty, one record, duplicate addresses, mixed
access widths, addresses on both sides of a 2 MB block boundary, unsorted
addresses over several blocks).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api
from repro.core.events import (
    InstructionBatch,
    KernelArgumentInfo,
    KernelLaunchEvent,
    MemoryAccessBatch,
)
from repro.core.serialization import json_sanitize, stable_json_dumps
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.uvm import UVM_PAGE_BYTES
from repro.tools import AccessHistogramTool, TimeSeriesHotnessTool
from repro.tools.hotness import BlockClassification


class LoopAccessHistogram(AccessHistogramTool):
    """Reference: the batch hooks as per-element loops over Python scalars."""

    def on_memory_access_batch(self, event: MemoryAccessBatch) -> None:
        write_flags = event.write_flags.tolist()
        addresses = event.addresses.tolist()
        writes = sum(write_flags)
        self.writes += writes
        self.reads += len(write_flags) - writes
        sizes = self.accesses_by_size
        for size in event.sizes.tolist():
            sizes[size] += 1
        self.records_by_launch[event.kernel_launch_id] += len(addresses)
        block_bytes = self.block_bytes
        self._blocks.update(address // block_bytes for address in addresses)

    def on_instruction_batch(self, event: InstructionBatch) -> None:
        by_kind = self.instructions_by_kind
        for kind in event.kinds:
            by_kind[kind.value] += 1
        self.records_by_launch[event.kernel_launch_id] += len(event.kinds)


class LoopHotness(TimeSeriesHotnessTool):
    """Reference: per-address sampled attribution and per-block classification."""

    def on_memory_access_batch(self, event: MemoryAccessBatch) -> None:
        if not self.use_sampled_accesses:
            return
        counts = self._windows[self._current_window()]
        block_bytes = self.block_bytes
        for address in event.addresses.tolist():
            counts[address // block_bytes] += 1

    def classify_blocks(
        self, hot_ratio: float = 0.6, bursty_ratio: float = 0.25
    ) -> list[BlockClassification]:
        blocks, matrix = self.hotness_matrix()
        total_windows = matrix.shape[1]
        out: list[BlockClassification] = []
        for row, block in enumerate(blocks):
            counts = matrix[row]
            active = int(np.count_nonzero(counts))
            total = int(counts.sum())
            ratio = active / total_windows if total_windows else 0.0
            if ratio >= hot_ratio:
                kind = "long_lived_hot"
            elif ratio <= bursty_ratio and total > 0:
                kind = "bursty"
            else:
                kind = "cold" if total == 0 else "intermittent"
            out.append(
                BlockClassification(
                    block_id=block,
                    total_accesses=total,
                    active_windows=active,
                    total_windows=total_windows,
                    kind=kind,
                )
            )
        return out

    def report(self) -> dict[str, object]:
        classes = self.classify_blocks()
        by_kind: dict[str, int] = defaultdict(int)
        for c in classes:
            by_kind[c.kind] += 1
        return json_sanitize({
            "tool": self.tool_name,
            "blocks": len(classes),
            "windows": self.window_count,
            "block_kinds": dict(by_kind),
            "prefetch_candidates": len(self.prefetch_candidates()),
            "eviction_candidates": len(self.eviction_candidates()),
        })


def _named(tool, name):
    tool.tool_name = name
    return tool


def _tool_pairs():
    """(vectorised, loop reference) pairs, each pair under distinct names."""
    return [
        (AccessHistogramTool(), _named(LoopAccessHistogram(), "loop_access_histogram")),
        (TimeSeriesHotnessTool(), _named(LoopHotness(), "loop_hotness")),
        (
            _named(TimeSeriesHotnessTool(use_sampled_accesses=True), "hotness_sampled"),
            _named(LoopHotness(use_sampled_accesses=True), "loop_hotness_sampled"),
        ),
    ]


def _report_without_name(tool) -> str:
    report = dict(tool.report())
    report.pop("tool")
    return stable_json_dumps(report)


#: The bundled fine-grained tool set less access_histogram and hotness,
#: which each test attaches itself.
OTHER_FINE_TOOLS = [
    "kernel_frequency",
    "memory_characteristics",
    "inefficiency_locator",
    "memory_timeline",
]

#: Report digests of a gpt2 fine-grained training iteration in a fresh
#: process, recorded with the per-element implementations (release 1.6.0).
#: Ids come from process-wide counters, hence the fresh process.
GPT2_FINE_REPORT_DIGESTS = {
    "access_histogram": "0e081e3e2e12fed4",
    "hotness": "830d5830aa6860cc",
    "hotness_sampled": "8feff9502421417b",
    "inefficiency_locator": "3ade0252d3e945fb",
    "inefficiency_sampled": "f71a2f63f0ce5591",
    "kernel_frequency": "34588ff4dd3d3308",
    "memory_characteristics": "9be8a5c3ade0bb57",
    "memory_timeline": "cf9c5b224bdf3f01",
}

_DIGEST_SCRIPT = """
import hashlib, json
from repro import api
from repro.core.serialization import stable_json_dumps
from repro.tools import InefficiencyLocatorTool, TimeSeriesHotnessTool

hotness = TimeSeriesHotnessTool(use_sampled_accesses=True)
hotness.tool_name = "hotness_sampled"
inefficiency = InefficiencyLocatorTool(track_device_records=True)
inefficiency.tool_name = "inefficiency_sampled"
result = api.run(
    "gpt2", mode="train", iterations=1, fine_grained=True,
    tools=[*%r, "hotness", "access_histogram", hotness, inefficiency],
)
reports = result.reports()
reports.pop("overhead")
print(json.dumps({
    name: hashlib.sha256(stable_json_dumps(report).encode()).hexdigest()[:16]
    for name, report in reports.items()
}))
""" % (OTHER_FINE_TOOLS,)


def test_gpt2_reports_match_the_per_element_release():
    env = dict(os.environ)
    paths = [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    done = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    assert json.loads(done.stdout) == GPT2_FINE_REPORT_DIGESTS


def test_gpt2_vectorised_equals_loop_reference():
    pairs = _tool_pairs()
    api.run(
        "gpt2", mode="train", iterations=1, fine_grained=True,
        tools=OTHER_FINE_TOOLS + [tool for pair in pairs for tool in pair],
    )
    for tool, reference in pairs:
        assert tool.events_received == reference.events_received > 0
        assert _report_without_name(tool) == _report_without_name(reference), tool.tool_name
    hotness, reference = pairs[2]
    assert hotness.classify_blocks() == reference.classify_blocks()
    assert hotness.eviction_candidates() == reference.eviction_candidates()


def _access_batch(launch_id, addresses, sizes=None, write_flags=None):
    count = len(addresses)
    return MemoryAccessBatch(
        kernel_launch_id=launch_id,
        addresses=addresses,
        sizes=sizes if sizes is not None else [4] * count,
        write_flags=write_flags if write_flags is not None else [i % 3 == 0 for i in range(count)],
        thread_indices=list(range(count)),
        block_indices=[0] * count,
    )


_BOUNDARY = 7 * UVM_PAGE_BYTES

#: name -> device records of one launch (a memory batch and marker kinds).
SYNTHETIC = {
    "empty": ([], {}, ()),
    "one_record": ([0x1000], {"write_flags": [True]}, (InstructionKind.BLOCK_ENTRY,)),
    "duplicate_addresses": ([0x2000] * 5 + [0x2040] * 3, {}, ()),
    "mixed_4_and_8_byte_sizes": (
        [0x3000 + 8 * i for i in range(12)],
        {"sizes": [4, 8] * 6},
        (InstructionKind.BLOCK_ENTRY, InstructionKind.BARRIER, InstructionKind.BLOCK_EXIT),
    ),
    "straddles_2mb_boundary": (
        [_BOUNDARY - 8, _BOUNDARY - 4, _BOUNDARY, _BOUNDARY + 4, _BOUNDARY - 4],
        {"sizes": [8, 4, 4, 8, 4]},
        (InstructionKind.BLOCK_EXIT,) * 2,
    ),
    "unsorted_addresses_over_several_blocks": (
        [_BOUNDARY + 8, 2 * UVM_PAGE_BYTES, _BOUNDARY - 8, 0x40, _BOUNDARY, 2 * UVM_PAGE_BYTES + 4],
        {},
        (InstructionKind.BLOCK_ENTRY,),
    ),
}


def _deliver(tool, launches):
    """Feed launches the way backends emit them: records, then the launch."""
    for launch_id, (addresses, columns, kinds) in enumerate(launches, start=1):
        tool.handle_event(InstructionBatch(
            kernel_launch_id=launch_id, kinds=kinds,
            thread_indices=[0] * len(kinds), block_indices=list(range(len(kinds))),
        ))
        tool.handle_event(_access_batch(launch_id, addresses, **columns))
        # The same span as launch metadata, for hotness's default estimate.
        arguments = ()
        if addresses:
            span = max(addresses) - min(addresses) + 4
            arguments = (KernelArgumentInfo(
                address=min(addresses), size=span, referenced_bytes=span,
                access_count=len(addresses),
            ),)
        tool.handle_event(KernelLaunchEvent(
            kernel_name=f"k{launch_id % 2}", launch_id=launch_id, arguments=arguments,
        ))


#: 37 launches, so four windows of ten (the last one short); the last launch
#: alone touches its block, whose activity ratio of 1/4 sits on the default
#: bursty threshold.
SEVERAL_WINDOWS = list(SYNTHETIC.values()) * 6 + [([64 * UVM_PAGE_BYTES], {}, ())]


@pytest.mark.parametrize(
    "launches",
    [[case] for case in SYNTHETIC.values()] + [SEVERAL_WINDOWS],
    ids=[*SYNTHETIC, "all_cases_over_four_windows"],
)
def test_synthetic_batches_match_loop_reference(launches):
    for tool, reference in _tool_pairs():
        _deliver(tool, launches)
        _deliver(reference, launches)
        assert _report_without_name(tool) == _report_without_name(reference), tool.tool_name
    hotness, reference = _tool_pairs()[2]
    _deliver(hotness, launches)
    _deliver(reference, launches)
    for ratios in ((0.6, 0.25), (0.3, 0.3), (1.0, 0.0)):
        assert hotness.classify_blocks(*ratios) == reference.classify_blocks(*ratios)
