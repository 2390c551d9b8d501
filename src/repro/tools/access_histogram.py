"""Sampled device-record histogram tool (batch-native fine-grained analysis).

The simplest member of the tool collection that consumes *raw* fine-grained
records rather than the GPU-preprocessed per-kernel profiles: it histograms
the sampled memory accesses (read/write mix, access widths, distinct 2 MB
blocks touched, records per kernel launch) and tallies the non-memory
instruction kinds the backend observed.

It is also the reference implementation of a **batch-aware** tool: its only
fine-grained hooks, ``on_memory_access_batch`` / ``on_instruction_batch``,
reduce the columnar numpy arrays (int64 addresses and sizes, bool write
flags) with array operations, so profiling a workload never materialises
one event object, or one Python scalar, per sampled access.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.events import EventCategory, InstructionBatch, MemoryAccessBatch
from repro.core.serialization import json_sanitize
from repro.core.tool import PastaTool
from repro.gpusim.uvm import UVM_PAGE_BYTES


class AccessHistogramTool(PastaTool):
    """Histograms sampled device-side records (accesses and instructions)."""

    tool_name = "access_histogram"
    requires_fine_grained = True
    subscribed_categories = frozenset(
        {EventCategory.MEMORY_ACCESS, EventCategory.INSTRUCTION}
    )

    def __init__(self, block_bytes: int = UVM_PAGE_BYTES) -> None:
        super().__init__()
        self.block_bytes = block_bytes
        self.reads = 0
        self.writes = 0
        #: access width in bytes -> sampled count.
        self.accesses_by_size: dict[int, int] = defaultdict(int)
        #: kernel launch id -> sampled records (accesses + instructions).
        self.records_by_launch: dict[int, int] = defaultdict(int)
        #: instruction kind value -> sampled count (non-memory records).
        self.instructions_by_kind: dict[str, int] = defaultdict(int)
        #: 2 MB-aligned blocks with at least one sampled access.
        self._blocks: set[int] = set()

    # ------------------------------------------------------------------ #
    # batch hooks (columnar accumulation, no per-record events)
    # ------------------------------------------------------------------ #
    def on_memory_access_batch(self, event: MemoryAccessBatch) -> None:
        records = len(event.addresses)
        writes = int(np.count_nonzero(event.write_flags))
        self.writes += writes
        self.reads += records - writes
        sizes, counts = np.unique(event.sizes, return_counts=True)
        by_size = self.accesses_by_size
        for size, count in zip(sizes.tolist(), counts.tolist()):
            by_size[size] += count
        self.records_by_launch[event.kernel_launch_id] += records
        # Distinct blocks by sorting: numpy 2's np.unique hashes, which is
        # slower on a launch's few thousand block ids.
        blocks = np.sort(event.addresses // self.block_bytes)
        first = np.ones(len(blocks), dtype=bool)
        first[1:] = blocks[1:] != blocks[:-1]  # the first of each run
        self._blocks.update(blocks[first].tolist())

    def on_instruction_batch(self, event: InstructionBatch) -> None:
        kinds = event.kinds
        by_kind = self.instructions_by_kind
        # One count per distinct kind: a batch is a few runs of one kind.
        for kind in dict.fromkeys(kinds):
            by_kind[kind.value] += kinds.count(kind)
        self.records_by_launch[event.kernel_launch_id] += len(kinds)

    # ------------------------------------------------------------------ #
    # derived results
    # ------------------------------------------------------------------ #
    @property
    def sampled_accesses(self) -> int:
        """Total sampled memory accesses."""
        return self.reads + self.writes

    def distinct_blocks(self) -> int:
        """Number of 2 MB blocks with at least one sampled access."""
        return len(self._blocks)

    def report(self) -> dict[str, object]:
        total = self.sampled_accesses
        return json_sanitize({
            "tool": self.tool_name,
            "sampled_accesses": total,
            "reads": self.reads,
            "writes": self.writes,
            "write_fraction": (self.writes / total) if total else 0.0,
            "distinct_blocks": self.distinct_blocks(),
            "instrumented_launches": len(self.records_by_launch),
            "accesses_by_size": dict(sorted(self.accesses_by_size.items())),
            "instructions_by_kind": dict(sorted(self.instructions_by_kind.items())),
        })
