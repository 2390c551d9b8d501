"""Time-series memory-hotness analysis tool (Section V-C2, Figure 13).

Tracks access "hotness" over time at the granularity of 2 MB virtual-memory
blocks (the UVM migration granularity).  Time is discretised into windows of
consecutive kernel launches; for every window the tool accumulates the number
of accesses that fell into each block.  From the resulting block x window
matrix it classifies blocks as

* **long-lived hot** — accessed in most windows (model parameters; good
  candidates for pinning / ``cudaMemPrefetchAsync``), or
* **bursty** — heavily accessed in a few adjacent windows and idle otherwise
  (transient activations / KV-cache-like data; candidates for pro-active
  eviction).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.events import EventCategory, KernelLaunchEvent, MemoryAccessBatch
from repro.core.serialization import json_sanitize
from repro.core.tool import PastaTool
from repro.gpusim.uvm import UVM_PAGE_BYTES


@dataclass(frozen=True)
class BlockClassification:
    """Classification of one 2 MB block."""

    block_id: int
    total_accesses: int
    active_windows: int
    total_windows: int
    kind: str  # "long_lived_hot", "bursty", or "cold"

    @property
    def activity_ratio(self) -> float:
        """Fraction of windows in which the block was accessed."""
        if self.total_windows == 0:
            return 0.0
        return self.active_windows / self.total_windows


class TimeSeriesHotnessTool(PastaTool):
    """Builds a block x time-window access-count matrix.

    By default the matrix is estimated from each launch's argument metadata
    (address + referenced bytes + access count), which needs no device-side
    instrumentation.  With ``use_sampled_accesses=True`` the tool instead
    subscribes to the fine-grained access stream and attributes the *sampled*
    accesses to blocks — exact per-address attribution at the cost of
    requiring fine-grained instrumentation.  The sampled path is batch-aware:
    columnar access batches are consumed directly.
    """

    tool_name = "hotness"
    subscribed_categories = frozenset({EventCategory.KERNEL_LAUNCH})

    def __init__(
        self,
        block_bytes: int = UVM_PAGE_BYTES,
        kernels_per_window: int = 10,
        use_sampled_accesses: bool = False,
    ) -> None:
        super().__init__()
        self.block_bytes = block_bytes
        self.kernels_per_window = kernels_per_window
        self.use_sampled_accesses = use_sampled_accesses
        if use_sampled_accesses:
            # Instance-level subscription: also receive the access stream
            # (its batch form is implied) and require instrumentation.
            self.subscribed_categories = self.subscribed_categories | frozenset(
                {EventCategory.MEMORY_ACCESS}
            )
            self.requires_fine_grained = True
        self._kernel_index = 0
        #: window -> block -> accesses
        self._windows: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self._launch_window: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # event hooks
    # ------------------------------------------------------------------ #
    def on_kernel_launch(self, event: KernelLaunchEvent) -> None:
        window = self._kernel_index // self.kernels_per_window
        self._launch_window[event.launch_id] = window
        self._kernel_index += 1
        if self.use_sampled_accesses:
            # Attribution happens per sampled access (the records arrive
            # just before their launch's canonical event).
            return
        # Attribute accesses per 2 MB block from the launch's argument metadata
        # (address + referenced bytes + access count), spreading each
        # argument's accesses uniformly over the blocks it touches.
        block_bytes = self.block_bytes
        counts = self._windows[window]
        for arg in event.arguments:
            access_count = arg.access_count
            referenced = arg.referenced_bytes
            if access_count <= 0 or referenced <= 0:
                continue
            first = arg.address // block_bytes
            last = (arg.address + referenced - 1) // block_bytes
            per_block = access_count // (last - first + 1) or 1
            for block in range(first, last + 1):
                counts[block] += per_block

    def _current_window(self) -> int:
        # Device records precede their launch's canonical launch-end event,
        # so the launch they belong to has the *current* kernel index.
        return self._kernel_index // self.kernels_per_window

    def on_memory_access_batch(self, event: MemoryAccessBatch) -> None:
        if not self.use_sampled_accesses:
            return
        counts = self._windows[self._current_window()]
        block_bytes = self.block_bytes
        for address in event.addresses:
            counts[address // block_bytes] += 1

    # ------------------------------------------------------------------ #
    # derived results
    # ------------------------------------------------------------------ #
    @property
    def window_count(self) -> int:
        """Number of time windows observed."""
        return max(self._windows) + 1 if self._windows else 0

    def block_ids(self) -> list[int]:
        """All 2 MB blocks that received at least one access."""
        blocks: set[int] = set()
        for window in self._windows.values():
            blocks.update(window)
        return sorted(blocks)

    def hotness_matrix(self) -> tuple[list[int], np.ndarray]:
        """Return (block_ids, matrix) with shape (blocks, windows)."""
        blocks = self.block_ids()
        windows = self.window_count
        matrix = np.zeros((len(blocks), windows), dtype=np.int64)
        index = {block: i for i, block in enumerate(blocks)}
        for window_id, counts in self._windows.items():
            for block, count in counts.items():
                matrix[index[block], window_id] = count
        return blocks, matrix

    def classify_blocks(
        self, hot_ratio: float = 0.6, bursty_ratio: float = 0.25
    ) -> list[BlockClassification]:
        """Classify blocks as long-lived hot, bursty, or cold."""
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

    def prefetch_candidates(self) -> list[int]:
        """Blocks recommended for pinning / proactive prefetch."""
        return [c.block_id for c in self.classify_blocks() if c.kind == "long_lived_hot"]

    def eviction_candidates(self) -> list[int]:
        """Blocks recommended for proactive eviction (bursty, short-lived)."""
        return [c.block_id for c in self.classify_blocks() if c.kind == "bursty"]

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
