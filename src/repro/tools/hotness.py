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

from collections import Counter, defaultdict
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
    each columnar access batch is reduced to per-block counts with
    ``np.unique``.
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
        blocks, hits = np.unique(event.addresses // self.block_bytes, return_counts=True)
        for block, hit in zip(blocks.tolist(), hits.tolist()):
            counts[block] += hit

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

    def _block_kinds(
        self, hot_ratio: float, bursty_ratio: float
    ) -> tuple[list[int], np.ndarray, np.ndarray, list[str]]:
        """Classify every block in one pass over the hotness matrix.

        Returns ``(block_ids, total_accesses, active_windows, kinds)``, the
        per-block columns in ``block_ids`` order.
        """
        blocks, matrix = self.hotness_matrix()
        total_windows = matrix.shape[1]
        active = np.count_nonzero(matrix, axis=1)
        totals = matrix.sum(axis=1)
        ratio = active / total_windows if total_windows else np.zeros(len(blocks))
        kinds = np.where(
            ratio >= hot_ratio,
            "long_lived_hot",
            np.where(
                (ratio <= bursty_ratio) & (totals > 0),
                "bursty",
                np.where(totals == 0, "cold", "intermittent"),
            ),
        )
        return blocks, totals, active, kinds.tolist()

    def classify_blocks(
        self, hot_ratio: float = 0.6, bursty_ratio: float = 0.25
    ) -> list[BlockClassification]:
        """Classify blocks as long-lived hot, bursty, or cold."""
        blocks, totals, active, kinds = self._block_kinds(hot_ratio, bursty_ratio)
        total_windows = self.window_count
        return [
            BlockClassification(
                block_id=block,
                total_accesses=total,
                active_windows=windows,
                total_windows=total_windows,
                kind=kind,
            )
            for block, total, windows, kind in zip(
                blocks, totals.tolist(), active.tolist(), kinds
            )
        ]

    def prefetch_candidates(self) -> list[int]:
        """Blocks recommended for pinning / proactive prefetch."""
        return [c.block_id for c in self.classify_blocks() if c.kind == "long_lived_hot"]

    def eviction_candidates(self) -> list[int]:
        """Blocks recommended for proactive eviction (bursty, short-lived)."""
        return [c.block_id for c in self.classify_blocks() if c.kind == "bursty"]

    def report(self) -> dict[str, object]:
        kinds = self._block_kinds(hot_ratio=0.6, bursty_ratio=0.25)[3]
        # Counter keeps first-seen order, so block_kinds lists the kinds in
        # the order their first block appears.
        by_kind = Counter(kinds)
        return json_sanitize({
            "tool": self.tool_name,
            "blocks": len(kinds),
            "windows": self.window_count,
            "block_kinds": dict(by_kind),
            "prefetch_candidates": by_kind["long_lived_hot"],
            "eviction_candidates": by_kind["bursty"],
        })
