"""Unified Virtual Memory (UVM) simulation: pages, faults, migration, prefetch.

NVIDIA's UVM exposes a single address space shared by CPU and GPU; pages
migrate on demand when the GPU faults on a non-resident address, and the pool
can be *oversubscribed* — the managed footprint may exceed device capacity, in
which case resident pages must be evicted to make room.  Section V-C of the
paper builds a UVM prefetching tool on top of PASTA and compares object-level
and tensor-level prefetch granularities under no oversubscription (Figure 11)
and 3x oversubscription (Figure 12).

:class:`UvmManager` is the simulator's one UVM model, and its one user is
:class:`~repro.tools.uvm_prefetch.UvmPrefetchExecutor`: the executor replays
a profiled kernel schedule's prefetches and accesses against it, on its own
timeline.  The runtime's allocations and kernel launches never page.  The
model provides:

* a page-granular residency map over the registered managed footprint,
* a fault-driven migration path with per-fault latency plus transfer time,
* a batched prefetch path (``cudaMemPrefetchAsync``-like) that skips fault
  handling and partially overlaps with compute,
* an LRU eviction policy, and
* counters for faults, migrations, evictions and thrashing.

Timing constants follow published UVM measurements in spirit (tens of
microseconds per fault group, PCIe-bound transfers); tests assert relative
behaviour, not absolute times.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.errors import UvmError
from repro.gpusim.device import GpuDevice, MiB

#: UVM migrates data in 2 MiB blocks on modern GPUs; the paper's hotness tool
#: also uses 2 MB blocks (Figure 13), so this is the page granularity.
UVM_PAGE_BYTES = 2 * MiB


@dataclass(frozen=True)
class UvmConfig:
    """Timing and policy constants of the UVM model."""

    page_bytes: int = UVM_PAGE_BYTES
    #: Fixed cost of servicing one GPU page-fault group (driver round trip).
    fault_latency_ns: float = 25_000.0
    #: Fraction of prefetch transfer time hidden behind compute.  Prefetches
    #: are issued ahead of the kernel on a separate stream, so most of their
    #: transfer overlaps with useful work — as long as device memory is not
    #: under pressure.
    prefetch_overlap: float = 0.85
    #: Overlap achieved when a prefetch has to evict resident pages to make
    #: room: the prefetch stream then contends with eviction write-backs and
    #: demand migrations, so very little of it hides behind compute.  This is
    #: the mechanism behind the object-level prefetch slowdown in Figure 12.
    prefetch_overlap_under_pressure: float = 0.2
    #: Fraction of eviction write-back time hidden behind compute.
    eviction_overlap: float = 0.5
    #: Probability-like fraction of evicted-and-refaulted pages that are dirty
    #: and must be written back before reuse.
    dirty_fraction: float = 0.5


@dataclass
class UvmStats:
    """Counters accumulated by the UVM manager."""

    page_faults: int = 0
    pages_migrated_on_fault: int = 0
    pages_prefetched: int = 0
    pages_evicted: int = 0
    refaults: int = 0
    fault_time_ns: float = 0.0
    migration_time_ns: float = 0.0
    prefetch_time_ns: float = 0.0
    eviction_time_ns: float = 0.0


class UvmManager:
    """Page-granular residency manager for one device's managed memory."""

    def __init__(
        self,
        device: GpuDevice,
        device_capacity_bytes: Optional[int] = None,
        config: Optional[UvmConfig] = None,
    ) -> None:
        self.device = device
        self.config = config or UvmConfig()
        #: Device bytes available for managed pages.  The paper limits this to
        #: control the oversubscription factor; tests do the same.
        self.device_capacity_bytes = (
            device.usable_memory_bytes if device_capacity_bytes is None else int(device_capacity_bytes)
        )
        if self.device_capacity_bytes <= 0:
            raise UvmError("device capacity for managed memory must be positive")
        #: Total bytes of registered managed memory.
        self.managed_bytes = 0
        #: page id -> True, ordered by recency (LRU at the front).
        self._resident: "OrderedDict[int, bool]" = OrderedDict()
        self._ever_evicted: set[int] = set()
        self.stats = UvmStats()

    def register_region(self, address: int, size: int) -> None:
        """Register the managed allocation at ``address``; its size joins the footprint."""
        if size <= 0:
            raise UvmError("managed region size must be positive")
        self.managed_bytes += size

    @property
    def oversubscription_factor(self) -> float:
        """Managed footprint divided by device capacity."""
        return self.managed_bytes / self.device_capacity_bytes

    # ------------------------------------------------------------------ #
    # page helpers
    # ------------------------------------------------------------------ #
    def page_id(self, address: int) -> int:
        """Page index containing ``address``."""
        return address // self.config.page_bytes

    def _pages_in_range(self, address: int, size: int) -> range:
        if size <= 0:
            return range(0)
        first = self.page_id(address)
        last = self.page_id(address + size - 1)
        return range(first, last + 1)

    @property
    def resident_pages(self) -> int:
        """Number of pages currently resident on the device."""
        return len(self._resident)

    @property
    def capacity_pages(self) -> int:
        """How many managed pages fit on the device at once."""
        return max(1, self.device_capacity_bytes // self.config.page_bytes)

    def _transfer_ns(self, nbytes: float) -> float:
        bandwidth = self.device.spec.pcie_bandwidth_gbs * 1e9
        return nbytes / bandwidth * 1e9

    # ------------------------------------------------------------------ #
    # residency transitions
    # ------------------------------------------------------------------ #
    def _evict_lru(self, incoming: int = 0) -> float:
        """Evict LRU pages until ``incoming`` more fit; returns the eviction time.

        A range larger than the capacity evicts everything resident before
        its pages come in; evicting again with nothing incoming then keeps
        only the most recently touched pages, as if they streamed through.
        """
        writeback_ns = self._transfer_ns(self.config.page_bytes * self.config.dirty_fraction)
        eviction_ns = 0.0
        while self._resident and len(self._resident) + incoming > self.capacity_pages:
            victim, _ = self._resident.popitem(last=False)
            self._ever_evicted.add(victim)
            self.stats.pages_evicted += 1
            eviction_ns += writeback_ns * (1.0 - self.config.eviction_overlap)
        self.stats.eviction_time_ns += eviction_ns
        return eviction_ns

    def _touch(self, page: int) -> None:
        self._resident.pop(page, None)
        self._resident[page] = True

    def _promote(self, pages: range) -> list[int]:
        """Make the resident ``pages`` most recent; returns the missing ones.

        Called before making room, so a range never evicts its own resident
        pages unless the range alone exceeds the capacity.
        """
        missing = []
        for page in pages:
            if page in self._resident:
                self._resident.move_to_end(page)
            else:
                missing.append(page)
        return missing

    # ------------------------------------------------------------------ #
    # public operations
    # ------------------------------------------------------------------ #
    def access_range(self, address: int, size: int) -> float:
        """Simulate the GPU touching ``[address, address+size)`` during a kernel.

        Non-resident pages fault and migrate on demand; faults on previously
        evicted pages are counted as *refaults* (the thrashing signal).
        Returns the time in nanoseconds this access charges to the kernel's
        critical path.
        """
        pages = self._pages_in_range(address, size)
        if not pages:
            return 0.0
        missing = self._promote(pages)
        elapsed = 0.0
        if missing:
            elapsed += self._evict_lru(len(missing))
            if len(pages) > self.capacity_pages:
                # Making room evicted pages of this very range: they fault
                # back in with the rest.
                missing = [page for page in pages if page not in self._resident]
            # Faults are serviced in groups (the driver coalesces neighbouring
            # faults); charge one latency per group of up to 16 pages.
            groups = (len(missing) + 15) // 16
            fault_ns = groups * self.config.fault_latency_ns
            migrate_ns = self._transfer_ns(len(missing) * self.config.page_bytes)
            self.stats.page_faults += groups
            self.stats.pages_migrated_on_fault += len(missing)
            self.stats.refaults += sum(1 for p in missing if p in self._ever_evicted)
            self.stats.fault_time_ns += fault_ns
            self.stats.migration_time_ns += migrate_ns
            elapsed += fault_ns + migrate_ns
        for page in pages:
            self._touch(page)
        elapsed += self._evict_lru()
        return elapsed

    def prefetch_range(self, address: int, size: int) -> float:
        """Simulate ``cudaMemPrefetchAsync`` over ``[address, address+size)``.

        Returns the non-overlapped time charged to the critical path.  Already
        resident pages cost nothing.
        """
        missing = self._promote(self._pages_in_range(address, size))
        if not missing:
            return 0.0
        evicted_before = self.stats.pages_evicted
        elapsed = self._evict_lru(len(missing))
        under_pressure = self.stats.pages_evicted > evicted_before
        overlap = (
            self.config.prefetch_overlap_under_pressure
            if under_pressure
            else self.config.prefetch_overlap
        )
        transfer_ns = self._transfer_ns(len(missing) * self.config.page_bytes)
        visible_ns = transfer_ns * (1.0 - overlap)
        self.stats.pages_prefetched += len(missing)
        self.stats.prefetch_time_ns += visible_ns
        for page in missing:
            self._resident[page] = True
        return elapsed + visible_ns + self._evict_lru()
