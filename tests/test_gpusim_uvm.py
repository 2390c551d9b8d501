"""Tests for the UVM (unified virtual memory) simulation."""

from __future__ import annotations

import pytest

from repro.errors import UvmError
from repro.gpusim.device import GpuDevice, MiB, RTX3060
from repro.gpusim.uvm import UVM_PAGE_BYTES, UvmConfig, UvmManager


def make_uvm(capacity_pages: int = 8) -> UvmManager:
    device = GpuDevice(spec=RTX3060)
    return UvmManager(device, device_capacity_bytes=capacity_pages * UVM_PAGE_BYTES)


class TestRegions:
    def test_register_and_footprint(self):
        uvm = make_uvm()
        uvm.register_region(0x1000_0000, 10 * MiB)
        uvm.register_region(0x2000_0000, 6 * MiB)
        assert uvm.managed_bytes == 16 * MiB

    def test_register_rejects_empty_region(self):
        with pytest.raises(UvmError):
            make_uvm().register_region(0x1000, 0)

    def test_oversubscription_factor(self):
        uvm = make_uvm(capacity_pages=4)  # 8 MiB capacity
        uvm.register_region(0x1000_0000, 24 * MiB)
        assert uvm.oversubscription_factor == pytest.approx(3.0)


class TestFaultDrivenAccess:
    def test_first_touch_faults_and_migrates(self):
        uvm = make_uvm()
        uvm.register_region(0x1000_0000, 4 * MiB)
        cost = uvm.access_range(0x1000_0000, 4 * MiB)
        assert cost > 0
        assert uvm.stats.page_faults >= 1
        assert uvm.stats.pages_migrated_on_fault == 2
        assert uvm.resident_pages == 2

    def test_second_touch_is_free(self):
        uvm = make_uvm()
        uvm.register_region(0x1000_0000, 4 * MiB)
        uvm.access_range(0x1000_0000, 4 * MiB)
        cost = uvm.access_range(0x1000_0000, 4 * MiB)
        assert cost == 0.0

    def test_empty_access_is_free(self):
        uvm = make_uvm()
        assert uvm.access_range(0x1000_0000, 0) == 0.0

    def test_eviction_under_pressure(self):
        uvm = make_uvm(capacity_pages=2)
        uvm.register_region(0x1000_0000, 16 * MiB)
        uvm.access_range(0x1000_0000, 16 * MiB)
        # Only two pages fit; the rest were evicted along the way.
        assert uvm.resident_pages <= 2
        assert uvm.stats.pages_evicted > 0

    def test_refaults_are_counted_as_thrashing(self):
        uvm = make_uvm(capacity_pages=2)
        base = 0x1000_0000
        uvm.register_region(base, 16 * MiB)
        uvm.access_range(base, 16 * MiB)
        uvm.access_range(base, 4 * MiB)  # these pages were evicted earlier
        assert uvm.stats.refaults > 0


class TestPrefetchAndPinning:
    def test_prefetch_makes_pages_resident_cheaply(self):
        uvm = make_uvm()
        base = 0x1000_0000
        uvm.register_region(base, 8 * MiB)
        prefetch_cost = uvm.prefetch_range(base, 8 * MiB)
        assert uvm.resident_pages == 4
        access_cost = uvm.access_range(base, 8 * MiB)
        assert access_cost == 0.0
        # Prefetch (overlapped, no fault handling) is cheaper than faulting the
        # same pages on demand.
        faulting = make_uvm()
        faulting.register_region(base, 8 * MiB)
        fault_cost = faulting.access_range(base, 8 * MiB)
        assert prefetch_cost < fault_cost

    def test_prefetch_already_resident_is_free(self):
        uvm = make_uvm()
        base = 0x1000_0000
        uvm.register_region(base, 4 * MiB)
        uvm.prefetch_range(base, 4 * MiB)
        assert uvm.prefetch_range(base, 4 * MiB) == 0.0

    def test_prefetch_under_pressure_is_less_overlapped(self):
        config = UvmConfig()
        # Plenty of room: cheap prefetch.
        roomy = make_uvm(capacity_pages=16)
        roomy.register_region(0x1000_0000, 8 * MiB)
        cheap = roomy.prefetch_range(0x1000_0000, 8 * MiB)
        # Tight memory: the same prefetch must evict and loses its overlap.
        tight = UvmManager(GpuDevice(spec=RTX3060), device_capacity_bytes=4 * UVM_PAGE_BYTES,
                           config=config)
        tight.register_region(0x1000_0000, 8 * MiB)
        tight.register_region(0x2000_0000, 8 * MiB)
        tight.prefetch_range(0x2000_0000, 8 * MiB)
        pressured = tight.prefetch_range(0x1000_0000, 8 * MiB)
        assert pressured > cheap


class TestOwnRangeIsNeverEvicted:
    """Making room for a range's missing pages evicts only pages outside it.

    Three pages of capacity hold pages 1, 0 and 5 (least recent first); the
    range covers pages 0-2, so only page 2 comes in and page 5 must go.
    """

    @staticmethod
    def lru_1_0_5() -> UvmManager:
        uvm = make_uvm(capacity_pages=3)
        for page in (1, 0, 5):
            uvm.access_range(page * UVM_PAGE_BYTES, UVM_PAGE_BYTES)
        return uvm

    def test_access(self):
        uvm = self.lru_1_0_5()
        uvm.access_range(0, 3 * UVM_PAGE_BYTES)
        assert uvm.stats.pages_evicted == 1
        assert uvm.stats.pages_migrated_on_fault == 4
        assert uvm.access_range(0, 3 * UVM_PAGE_BYTES) == 0.0

    def test_prefetch(self):
        uvm = self.lru_1_0_5()
        uvm.prefetch_range(0, 3 * UVM_PAGE_BYTES)
        assert uvm.stats.pages_evicted == 1
        assert uvm.stats.pages_prefetched == 1
        assert uvm.access_range(0, 3 * UVM_PAGE_BYTES) == 0.0


class TestHelpers:
    def test_capacity_must_be_positive(self):
        with pytest.raises(UvmError):
            UvmManager(GpuDevice(spec=RTX3060), device_capacity_bytes=0)
