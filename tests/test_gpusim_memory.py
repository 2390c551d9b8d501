"""Tests for the driver-level device memory allocator and memory objects."""

from __future__ import annotations

import pytest

from repro.errors import InvalidAddressError, OutOfMemoryError
from repro.gpusim.device import GpuDevice, MiB, RTX3060
from repro.gpusim.memory import (
    ALLOCATION_ALIGNMENT,
    DeviceMemoryAllocator,
    MemoryKind,
    align_up,
)


@pytest.fixture
def allocator() -> DeviceMemoryAllocator:
    return DeviceMemoryAllocator(GpuDevice(spec=RTX3060))


class TestAlignUp:
    def test_rounds_up_to_alignment(self):
        assert align_up(1) == ALLOCATION_ALIGNMENT
        assert align_up(512) == 512
        assert align_up(513) == 1024

    def test_zero_and_negative_get_minimum(self):
        assert align_up(0) == ALLOCATION_ALIGNMENT
        assert align_up(-5) == ALLOCATION_ALIGNMENT

    def test_custom_alignment(self):
        assert align_up(3 * MiB, 2 * MiB) == 4 * MiB


class TestAllocation:
    def test_allocate_returns_aligned_object(self, allocator):
        obj = allocator.allocate(1000)
        assert obj.size == align_up(1000)
        assert obj.live
        assert obj.kind is MemoryKind.DEVICE

    def test_addresses_are_disjoint(self, allocator):
        a = allocator.allocate(4096)
        b = allocator.allocate(4096)
        assert not a.overlaps(b.address, b.size)
        assert a.address != b.address

    def test_live_bytes_and_peak_tracking(self, allocator):
        a = allocator.allocate(10 * MiB)
        b = allocator.allocate(20 * MiB)
        assert allocator.live_bytes == a.size + b.size
        allocator.free(a)
        assert allocator.live_bytes == b.size
        assert allocator.peak_bytes == a.size + b.size

    def test_out_of_memory_raises(self, allocator):
        with pytest.raises(OutOfMemoryError):
            allocator.allocate(RTX3060.memory_bytes + MiB)

    def test_footprint_includes_freed_objects(self, allocator):
        a = allocator.allocate(MiB)
        allocator.free(a)
        b = allocator.allocate(2 * MiB)
        assert allocator.footprint_bytes() == a.size + b.size


class TestFree:
    def test_double_free_raises(self, allocator):
        obj = allocator.allocate(4096)
        allocator.free(obj)
        with pytest.raises(InvalidAddressError):
            allocator.free(obj)

    def test_free_unknown_object_raises(self, allocator):
        other = DeviceMemoryAllocator(GpuDevice(spec=RTX3060))
        obj = other.allocate(4096)
        with pytest.raises(InvalidAddressError):
            allocator.free(obj)

    def test_free_by_address(self, allocator):
        obj = allocator.allocate(4096)
        freed = allocator.free_by_address(obj.address)
        assert freed.object_id == obj.object_id
        assert not obj.live

    def test_free_by_interior_address_raises(self, allocator):
        obj = allocator.allocate(4096)
        with pytest.raises(InvalidAddressError):
            allocator.free_by_address(obj.address + 8)


class TestLookup:
    def test_lookup_finds_containing_object(self, allocator):
        obj = allocator.allocate(1 * MiB)
        assert allocator.lookup(obj.address) is obj
        assert allocator.lookup(obj.address + obj.size // 2) is obj
        assert allocator.lookup(obj.end - 1) is obj

    def test_lookup_miss_returns_none(self, allocator):
        obj = allocator.allocate(1 * MiB)
        assert allocator.lookup(obj.end + 10 * MiB) is None
        assert allocator.lookup(obj.address - 1) is None

    def test_lookup_respects_liveness(self, allocator):
        obj = allocator.allocate(1 * MiB)
        allocator.free(obj)
        assert allocator.lookup(obj.address) is None
        assert allocator.lookup(obj.address, live_only=False) is obj

    def test_guard_gap_prevents_adjacent_attribution(self, allocator):
        a = allocator.allocate(4096)
        allocator.allocate(4096)
        # An address just past the end of `a` must not resolve to either object.
        assert allocator.lookup(a.end + 1) is None

    def test_live_objects_iteration(self, allocator):
        a = allocator.allocate(4096)
        b = allocator.allocate(4096)
        allocator.free(a)
        live_ids = {o.object_id for o in allocator.live_objects()}
        assert live_ids == {b.object_id}
        all_ids = {o.object_id for o in allocator.all_objects()}
        assert all_ids == {a.object_id, b.object_id}
