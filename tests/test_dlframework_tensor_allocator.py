"""Tests for tensors and the caching (pool) allocator."""

from __future__ import annotations

import pytest

from repro.errors import AllocatorError, ShapeError
from repro.dlframework.allocator import (
    CachingAllocator,
    CUDA_ALLOCATOR_PROFILE,
    HIP_ALLOCATOR_PROFILE,
    MemoryUsageRecord,
    round_size,
)
from repro.dlframework.tensor import DType, Tensor, check_matmul_shapes
from repro.gpusim.device import A100, MiB
from repro.gpusim.runtime import create_runtime


@pytest.fixture
def allocator(a100_runtime) -> CachingAllocator:
    return CachingAllocator(a100_runtime)


class TestTensor:
    def test_numel_and_nbytes(self):
        t = Tensor(shape=(2, 3, 4), dtype=DType.FLOAT32)
        assert t.numel == 24
        assert t.nbytes == 96

    def test_dtype_itemsizes(self):
        assert Tensor(shape=(8,), dtype=DType.FLOAT16).nbytes == 16
        assert Tensor(shape=(8,), dtype=DType.INT64).nbytes == 64
        assert Tensor(shape=(8,), dtype=DType.BOOL).nbytes == 8

    def test_scalar_tensor(self):
        t = Tensor(shape=())
        assert t.numel == 1

    def test_negative_shape_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(shape=(2, -1))

    def test_size_accessor(self):
        t = Tensor(shape=(4, 5))
        assert t.size() == (4, 5)
        assert t.size(1) == 5

    def test_matmul_shape_checking(self):
        assert check_matmul_shapes((2, 3), (3, 4)) == (2, 4)
        assert check_matmul_shapes((8, 2, 3), (8, 3, 4)) == (8, 2, 4)
        with pytest.raises(ShapeError):
            check_matmul_shapes((2, 3), (4, 5))
        with pytest.raises(ShapeError):
            check_matmul_shapes((2, 2, 3), (3, 3, 4))
        with pytest.raises(ShapeError):
            check_matmul_shapes((3,), (3,))


class TestRounding:
    def test_round_size(self):
        assert round_size(1) == 512
        assert round_size(512) == 512
        assert round_size(513) == 1024

    def test_round_size_non_positive(self):
        assert round_size(0) == 512


class TestCachingAllocator:
    def test_allocation_assigns_address_inside_a_segment(self, allocator):
        t = allocator.allocate_tensor((1024,), name="x")
        assert t.address != 0
        segment = allocator.segment_for_address(t.address)
        assert segment is not None
        assert t.segment_object_id == segment.memory_object.object_id

    def test_small_and_large_pools(self, allocator):
        small = allocator.allocate_tensor((1024,))
        large = allocator.allocate_tensor((8 * MiB // 4,))
        small_seg = allocator.segment_for_address(small.address)
        large_seg = allocator.segment_for_address(large.address)
        assert small_seg.pool == "small"
        assert large_seg.pool == "large"

    def test_multiple_tensors_share_one_segment(self, allocator):
        tensors = [allocator.allocate_tensor((256,)) for _ in range(10)]
        segments = {t.segment_object_id for t in tensors}
        assert len(segments) == 1
        # This is the object/tensor granularity mismatch of Section V-C1.

    def test_free_and_reuse_cached_block(self, allocator):
        t1 = allocator.allocate_tensor((4096,))
        address = t1.address
        allocator.free_tensor(t1)
        t2 = allocator.allocate_tensor((4096,))
        assert t2.address == address
        assert allocator.stats.cache_hits >= 1

    def test_freed_blocks_do_not_hit_the_driver(self, allocator):
        runtime_allocs_before = allocator.runtime.allocator.alloc_count
        t = allocator.allocate_tensor((4096,))
        allocator.free_tensor(t)
        allocator.allocate_tensor((4096,))
        # One segment allocation at most; the free/realloc cycle is pool-internal.
        assert allocator.runtime.allocator.alloc_count <= runtime_allocs_before + 1

    def test_double_free_raises(self, allocator):
        t = allocator.allocate_tensor((4096,))
        allocator.free_tensor(t)
        with pytest.raises(AllocatorError):
            allocator.free_tensor(t)

    def test_free_unallocated_tensor_raises(self, allocator):
        with pytest.raises(AllocatorError):
            allocator.free_tensor(Tensor(shape=(4,)))

    def test_stats_track_allocated_and_peak(self, allocator):
        t1 = allocator.allocate_tensor((MiB,), dtype=DType.INT8)
        t2 = allocator.allocate_tensor((MiB,), dtype=DType.INT8)
        peak = allocator.stats.peak_allocated_bytes
        allocator.free_tensor(t1)
        assert allocator.stats.allocated_bytes < peak
        assert allocator.stats.peak_allocated_bytes == peak
        allocator.free_tensor(t2)
        assert allocator.stats.allocated_bytes == 0

    def test_coalescing_allows_larger_reuse(self, allocator):
        a = allocator.allocate_tensor((100_000,), dtype=DType.INT8)
        b = allocator.allocate_tensor((100_000,), dtype=DType.INT8)
        segments_before = allocator.stats.segment_count
        allocator.free_tensor(a)
        allocator.free_tensor(b)
        # After coalescing, a request the size of both fits without a new segment.
        allocator.allocate_tensor((200_000,), dtype=DType.INT8)
        assert allocator.stats.segment_count == segments_before

    def test_empty_cache_returns_free_segments_to_driver(self, allocator):
        t = allocator.allocate_tensor((4 * MiB,), dtype=DType.INT8)
        allocator.free_tensor(t)
        released = allocator.empty_cache()
        assert released > 0
        assert allocator.reserved_bytes() == 0

    def test_empty_cache_keeps_segments_with_live_blocks(self, allocator):
        keep = allocator.allocate_tensor((4096,))
        tmp = allocator.allocate_tensor((4096,))
        allocator.free_tensor(tmp)
        allocator.empty_cache()
        assert allocator.segment_for_address(keep.address) is not None


class TestMemoryUsageCallbacks:
    def test_callbacks_report_signed_deltas(self, allocator):
        records: list[MemoryUsageRecord] = []
        allocator.register_callback(records.append)
        t = allocator.allocate_tensor((4096,), name="activation")
        allocator.free_tensor(t)
        assert len(records) == 2
        assert records[0].delta_bytes > 0
        assert records[1].delta_bytes < 0
        assert records[0].tensor_name == "activation"
        assert records[1].allocated_bytes == 0

    def test_event_index_is_monotonic(self, allocator):
        records: list[MemoryUsageRecord] = []
        allocator.register_callback(records.append)
        for _ in range(5):
            t = allocator.allocate_tensor((1024,))
            allocator.free_tensor(t)
        indices = [r.event_index for r in records]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    def test_unregister_callback(self, allocator):
        records = []
        allocator.register_callback(records.append)
        allocator.unregister_callback(records.append)
        allocator.allocate_tensor((1024,))
        assert records == []

    def test_usage_timeline_matches_event_count(self, allocator):
        for _ in range(3):
            allocator.allocate_tensor((1024,))
        assert len(allocator.usage_timeline) == allocator.event_count == 3


class TestBackendProfiles:
    def test_hip_profile_uses_smaller_large_segments(self):
        assert HIP_ALLOCATOR_PROFILE.large_segment_bytes < CUDA_ALLOCATOR_PROFILE.large_segment_bytes

    def test_hip_allocator_creates_more_segments_for_same_workload(self):
        cuda_alloc = CachingAllocator(create_runtime(A100), CUDA_ALLOCATOR_PROFILE)
        hip_alloc = CachingAllocator(create_runtime(A100), HIP_ALLOCATOR_PROFILE)
        for allocator in (cuda_alloc, hip_alloc):
            for _ in range(12):
                allocator.allocate_tensor((2 * MiB,), dtype=DType.INT8)
        assert hip_alloc.stats.segment_count >= cuda_alloc.stats.segment_count
