"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core.annotations import RangeFilter
from repro.core.events import KernelLaunchEvent
from repro.core.processor import PastaEventProcessor
from repro.dlframework.allocator import CachingAllocator, round_size
from repro.dlframework.tensor import DType, Tensor
from repro.gpusim.device import GpuDevice, RTX3060
from repro.gpusim.kernel import GridConfig, KernelArgument, KernelLaunch
from repro.gpusim.memory import DeviceMemoryAllocator, align_up
from repro.gpusim.runtime import create_runtime
from repro.gpusim.trace import AnalysisModel, TraceBuffer
from repro.gpusim.uvm import UVM_PAGE_BYTES, UvmManager
from repro.tools import KernelFrequencyTool

# --------------------------------------------------------------------------- #
# alignment and rounding
# --------------------------------------------------------------------------- #


@given(st.integers(min_value=-1000, max_value=1 << 30))
def test_align_up_is_aligned_and_monotone(nbytes):
    aligned = align_up(nbytes)
    assert aligned % 512 == 0
    assert aligned >= max(nbytes, 1)


@given(st.integers(min_value=1, max_value=1 << 28), st.integers(min_value=1, max_value=1 << 28))
def test_round_size_monotonicity(a, b):
    if a <= b:
        assert round_size(a) <= round_size(b)


# --------------------------------------------------------------------------- #
# tensors
# --------------------------------------------------------------------------- #


@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4),
       st.sampled_from(list(DType)))
def test_tensor_size_invariants(shape, dtype):
    tensor = Tensor(shape=tuple(shape), dtype=dtype)
    assert tensor.numel == math.prod(shape)
    assert tensor.nbytes == tensor.numel * dtype.itemsize
    assert tensor.ndim == len(shape)


# --------------------------------------------------------------------------- #
# driver allocator
# --------------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8 * 1024 * 1024), min_size=1, max_size=40))
def test_driver_allocator_live_bytes_match_objects(sizes):
    allocator = DeviceMemoryAllocator(GpuDevice(spec=RTX3060))
    objects = [allocator.allocate(size) for size in sizes]
    assert allocator.live_bytes == sum(o.size for o in objects)
    # Lookup finds every object by an interior address, and addresses are disjoint.
    for obj in objects:
        assert allocator.lookup(obj.address + obj.size // 2) is obj
    for i, a in enumerate(objects):
        for b in objects[i + 1:]:
            assert not a.overlaps(b.address, b.size)
    for obj in objects:
        allocator.free(obj)
    assert allocator.live_bytes == 0


# --------------------------------------------------------------------------- #
# caching allocator
# --------------------------------------------------------------------------- #


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=1 << 20),
                          st.booleans()), min_size=1, max_size=60))
def test_caching_allocator_conservation(operations):
    """Allocated bytes always equal the sum of live tensors' block sizes, and
    reserved bytes never fall below allocated bytes."""
    allocator = CachingAllocator(create_runtime(RTX3060))
    live: list[Tensor] = []
    for nbytes, do_free in operations:
        tensor = allocator.allocate_tensor((nbytes,), dtype=DType.INT8)
        live.append(tensor)
        if do_free and live:
            allocator.free_tensor(live.pop(0))
        assert allocator.stats.allocated_bytes >= 0
        assert allocator.stats.reserved_bytes >= allocator.stats.allocated_bytes
        assert allocator.stats.peak_allocated_bytes >= allocator.stats.allocated_bytes
    allocator.free_tensors(live)
    assert allocator.stats.allocated_bytes == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=1 << 18), min_size=1, max_size=40))
def test_caching_allocator_tensors_stay_inside_their_segment(sizes):
    allocator = CachingAllocator(create_runtime(RTX3060))
    for nbytes in sizes:
        tensor = allocator.allocate_tensor((nbytes,), dtype=DType.INT8)
        segment = allocator.segment_for_address(tensor.address)
        assert segment is not None
        seg_obj = segment.memory_object
        assert seg_obj.address <= tensor.address
        assert tensor.address + tensor.nbytes <= seg_obj.address + seg_obj.size


# --------------------------------------------------------------------------- #
# kernel launches
# --------------------------------------------------------------------------- #

argument_strategy = st.builds(
    KernelArgument,
    address=st.integers(min_value=0x1000, max_value=1 << 40),
    size=st.integers(min_value=0, max_value=1 << 24),
    accessed_fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    is_read=st.booleans(),
    is_written=st.booleans(),
    accesses_per_byte=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(argument_strategy, min_size=0, max_size=6))
def test_kernel_launch_metric_invariants(arguments):
    launch = KernelLaunch(kernel_name="k", grid_config=GridConfig.for_elements(256),
                          arguments=tuple(arguments))
    assert 0 <= launch.working_set_bytes <= launch.memory_footprint_bytes
    assert launch.total_memory_accesses >= 0
    addresses = launch.generate_access_columns(max_records=128).addresses.tolist()
    assert len(addresses) <= 128
    for address in addresses:
        assert any(arg.address <= address < arg.address + max(arg.size, 1)
                   for arg in launch.accessed_arguments())


# --------------------------------------------------------------------------- #
# trace buffer
# --------------------------------------------------------------------------- #


@given(st.integers(min_value=0, max_value=10_000_000))
def test_trace_buffer_accounting_invariants(records):
    buffer = TraceBuffer()
    cpu = buffer.collect(records, AnalysisModel.CPU_SIDE)
    gpu = buffer.collect(records, AnalysisModel.GPU_RESIDENT)
    assert cpu.transferred_bytes >= gpu.transferred_bytes
    assert cpu.flush_rounds >= gpu.flush_rounds == 0
    if records:
        assert cpu.flush_rounds == math.ceil(records / buffer.capacity_records)


# --------------------------------------------------------------------------- #
# UVM residency
# --------------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.integers(min_value=1, max_value=8),
                  st.booleans()),
        min_size=1, max_size=40,
    ),
)
def test_uvm_residency_never_exceeds_capacity(capacity_pages, operations):
    """Residency stays within capacity and page counters remain consistent."""
    uvm = UvmManager(GpuDevice(spec=RTX3060), device_capacity_bytes=capacity_pages * UVM_PAGE_BYTES)
    base = 0x100_0000_0000
    uvm.register_region(base, 64 * UVM_PAGE_BYTES)
    for page_index, length, prefetch in operations:
        address = base + page_index * UVM_PAGE_BYTES
        size = length * UVM_PAGE_BYTES
        if prefetch:
            cost = uvm.prefetch_range(address, size)
        else:
            cost = uvm.access_range(address, size)
        assert cost >= 0.0
        assert uvm.resident_pages <= capacity_pages
    stats = uvm.stats
    assert stats.pages_migrated_on_fault >= 0
    assert stats.refaults <= stats.pages_migrated_on_fault


# --------------------------------------------------------------------------- #
# range filter and processor dispatch
# --------------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=80))
def test_range_filter_counts_are_consistent(start, width, kernels):
    filt = RangeFilter()
    filt.set_grid_window(start, start + width)
    in_range = sum(1 for i in range(kernels) if filt.in_range(i))
    expected = len(range(start, min(kernels, start + width + 1))) if start < kernels else 0
    assert in_range == expected
    assert filt.kernels_in_range + filt.kernels_filtered == kernels


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["gemm", "copy", "softmax", "reduce"]), min_size=0, max_size=60))
def test_kernel_frequency_tool_total_matches_dispatched(names):
    processor = PastaEventProcessor()
    tool = KernelFrequencyTool()
    processor.register_tool(tool)
    for index, name in enumerate(names):
        processor.submit(KernelLaunchEvent(kernel_name=name, grid_index=index))
    assert tool.total_launches == len(names)
    assert sum(tool.frequencies().values()) == len(names)
    assert tool.distinct_kernels == len(set(names))
