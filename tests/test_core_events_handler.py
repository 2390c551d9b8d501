"""Tests for the unified event model and the PASTA event handler."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.errors import HandlerError
from repro.core.events import (
    COARSE_CATEGORIES,
    EventCategory,
    FINE_GRAINED_CATEGORIES,
    FRAMEWORK_CATEGORIES,
    InstructionBatch,
    InstructionEvent,
    KernelLaunchEvent,
    MemoryAccessBatch,
    MemoryAccessEvent,
    MemcpyEvent,
    MemoryAllocEvent,
    MemoryFreeEvent,
    OperatorEndEvent,
    OperatorStartEvent,
    RuntimeApiEvent,
    SynchronizationEvent,
    TensorAllocEvent,
    TensorFreeEvent,
)
from repro.core.handler import PastaEventHandler
from repro.dlframework import ops
from repro.gpusim.device import A100, MI300X, MiB
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.kernel import GridConfig, KernelArgument
from repro.gpusim.runtime import MemcpyKind, create_runtime
from repro.vendors import (
    BUILTIN_BACKENDS,
    ComputeSanitizerBackend,
    ProfilingBackend,
    RocprofilerBackend,
)


def make_handler_with_sink():
    events = []
    handler = PastaEventHandler(sink=events.append)
    return handler, events


class TestEventTaxonomy:
    def test_categories_are_partitioned(self):
        # Coarse, fine-grained and framework categories do not overlap.
        assert not (COARSE_CATEGORIES & FINE_GRAINED_CATEGORIES)
        assert not (COARSE_CATEGORIES & FRAMEWORK_CATEGORIES)
        assert not (FINE_GRAINED_CATEGORIES & FRAMEWORK_CATEGORIES)

    def test_every_event_class_sets_its_category(self):
        assert RuntimeApiEvent().category is EventCategory.RUNTIME_API
        assert KernelLaunchEvent().category is EventCategory.KERNEL_LAUNCH
        assert MemoryAllocEvent().category is EventCategory.MEMORY_ALLOC
        assert MemoryFreeEvent().category is EventCategory.MEMORY_FREE
        assert MemcpyEvent().category is EventCategory.MEMCPY
        assert SynchronizationEvent().category is EventCategory.SYNCHRONIZATION
        assert OperatorStartEvent().category is EventCategory.OPERATOR_START
        assert OperatorEndEvent().category is EventCategory.OPERATOR_END
        assert TensorAllocEvent().category is EventCategory.TENSOR_ALLOC
        assert TensorFreeEvent().category is EventCategory.TENSOR_FREE

    def test_kernel_launch_total_threads(self):
        event = KernelLaunchEvent(grid=(4, 2, 1), block=(128, 1, 1))
        assert event.total_threads == 1024


def _assert_column_dtypes(batch) -> None:
    for name, dtype in type(batch).COLUMN_DTYPES.items():
        column = getattr(batch, name)
        assert isinstance(column, np.ndarray), name
        assert column.ndim == 1 and column.dtype == dtype, name


class TestBatchColumns:
    """Every producer of a batch yields the same column shape."""

    def test_constructor_coerces_sequences_and_other_dtypes(self):
        batch = MemoryAccessBatch(
            addresses=[0x100, 0x200], sizes=(4, 8),
            write_flags=np.array([0, 1], dtype=np.int8),
            thread_indices=np.array([1, 2], dtype=np.int32), block_indices=(0, 1),
        )
        _assert_column_dtypes(batch)
        assert batch.write_flags.tolist() == [False, True]
        _assert_column_dtypes(MemoryAccessBatch())
        _assert_column_dtypes(InstructionBatch(thread_indices=[3], block_indices=(0,)))
        _assert_column_dtypes(InstructionBatch())

    def test_as_batch_and_unroll_round_trip_with_python_scalars(self):
        access = MemoryAccessEvent(address=0x1040, size=8, is_write=True,
                                   kernel_launch_id=7, thread_index=33, block_index=2)
        batch = access.as_batch()
        _assert_column_dtypes(batch)
        (unrolled,) = batch.unroll()
        fields = (unrolled.address, unrolled.size, unrolled.is_write,
                  unrolled.thread_index, unrolled.block_index)
        assert fields == (0x1040, 8, True, 33, 2)
        assert [type(f) for f in fields] == [int, int, bool, int, int]
        instruction = InstructionEvent(kind=InstructionKind.BARRIER, thread_index=12,
                                       block_index=1).as_batch()
        _assert_column_dtypes(instruction)
        (marker,) = instruction.unroll()
        assert type(marker.thread_index) is int and type(marker.block_index) is int

    def test_handler_emits_array_columns_from_the_simulator(self):
        runtime = create_runtime(A100)
        backend = ComputeSanitizerBackend()
        backend.attach(runtime)
        backend.enable_instruction_tracing(True)
        handler, events = make_handler_with_sink()
        handler.attach_vendor_backend(backend)
        obj = runtime.malloc(1 * MiB)
        runtime.launch_kernel("k", GridConfig.for_elements(4096),
                              arguments=[KernelArgument(obj.address, obj.size)])
        batches = [e for e in events if isinstance(e, (MemoryAccessBatch, InstructionBatch))]
        assert {type(b) for b in batches} == {MemoryAccessBatch, InstructionBatch}
        for batch in batches:
            assert len(batch) > 0
            _assert_column_dtypes(batch)


class TestVendorTranslation:
    def test_runtime_activity_becomes_normalised_events(self):
        runtime = create_runtime(A100)
        backend = ComputeSanitizerBackend()
        backend.attach(runtime)
        handler, events = make_handler_with_sink()
        handler.attach_vendor_backend(backend)

        obj = runtime.malloc(1 * MiB)
        runtime.memcpy(4096, MemcpyKind.HOST_TO_DEVICE)
        runtime.launch_kernel(
            "k", GridConfig.for_elements(256),
            arguments=[KernelArgument(address=obj.address, size=obj.size, accesses_per_byte=0.01)],
        )
        runtime.synchronize()
        runtime.free(obj)

        categories = [e.category for e in events]
        assert EventCategory.MEMORY_ALLOC in categories
        assert EventCategory.MEMORY_FREE in categories
        assert EventCategory.MEMCPY in categories
        assert EventCategory.KERNEL_LAUNCH in categories
        assert EventCategory.SYNCHRONIZATION in categories
        assert EventCategory.RUNTIME_API in categories

    def test_kernel_launch_metadata_extraction(self):
        runtime = create_runtime(A100)
        backend = ComputeSanitizerBackend()
        backend.attach(runtime)
        handler, events = make_handler_with_sink()
        handler.attach_vendor_backend(backend)
        obj = runtime.malloc(1 * MiB)
        runtime.launch_kernel(
            "my_kernel", GridConfig.for_elements(1024),
            arguments=[KernelArgument(address=obj.address, size=obj.size,
                                      accessed_fraction=0.5, accesses_per_byte=1.0)],
        )
        launches = [e for e in events if isinstance(e, KernelLaunchEvent)]
        assert len(launches) == 1
        event = launches[0]
        assert event.kernel_name == "my_kernel"
        assert event.grid[0] == 4
        assert event.working_set_bytes == obj.size // 2
        assert event.memory_footprint_bytes == obj.size
        assert len(event.arguments) == 1
        assert event.grid_index == 0

    def test_grid_index_increments_per_device(self):
        runtime = create_runtime(A100)
        backend = ComputeSanitizerBackend()
        backend.attach(runtime)
        handler, events = make_handler_with_sink()
        handler.attach_vendor_backend(backend)
        for _ in range(3):
            runtime.launch_kernel("k", GridConfig.for_elements(64))
        launches = [e for e in events if isinstance(e, KernelLaunchEvent)]
        assert [e.grid_index for e in launches] == [0, 1, 2]

    def test_cross_vendor_events_are_uniform(self, mi300x_runtime):
        """AMD callbacks normalise into the same event classes as NVIDIA ones."""
        backend = RocprofilerBackend()
        backend.attach(mi300x_runtime)
        handler, events = make_handler_with_sink()
        handler.attach_vendor_backend(backend)
        obj = mi300x_runtime.malloc(1 * MiB)
        mi300x_runtime.launch_kernel("k", GridConfig.for_elements(64))
        mi300x_runtime.free(obj)
        categories = {e.category for e in events}
        assert EventCategory.MEMORY_ALLOC in categories
        assert EventCategory.MEMORY_FREE in categories
        assert EventCategory.KERNEL_LAUNCH in categories
        assert all(e.source == "rocprofiler" for e in events)

    def test_detach_stops_translation(self):
        runtime = create_runtime(A100)
        backend = ComputeSanitizerBackend()
        backend.attach(runtime)
        handler, events = make_handler_with_sink()
        handler.attach_vendor_backend(backend)
        runtime.malloc(4096)
        count = len(events)
        handler.detach_vendor_backend(backend)
        runtime.malloc(4096)
        assert len(events) == count


class PluginBackend(ProfilingBackend):
    """A third-party backend whose ids share no substring with the built-ins."""

    name = "plugin"
    callback_ids = {
        "memory_alloc": "PLUGIN_MEM_RESERVE",
        "memory_free": "PLUGIN_MEM_RELEASE",
        "memcpy": "PLUGIN_COPY",
        "memset": "PLUGIN_FILL",
        "kernel_launch_begin": "PLUGIN_KERNEL_START",
        "kernel_launch_end": "PLUGIN_KERNEL_DONE",
        "synchronize": "PLUGIN_WAIT",
        "runtime_api": "PLUGIN_CALL_",
        "device_records": "PLUGIN_SAMPLES",
    }


def drive_one_of_each(backend, device_spec):
    """One malloc, memcpy, memset, fine-grained launch, synchronize and free,
    through ``backend`` and a handler; returns the normalised events."""
    runtime = create_runtime(device_spec)
    backend.attach(runtime)
    backend.enable_instruction_tracing(True)
    handler, events = make_handler_with_sink()
    handler.attach_vendor_backend(backend)
    obj = runtime.malloc(1 * MiB)
    runtime.memcpy(4096, MemcpyKind.HOST_TO_DEVICE)
    runtime.memset(obj.address, 4096)
    runtime.launch_kernel(
        "k", GridConfig.for_elements(256),
        arguments=[KernelArgument(address=obj.address, size=obj.size, accesses_per_byte=0.01)],
    )
    runtime.synchronize()
    runtime.free(obj)
    return events


def coarse_categories(events):
    return [e.category for e in events if e.category in COARSE_CATEGORIES]


class TestEveryBackendNormalisesAlike:
    DEVICES = {"compute_sanitizer": A100, "nvbit": A100, "rocprofiler": MI300X}

    def test_builtin_backends_give_the_same_event_stream(self):
        assert set(self.DEVICES) == set(BUILTIN_BACKENDS)
        streams = {}
        for name, device in self.DEVICES.items():
            events = drive_one_of_each(BUILTIN_BACKENDS[name](), device)
            assert {e.source for e in events} == {name}
            assert sum(isinstance(e, KernelLaunchEvent) for e in events) == 1
            assert any(isinstance(e, MemoryAccessBatch) for e in events)
            streams[name] = coarse_categories(events)
        assert streams["compute_sanitizer"] == streams["nvbit"] == streams["rocprofiler"]
        assert Counter(streams["nvbit"]) == {
            EventCategory.RUNTIME_API: 6, EventCategory.MEMORY_ALLOC: 1,
            EventCategory.MEMCPY: 1, EventCategory.MEMSET: 1,
            EventCategory.KERNEL_LAUNCH: 1, EventCategory.SYNCHRONIZATION: 1,
            EventCategory.MEMORY_FREE: 1,
        }

    def test_a_plugin_backend_with_its_own_ids_normalises_like_the_builtins(self):
        events = drive_one_of_each(PluginBackend(), A100)
        counts = Counter(type(e) for e in events)
        assert counts[MemoryAllocEvent] == 1
        assert counts[KernelLaunchEvent] == 1
        assert counts[MemoryFreeEvent] == 1
        assert {e.source for e in events} == {"plugin"}
        builtin = drive_one_of_each(ComputeSanitizerBackend(), A100)
        assert coarse_categories(events) == coarse_categories(builtin)


class TestFrameworkTranslation:
    def test_tensor_events_normalise_sign_convention(self, a100_ctx):
        handler, events = make_handler_with_sink()
        handler.attach_framework(a100_ctx.callbacks)
        t = a100_ctx.alloc((1024,), name="x")
        a100_ctx.free(t)
        allocs = [e for e in events if isinstance(e, TensorAllocEvent)]
        frees = [e for e in events if isinstance(e, TensorFreeEvent)]
        assert len(allocs) == 1 and len(frees) == 1
        # Reclamations are reported with a positive size and an explicit type.
        assert frees[0].nbytes > 0
        assert frees[0].nbytes == allocs[0].nbytes

    def test_operator_events_carry_scope_and_python_stack(self, a100_ctx):
        handler, events = make_handler_with_sink()
        handler.attach_framework(a100_ctx.callbacks)
        x = a100_ctx.alloc((4, 16))
        w = a100_ctx.alloc((8, 16))
        with a100_ctx.module_scope("encoder.layer.0"):
            ops.linear(a100_ctx, x, w, None)
        starts = [e for e in events if isinstance(e, OperatorStartEvent)]
        ends = [e for e in events if isinstance(e, OperatorEndEvent)]
        assert starts and ends
        assert starts[0].name == "aten::linear"
        assert starts[0].scope == "encoder.layer.0"
        assert any("forward" in frame for frame in starts[0].python_stack)
        assert ends[0].kernel_count >= 1


class TestHandlerConfiguration:
    def test_missing_sink_raises(self):
        handler = PastaEventHandler()
        with pytest.raises(HandlerError):
            handler.emit(RuntimeApiEvent(api_name="cudaMalloc"))

    def test_region_emission(self):
        handler, events = make_handler_with_sink()
        handler.emit_region("layer0", starting=True)
        handler.emit_region("layer0", starting=False)
        assert events[0].category is EventCategory.REGION_START
        assert events[1].category is EventCategory.REGION_STOP
