"""Tests for the simulated vendor profiling backends."""

from __future__ import annotations

import pytest

from repro.errors import VendorError
from repro.gpusim.device import A100, MI300X, MiB
from repro.gpusim.instruction import InstructionBatchRecord, InstructionKind
from repro.gpusim.kernel import GridConfig, KernelArgument
from repro.gpusim.runtime import MemcpyKind, create_runtime
from repro.vendors import (
    CALLBACK_KINDS,
    ComputeSanitizerBackend,
    NvbitBackend,
    ProfilingBackend,
    RocprofilerBackend,
    default_backend_for_vendor,
)
from repro.gpusim.device import Vendor


def collect_callbacks(backend, runtime, fine_grained=False, kernel_args=None):
    """Attach a backend, run a tiny workload, and return the callbacks seen."""
    received = []
    backend.register_callback(received.append)
    backend.attach(runtime)
    if fine_grained:
        backend.enable_instruction_tracing(True)
    obj = runtime.malloc(1 * MiB)
    runtime.memcpy(4096, MemcpyKind.HOST_TO_DEVICE)
    args = kernel_args or [KernelArgument(address=obj.address, size=obj.size, accesses_per_byte=0.01)]
    runtime.launch_kernel("test_kernel", GridConfig.for_elements(256), arguments=args)
    runtime.synchronize()
    runtime.free(obj)
    return received


class TestAttachment:
    def test_default_backend_per_vendor(self):
        assert isinstance(default_backend_for_vendor(Vendor.NVIDIA), ComputeSanitizerBackend)
        assert isinstance(default_backend_for_vendor(Vendor.AMD), RocprofilerBackend)

    def test_vendor_mismatch_rejected(self):
        amd_runtime = create_runtime(MI300X)
        with pytest.raises(VendorError):
            ComputeSanitizerBackend().attach(amd_runtime)
        nvidia_runtime = create_runtime(A100)
        with pytest.raises(VendorError):
            RocprofilerBackend().attach(nvidia_runtime)

    def test_double_attach_rejected(self):
        backend = ComputeSanitizerBackend()
        backend.attach(create_runtime(A100))
        with pytest.raises(VendorError):
            backend.attach(create_runtime(A100))

    def test_detach_stops_callbacks(self):
        runtime = create_runtime(A100)
        backend = ComputeSanitizerBackend()
        received = []
        backend.register_callback(received.append)
        backend.attach(runtime)
        runtime.malloc(4096)
        count = len(received)
        backend.detach()
        runtime.malloc(4096)
        assert len(received) == count

    def test_a_backend_missing_a_callback_id_is_refused_at_attach(self):
        class Partial(ProfilingBackend):
            name = "partial"
            callback_ids = {"memory_alloc": "PARTIAL_ALLOC"}

        backend = Partial()
        with pytest.raises(VendorError, match="memory_free"):
            backend.attach(create_runtime(A100))
        assert not backend.is_attached


class TestComputeSanitizer:
    def test_callback_ids_follow_sanitizer_naming(self):
        received = collect_callbacks(ComputeSanitizerBackend(), create_runtime(A100))
        cbids = {cb.cbid for cb in received}
        assert "SANITIZER_CBID_RESOURCE_MEMORY_ALLOC" in cbids
        assert "SANITIZER_CBID_LAUNCH_BEGIN" in cbids
        assert "SANITIZER_CBID_LAUNCH_END" in cbids
        assert "SANITIZER_CBID_MEMCPY_STARTING" in cbids
        assert "SANITIZER_CBID_SYNCHRONIZE" in cbids

    def test_patch_module_enables_instruction_tracing(self):
        backend = ComputeSanitizerBackend()
        assert not backend.instruction_tracing_enabled
        backend.sanitizer_patch_module("libtorch_cuda.so")
        assert backend.instruction_tracing_enabled
        assert "libtorch_cuda.so" in backend.patched_modules

    def test_device_records_arrive_as_one_batch_per_launch(self):
        backend = ComputeSanitizerBackend()
        backend.sanitizer_patch_module("all")
        received = collect_callbacks(backend, create_runtime(A100), fine_grained=True)
        batches = [cb for cb in received if cb.cbid == "SANITIZER_CBID_DEVICE_RECORD_BATCH"]
        assert len(batches) == 1, "expected one columnar batch per kernel launch"
        batch = batches[0].payload
        assert isinstance(batch, InstructionBatchRecord)
        assert batch.access_count > 0
        # Sanitizer never reports arbitrary (OTHER) instruction kinds.
        assert InstructionKind.OTHER not in backend.instrumentable_kinds


class TestNvbit:
    def test_callback_ids_follow_nvbit_naming(self):
        received = collect_callbacks(NvbitBackend(), create_runtime(A100))
        cbids = {cb.cbid for cb in received}
        assert "NVBIT_CUDA_EVENT_cuMemAlloc" in cbids
        assert "NVBIT_CUDA_EVENT_cuLaunchKernel_exit" in cbids

    def test_sass_parsing_tracked_per_kernel(self):
        runtime = create_runtime(A100)
        backend = NvbitBackend()
        backend.attach(runtime)
        backend.enable_instruction_tracing(True)
        runtime.launch_kernel("kernel_a", GridConfig.for_elements(64))
        runtime.launch_kernel("kernel_a", GridConfig.for_elements(64))
        runtime.launch_kernel("kernel_b", GridConfig.for_elements(64))
        assert backend.sass_parse_count() == 2

    def test_no_sass_parsing_without_instrumentation(self):
        runtime = create_runtime(A100)
        backend = NvbitBackend()
        backend.attach(runtime)
        runtime.launch_kernel("kernel_a", GridConfig.for_elements(64))
        assert backend.sass_parse_count() == 0

    def test_instruction_filter(self):
        runtime = create_runtime(A100)
        backend = NvbitBackend()
        received = []
        backend.register_callback(received.append)
        backend.attach(runtime)
        backend.enable_instruction_tracing(True)
        backend.set_instruction_filter(frozenset({InstructionKind.GLOBAL_LOAD}))
        obj = runtime.malloc(1 * MiB)
        runtime.launch_kernel(
            "k",
            GridConfig.for_elements(64),
            arguments=[KernelArgument(address=obj.address, size=obj.size,
                                      is_read=True, is_written=True, accesses_per_byte=0.01)],
        )
        batches = [cb.payload for cb in received if cb.cbid == "NVBIT_INSTR_BATCH"]
        assert batches
        # Only loads survive: no block markers, and every access is a read.
        assert all(not b.pre_kinds and not b.post_kinds for b in batches)
        write_flags = [flag for b in batches for flag in b.write_flags]
        assert write_flags
        assert not any(write_flags)


class TestRocprofiler:
    def test_callback_ids_follow_hip_naming(self):
        received = collect_callbacks(RocprofilerBackend(), create_runtime(MI300X))
        cbids = {cb.cbid for cb in received}
        assert "ROCPROFILER_HIP_API_ID_hipMalloc" in cbids
        assert "ROCPROFILER_HIP_API_ID_hipLaunchKernel_exit" in cbids
        assert "ROCPROFILER_HIP_API_ID_hipFree" in cbids

    def test_callbacks_carry_the_same_kinds_on_every_vendor(self):
        nvidia = collect_callbacks(ComputeSanitizerBackend(), create_runtime(A100), fine_grained=True)
        amd = collect_callbacks(RocprofilerBackend(), create_runtime(MI300X), fine_grained=True)
        assert [cb.kind for cb in nvidia] == [cb.kind for cb in amd]
        assert set(cb.kind for cb in nvidia) == set(CALLBACK_KINDS) - {"memset"}

    def test_cross_vendor_consistency_of_event_payloads(self):
        """The same workload produces the same *payload types* on both vendors."""
        nvidia = collect_callbacks(ComputeSanitizerBackend(), create_runtime(A100))
        amd = collect_callbacks(RocprofilerBackend(), create_runtime(MI300X))
        nvidia_types = {type(cb.payload).__name__ for cb in nvidia}
        amd_types = {type(cb.payload).__name__ for cb in amd}
        assert nvidia_types == amd_types
