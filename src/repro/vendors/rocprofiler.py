"""Simulated AMD ROCProfiler-SDK profiling backend.

ROCProfiler-SDK exposes HIP API tracing and kernel-dispatch callbacks through
``rocprofiler_configure`` + callback registration.  The paper notes its
callbacks are analogous to Compute Sanitizer's, which lets PASTA capture
memory, kernel and synchronisation events on AMD GPUs through the same unified
interface.  Device-side instruction tracing on AMD is limited to memory
operations in this model (matching what the paper's tools use on MI300X).
"""

from __future__ import annotations

from repro.gpusim.costmodel import InstrumentationBackend
from repro.gpusim.device import Vendor
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import MemoryObject
from repro.gpusim.runtime import MemcpyRecord, MemsetRecord, SyncRecord
from repro.vendors.base import ProfilingBackend

ROCPROFILER_INSTRUMENTABLE = frozenset(
    {
        InstructionKind.GLOBAL_LOAD,
        InstructionKind.GLOBAL_STORE,
        InstructionKind.SHARED_LOAD,
        InstructionKind.SHARED_STORE,
        InstructionKind.BARRIER,
        InstructionKind.BLOCK_ENTRY,
        InstructionKind.BLOCK_EXIT,
    }
)


class RocprofilerBackend(ProfilingBackend):
    """ROCProfiler-SDK style callbacks for AMD devices."""

    name = "rocprofiler"
    supported_vendor = Vendor.AMD
    instrumentation = InstrumentationBackend.ROCPROFILER
    instrumentable_kinds = ROCPROFILER_INSTRUMENTABLE

    def __init__(self) -> None:
        super().__init__()
        self._configured_services: set[str] = set()

    # ------------------------------------------------------------------ #
    # rocprofiler-flavoured configuration API
    # ------------------------------------------------------------------ #
    def rocprofiler_configure_callback(self, service: str) -> None:
        """Mirror ``rocprofiler_configure_callback_tracing_service``.

        Known services: ``"hip_runtime_api"``, ``"kernel_dispatch"``,
        ``"memory_copy"``, ``"scratch_memory"``.
        """
        self._configured_services.add(service)

    @property
    def configured_services(self) -> frozenset[str]:
        """Services configured so far."""
        return frozenset(self._configured_services)

    # ------------------------------------------------------------------ #
    # callback ids
    # ------------------------------------------------------------------ #
    def _cbid_memory_alloc(self, obj: MemoryObject) -> str:
        return "ROCPROFILER_HIP_API_ID_hipMalloc"

    def _cbid_memory_free(self, obj: MemoryObject) -> str:
        return "ROCPROFILER_HIP_API_ID_hipFree"

    def _cbid_memcpy(self, record: MemcpyRecord) -> str:
        return "ROCPROFILER_HIP_API_ID_hipMemcpy"

    def _cbid_memset(self, record: MemsetRecord) -> str:
        return "ROCPROFILER_HIP_API_ID_hipMemset"

    def _cbid_launch_begin(self, launch: KernelLaunch) -> str:
        return "ROCPROFILER_HIP_API_ID_hipLaunchKernel_enter"

    def _cbid_launch_end(self, launch: KernelLaunch) -> str:
        return "ROCPROFILER_HIP_API_ID_hipLaunchKernel_exit"

    def _cbid_synchronize(self, record: SyncRecord) -> str:
        return "ROCPROFILER_HIP_API_ID_hipDeviceSynchronize"

    def _cbid_instruction_batch(self, batch) -> str:
        return "ROCPROFILER_DEVICE_RECORD_BATCH"
