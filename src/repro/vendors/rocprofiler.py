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
    callback_ids = {
        "memory_alloc": "ROCPROFILER_HIP_API_ID_hipMalloc",
        "memory_free": "ROCPROFILER_HIP_API_ID_hipFree",
        "memcpy": "ROCPROFILER_HIP_API_ID_hipMemcpy",
        "memset": "ROCPROFILER_HIP_API_ID_hipMemset",
        "kernel_launch_begin": "ROCPROFILER_HIP_API_ID_hipLaunchKernel_enter",
        "kernel_launch_end": "ROCPROFILER_HIP_API_ID_hipLaunchKernel_exit",
        "synchronize": "ROCPROFILER_HIP_API_ID_hipDeviceSynchronize",
        "runtime_api": "ROCPROFILER_API_",
        "device_records": "ROCPROFILER_DEVICE_RECORD_BATCH",
    }
