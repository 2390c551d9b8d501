"""Simulated GPU substrate: devices, memory, kernels, streams, UVM, runtimes.

This package stands in for the physical NVIDIA/AMD GPUs and their CUDA/HIP
runtimes used in the paper's evaluation.  The runtimes allocate device memory
and run every kernel on one default stream; the UVM model
(:class:`UvmManager`) is driven only by the prefetching study's executor,
:class:`repro.tools.UvmPrefetchExecutor`.
"""

from repro.gpusim.costmodel import (
    CostModelConfig,
    InstrumentationBackend,
    OverheadModel,
    ProfilingCost,
)
from repro.gpusim.device import (
    A100,
    GiB,
    GpuDevice,
    DeviceSpec,
    MI300X,
    MiB,
    RTX3060,
    Vendor,
    get_device_spec,
)
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.kernel import (
    Dim3,
    GridConfig,
    KernelArgument,
    KernelLaunch,
    estimate_kernel_duration_ns,
)
from repro.gpusim.memory import DeviceMemoryAllocator, MemoryKind, MemoryObject, align_up
from repro.gpusim.multigpu import DeviceSet, InjectionMethod, ProcessModel, SimulatedProcess
from repro.gpusim.runtime import (
    AcceleratorRuntime,
    CudaRuntime,
    HipRuntime,
    MemcpyKind,
    MemcpyRecord,
    MemsetRecord,
    RuntimeCallbacks,
    SyncRecord,
    create_runtime,
)
from repro.gpusim.stream import DEFAULT_STREAM_ID, Stream, StreamManager
from repro.gpusim.trace import (
    AnalysisModel,
    DEFAULT_TRACE_BUFFER_BYTES,
    TRACE_RECORD_BYTES,
    TraceBuffer,
    TraceBufferStats,
)
from repro.gpusim.uvm import UVM_PAGE_BYTES, UvmConfig, UvmManager, UvmStats

__all__ = [
    "A100",
    "AcceleratorRuntime",
    "AnalysisModel",
    "CostModelConfig",
    "CudaRuntime",
    "DEFAULT_STREAM_ID",
    "DEFAULT_TRACE_BUFFER_BYTES",
    "DeviceMemoryAllocator",
    "DeviceSet",
    "DeviceSpec",
    "Dim3",
    "GiB",
    "GpuDevice",
    "GridConfig",
    "HipRuntime",
    "InjectionMethod",
    "InstructionKind",
    "InstrumentationBackend",
    "KernelArgument",
    "KernelLaunch",
    "MemcpyKind",
    "MemcpyRecord",
    "MemoryKind",
    "MemoryObject",
    "MemsetRecord",
    "MI300X",
    "MiB",
    "OverheadModel",
    "ProcessModel",
    "ProfilingCost",
    "RTX3060",
    "RuntimeCallbacks",
    "SimulatedProcess",
    "Stream",
    "StreamManager",
    "SyncRecord",
    "TRACE_RECORD_BYTES",
    "TraceBuffer",
    "TraceBufferStats",
    "UVM_PAGE_BYTES",
    "UvmConfig",
    "UvmManager",
    "UvmStats",
    "Vendor",
    "align_up",
    "create_runtime",
    "estimate_kernel_duration_ns",
    "get_device_spec",
]
