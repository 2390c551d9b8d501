"""Simulated NVIDIA NVBit dynamic binary instrumentation backend.

NVBit intercepts CUDA driver events (``nvbit_at_cuda_event``) and can inject
instrumentation into *every* SASS instruction of a kernel.  That flexibility
comes at a price the paper quantifies in Figure 9: before a kernel can be
instrumented NVBit must dump and parse its SASS, and tracing all instructions
(then filtering the interesting ones) inflates the raw record volume.

The simulated backend models both effects: it tracks which kernels have been
"SASS-parsed" (a per-kernel cost the overhead model charges), and it exposes
the full :class:`~repro.gpusim.instruction.InstructionKind` set for device-side
tracing.
"""

from __future__ import annotations

from repro.gpusim.costmodel import InstrumentationBackend
from repro.gpusim.device import Vendor
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.runtime import AcceleratorRuntime
from repro.vendors.base import ProfilingBackend


class NvbitBackend(ProfilingBackend):
    """NVBit-style callbacks and all-instruction instrumentation for NVIDIA devices."""

    name = "nvbit"
    supported_vendor = Vendor.NVIDIA
    instrumentation = InstrumentationBackend.NVBIT
    instrumentable_kinds = frozenset(InstructionKind)
    callback_ids = {
        "memory_alloc": "NVBIT_CUDA_EVENT_cuMemAlloc",
        "memory_free": "NVBIT_CUDA_EVENT_cuMemFree",
        "memcpy": "NVBIT_CUDA_EVENT_cuMemcpy",
        "memset": "NVBIT_CUDA_EVENT_cuMemset",
        "kernel_launch_begin": "NVBIT_CUDA_EVENT_cuLaunchKernel_entry",
        "kernel_launch_end": "NVBIT_CUDA_EVENT_cuLaunchKernel_exit",
        "synchronize": "NVBIT_CUDA_EVENT_cuCtxSynchronize",
        "runtime_api": "NVBIT_API_",
        "device_records": "NVBIT_INSTR_BATCH",
    }

    def __init__(self) -> None:
        super().__init__()
        #: Kernels whose SASS has been dumped and parsed (each costs time once).
        self.sass_parsed_kernels: set[str] = set()
        #: Optional filter applied after parsing; NVBit tools typically select
        #: only memory instructions even though everything was instrumented.
        self._instruction_filter: frozenset[InstructionKind] | None = None

    # ------------------------------------------------------------------ #
    # NVBit-flavoured configuration API
    # ------------------------------------------------------------------ #
    def set_instruction_filter(self, kinds: frozenset[InstructionKind] | None) -> None:
        """Restrict forwarded device records to ``kinds`` (None = everything)."""
        self._instruction_filter = kinds

    def sass_parse_count(self) -> int:
        """Number of distinct kernels that required a SASS dump/parse."""
        return len(self.sass_parsed_kernels)

    # ------------------------------------------------------------------ #
    # runtime callbacks (adds SASS bookkeeping on top of the base class)
    # ------------------------------------------------------------------ #
    def on_kernel_launch_begin(self, runtime: AcceleratorRuntime, launch: KernelLaunch) -> None:
        if self.instruction_tracing_enabled:
            self.sass_parsed_kernels.add(launch.kernel_name)
        super().on_kernel_launch_begin(runtime, launch)

    def _device_record_kinds(self) -> frozenset[InstructionKind]:
        # NVBit instruments everything, then the tool-side filter (if any)
        # selects the kinds of interest.
        if self._instruction_filter is None:
            return self.instrumentable_kinds
        return self.instrumentable_kinds & self._instruction_filter
