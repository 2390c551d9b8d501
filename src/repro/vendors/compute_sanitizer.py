"""Simulated NVIDIA Compute Sanitizer profiling backend.

The Compute Sanitizer API (``sanitizerSubscribe`` / ``sanitizerPatchModule``)
exposes lightweight callbacks for host-side events and a *patching* mechanism
that instruments a subset of device instructions — memory accesses and
barrier operations — which is exactly the trade-off the paper calls out:
intuitive and cheap, but limited instruction coverage.
"""

from __future__ import annotations

from repro.gpusim.costmodel import InstrumentationBackend
from repro.gpusim.device import Vendor
from repro.gpusim.instruction import InstructionKind
from repro.vendors.base import ProfilingBackend

#: Instruction kinds Compute Sanitizer patches can observe: memory and barrier
#: operations only (Section III-D).
SANITIZER_INSTRUMENTABLE = frozenset(
    {
        InstructionKind.GLOBAL_LOAD,
        InstructionKind.GLOBAL_STORE,
        InstructionKind.SHARED_LOAD,
        InstructionKind.SHARED_STORE,
        InstructionKind.GLOBAL_TO_SHARED_COPY,
        InstructionKind.BARRIER,
        InstructionKind.CLUSTER_BARRIER,
        InstructionKind.BLOCK_ENTRY,
        InstructionKind.BLOCK_EXIT,
        InstructionKind.DEVICE_MALLOC,
        InstructionKind.DEVICE_FREE,
    }
)


class ComputeSanitizerBackend(ProfilingBackend):
    """Compute Sanitizer style callbacks for NVIDIA devices."""

    name = "compute_sanitizer"
    supported_vendor = Vendor.NVIDIA
    instrumentation = InstrumentationBackend.COMPUTE_SANITIZER
    instrumentable_kinds = SANITIZER_INSTRUMENTABLE
    callback_ids = {
        "memory_alloc": "SANITIZER_CBID_RESOURCE_MEMORY_ALLOC",
        "memory_free": "SANITIZER_CBID_RESOURCE_MEMORY_FREE",
        "memcpy": "SANITIZER_CBID_MEMCPY_STARTING",
        "memset": "SANITIZER_CBID_MEMSET_STARTING",
        "kernel_launch_begin": "SANITIZER_CBID_LAUNCH_BEGIN",
        "kernel_launch_end": "SANITIZER_CBID_LAUNCH_END",
        "synchronize": "SANITIZER_CBID_SYNCHRONIZE",
        "runtime_api": "COMPUTE_SANITIZER_API_",
        "device_records": "SANITIZER_CBID_DEVICE_RECORD_BATCH",
    }

    def __init__(self) -> None:
        super().__init__()
        self._patched_modules: set[str] = set()

    def sanitizer_patch_module(self, module_name: str) -> None:
        """Mirror ``sanitizerPatchModule``: enable device-side instrumentation."""
        self._patched_modules.add(module_name)
        self.enable_instruction_tracing(True)

    @property
    def patched_modules(self) -> frozenset[str]:
        """Module names that have been patched for device-side tracing."""
        return frozenset(self._patched_modules)
