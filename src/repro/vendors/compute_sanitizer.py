"""Simulated NVIDIA Compute Sanitizer profiling backend.

The Compute Sanitizer API (``sanitizerSubscribe`` / ``sanitizerEnableDomain`` /
``sanitizerPatchModule``) exposes lightweight callbacks for host-side events and
a *patching* mechanism that instruments a subset of device instructions —
memory accesses and barrier operations — which is exactly the trade-off the
paper calls out: intuitive and cheap, but limited instruction coverage.
"""

from __future__ import annotations

from repro.gpusim.costmodel import InstrumentationBackend
from repro.gpusim.device import Vendor
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import MemoryObject
from repro.gpusim.runtime import MemcpyRecord, MemsetRecord, SyncRecord
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

    def __init__(self) -> None:
        super().__init__()
        self._enabled_domains: set[str] = set()
        self._patched_modules: set[str] = set()

    # ------------------------------------------------------------------ #
    # sanitizer-flavoured configuration API
    # ------------------------------------------------------------------ #
    def sanitizer_enable_domain(self, domain: str) -> None:
        """Mirror ``sanitizerEnableDomain``: enable a callback domain.

        Known domains: ``"launch"``, ``"memcpy"``, ``"memset"``, ``"synchronize"``,
        ``"resource"`` (alloc/free), ``"uvm"``.
        """
        self._enabled_domains.add(domain)

    def sanitizer_patch_module(self, module_name: str) -> None:
        """Mirror ``sanitizerPatchModule``: enable device-side instrumentation."""
        self._patched_modules.add(module_name)
        self.enable_instruction_tracing(True)

    @property
    def enabled_domains(self) -> frozenset[str]:
        """Domains enabled so far (all domains enabled if none set explicitly)."""
        return frozenset(self._enabled_domains)

    @property
    def patched_modules(self) -> frozenset[str]:
        """Module names that have been patched for device-side tracing."""
        return frozenset(self._patched_modules)

    # ------------------------------------------------------------------ #
    # callback ids
    # ------------------------------------------------------------------ #
    def _cbid_memory_alloc(self, obj: MemoryObject) -> str:
        return "SANITIZER_CBID_RESOURCE_MEMORY_ALLOC"

    def _cbid_memory_free(self, obj: MemoryObject) -> str:
        return "SANITIZER_CBID_RESOURCE_MEMORY_FREE"

    def _cbid_memcpy(self, record: MemcpyRecord) -> str:
        return "SANITIZER_CBID_MEMCPY_STARTING"

    def _cbid_memset(self, record: MemsetRecord) -> str:
        return "SANITIZER_CBID_MEMSET_STARTING"

    def _cbid_launch_begin(self, launch: KernelLaunch) -> str:
        return "SANITIZER_CBID_LAUNCH_BEGIN"

    def _cbid_launch_end(self, launch: KernelLaunch) -> str:
        return "SANITIZER_CBID_LAUNCH_END"

    def _cbid_synchronize(self, record: SyncRecord) -> str:
        return "SANITIZER_CBID_SYNCHRONIZE"

    def _cbid_instruction_batch(self, batch) -> str:
        return "SANITIZER_CBID_DEVICE_RECORD_BATCH"
