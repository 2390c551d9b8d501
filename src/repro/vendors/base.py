"""Common infrastructure for simulated vendor profiling backends.

PASTA's event handler never talks to the runtime directly; it registers with a
*profiling backend* the way a real tool registers with Compute Sanitizer,
NVBit, or the ROCProfiler SDK.  Each simulated backend subscribes to an
:class:`~repro.gpusim.runtime.AcceleratorRuntime` and re-emits its activity as
vendor-flavoured callbacks: a callback-id string (mirroring the vendor's enum
names) plus a payload object.

The backends differ in exactly the ways the paper describes (Section III-D):

* **Compute Sanitizer** — lightweight callbacks, but instruction-level
  visibility limited to memory and barrier operations.
* **NVBit** — full SASS coverage with per-kernel dump/parse cost and a larger
  raw record volume.
* **ROCProfiler SDK** — HIP-level API and kernel-dispatch callbacks on AMD.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.errors import VendorError
from repro.gpusim.costmodel import InstrumentationBackend
from repro.gpusim.device import Vendor
from repro.gpusim.instruction import InstructionBatchRecord, InstructionKind
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import MemoryObject
from repro.gpusim.runtime import (
    AcceleratorRuntime,
    MemcpyRecord,
    MemsetRecord,
    RuntimeCallbacks,
    SyncRecord,
)


class VendorCallback(NamedTuple):
    """One callback delivered by a vendor profiling backend.

    A named tuple rather than a dataclass: one is constructed per runtime
    event, so construction cost is on the handler's hot path.

    Attributes
    ----------
    cbid:
        The vendor's callback identifier (e.g. ``"SANITIZER_CBID_LAUNCH_BEGIN"``
        or ``"ROCPROFILER_HIP_API_ID_hipMalloc"``).
    payload:
        The vendor-specific payload object (a kernel launch, memory object,
        memcpy record, instruction batch, ...).
    device_index:
        Device the callback originated from.
    backend:
        Name of the backend that produced the callback.
    """

    cbid: str
    payload: object
    device_index: int
    backend: str


#: Signature of functions that receive vendor callbacks.
VendorCallbackFn = Callable[[VendorCallback], None]


class ProfilingBackend(RuntimeCallbacks):
    """Base class for the three simulated vendor profiling libraries.

    Subclasses set :attr:`name`, :attr:`supported_vendor` and
    :attr:`instrumentation` and override the ``_cbid_*`` hooks to produce
    vendor-specific callback-id strings.  Attaching to a runtime of the wrong
    vendor raises :class:`~repro.errors.VendorError`, mirroring the fact that
    Compute Sanitizer cannot profile an AMD GPU.
    """

    name: str = "base"
    supported_vendor: Optional[Vendor] = None
    instrumentation: InstrumentationBackend = InstrumentationBackend.COMPUTE_SANITIZER
    #: Which instruction kinds this backend can observe at device level.
    instrumentable_kinds: frozenset[InstructionKind] = frozenset(InstructionKind)
    #: Maximum sampled device-side records forwarded per kernel launch.
    max_instruction_records_per_kernel: int = 2048

    def __init__(self) -> None:
        self._callbacks: tuple[VendorCallbackFn, ...] = ()
        self._runtime: Optional[AcceleratorRuntime] = None
        self._instruction_tracing_enabled = False
        self.callback_count = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def attach(self, runtime: AcceleratorRuntime) -> None:
        """Attach the backend to a runtime (``sanitizerSubscribe`` and friends)."""
        if self.supported_vendor is not None and runtime.vendor is not self.supported_vendor:
            raise VendorError(
                f"{self.name} supports {self.supported_vendor.value} devices only, "
                f"got {runtime.vendor.value}"
            )
        if self._runtime is not None:
            raise VendorError(f"{self.name} is already attached to a runtime")
        self._runtime = runtime
        runtime.subscribe(self)

    def detach(self) -> None:
        """Detach from the runtime and stop receiving callbacks."""
        if self._runtime is not None:
            self._runtime.unsubscribe(self)
            self._runtime = None

    @property
    def is_attached(self) -> bool:
        """True while attached to a runtime."""
        return self._runtime is not None

    def register_callback(self, fn: VendorCallbackFn) -> None:
        """Register a receiver for this backend's callbacks (PASTA's handler)."""
        if fn not in self._callbacks:
            self._callbacks = self._callbacks + (fn,)

    def unregister_callback(self, fn: VendorCallbackFn) -> None:
        """Remove a previously registered receiver."""
        if fn in self._callbacks:
            self._callbacks = tuple(f for f in self._callbacks if f != fn)

    def enable_instruction_tracing(self, enabled: bool = True) -> None:
        """Turn device-side (fine-grained) instrumentation on or off."""
        self._instruction_tracing_enabled = enabled

    @property
    def instruction_tracing_enabled(self) -> bool:
        """Whether device-side instrumentation is currently enabled."""
        return self._instruction_tracing_enabled

    # ------------------------------------------------------------------ #
    # emission helpers
    # ------------------------------------------------------------------ #
    def _emit(self, cbid: str, payload: object, device_index: int) -> None:
        callback = VendorCallback(cbid, payload, device_index, self.name)
        self.callback_count += 1
        # The callback tuple is immutable: registration replaces it, so
        # iterating is safe even if a receiver mutates the registration set.
        for fn in self._callbacks:
            fn(callback)

    def _device_record_kinds(self) -> frozenset[InstructionKind]:
        """Instruction kinds this backend forwards (subclasses may narrow)."""
        return self.instrumentable_kinds

    def _emit_instructions(self, launch: KernelLaunch) -> None:
        """Forward a launch's sampled device records as one columnar
        :class:`~repro.gpusim.instruction.InstructionBatchRecord` callback
        (the collect-and-analyze model of Figure 2b)."""
        if not self._instruction_tracing_enabled:
            return
        batch = launch.generate_instruction_batch(
            max_records=self.max_instruction_records_per_kernel,
            allowed_kinds=self._device_record_kinds(),
        )
        if len(batch):
            self._emit(self._cbid_instruction_batch(batch), batch, launch.device_index)

    # ------------------------------------------------------------------ #
    # vendor-specific callback ids (overridden by subclasses)
    # ------------------------------------------------------------------ #
    def _cbid_memory_alloc(self, obj: MemoryObject) -> str:
        raise NotImplementedError

    def _cbid_memory_free(self, obj: MemoryObject) -> str:
        raise NotImplementedError

    def _cbid_memcpy(self, record: MemcpyRecord) -> str:
        raise NotImplementedError

    def _cbid_memset(self, record: MemsetRecord) -> str:
        raise NotImplementedError

    def _cbid_launch_begin(self, launch: KernelLaunch) -> str:
        raise NotImplementedError

    def _cbid_launch_end(self, launch: KernelLaunch) -> str:
        raise NotImplementedError

    def _cbid_synchronize(self, record: SyncRecord) -> str:
        raise NotImplementedError

    def _cbid_instruction_batch(self, batch: InstructionBatchRecord) -> str:
        return f"{self.name.upper()}_DEVICE_RECORD_BATCH"

    # ------------------------------------------------------------------ #
    # RuntimeCallbacks implementation
    # ------------------------------------------------------------------ #
    def on_memory_alloc(self, runtime: AcceleratorRuntime, obj: MemoryObject) -> None:
        self._emit(self._cbid_memory_alloc(obj), obj, runtime.device.index)

    def on_memory_free(self, runtime: AcceleratorRuntime, obj: MemoryObject) -> None:
        self._emit(self._cbid_memory_free(obj), obj, runtime.device.index)

    def on_memcpy(self, runtime: AcceleratorRuntime, record: MemcpyRecord) -> None:
        self._emit(self._cbid_memcpy(record), record, runtime.device.index)

    def on_memset(self, runtime: AcceleratorRuntime, record: MemsetRecord) -> None:
        self._emit(self._cbid_memset(record), record, runtime.device.index)

    def on_kernel_launch_begin(self, runtime: AcceleratorRuntime, launch: KernelLaunch) -> None:
        self._emit(self._cbid_launch_begin(launch), launch, runtime.device.index)

    def on_kernel_launch_end(self, runtime: AcceleratorRuntime, launch: KernelLaunch) -> None:
        self._emit_instructions(launch)
        self._emit(self._cbid_launch_end(launch), launch, runtime.device.index)

    def on_synchronize(self, runtime: AcceleratorRuntime, record: SyncRecord) -> None:
        self._emit(self._cbid_synchronize(record), record, runtime.device.index)

    def on_runtime_api(self, runtime: AcceleratorRuntime, api_name: str) -> None:
        # Driver/runtime API interception ("All Driver Functions" / "All
        # Runtime Functions" rows of Table II).
        self._emit(self._cbid_runtime_api(api_name), api_name, runtime.device.index)

    def _cbid_runtime_api(self, api_name: str) -> str:
        return f"{self.name.upper()}_API_{api_name}"
