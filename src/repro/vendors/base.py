"""Common infrastructure for simulated vendor profiling backends.

PASTA's event handler never talks to the runtime directly; it registers with a
*profiling backend* the way a real tool registers with Compute Sanitizer,
NVBit, or the ROCProfiler SDK.  Each simulated backend subscribes to an
:class:`~repro.gpusim.runtime.AcceleratorRuntime` and re-emits its activity as
vendor-flavoured callbacks.  A callback's *kind* (:data:`CALLBACK_KINDS`) is
the one thing the handler reads; its vendor callback id (mirroring the
vendor's enum names) is free-form, declared once per kind in the backend's
:attr:`ProfilingBackend.callback_ids` table.

The backends differ in exactly the ways the paper describes (Section III-D):

* **Compute Sanitizer** — lightweight callbacks, but instruction-level
  visibility limited to memory and barrier operations.
* **NVBit** — full SASS coverage with per-kernel dump/parse cost and a larger
  raw record volume.
* **ROCProfiler SDK** — HIP-level API and kernel-dispatch callbacks on AMD.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional

from repro.errors import VendorError
from repro.gpusim.costmodel import InstrumentationBackend
from repro.gpusim.device import Vendor
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import MemoryObject
from repro.gpusim.runtime import (
    AcceleratorRuntime,
    MemcpyRecord,
    MemsetRecord,
    RuntimeCallbacks,
    SyncRecord,
)

#: Every callback kind, and so every key of :attr:`ProfilingBackend.callback_ids`:
#: the :class:`~repro.gpusim.runtime.RuntimeCallbacks` method names without
#: ``on_``, plus ``device_records`` for a launch's sampled device records.
CALLBACK_KINDS = (
    "memory_alloc", "memory_free", "memcpy", "memset", "kernel_launch_begin",
    "kernel_launch_end", "synchronize", "runtime_api", "device_records",
)


class VendorCallback(NamedTuple):
    """One callback delivered by a vendor profiling backend.

    A named tuple rather than a dataclass: one is constructed per runtime
    event, so construction cost is on the handler's hot path.

    Attributes
    ----------
    kind:
        What happened, one of :data:`CALLBACK_KINDS` (the same on every backend).
    cbid:
        The vendor's callback identifier (e.g. ``"SANITIZER_CBID_LAUNCH_BEGIN"``
        or ``"ROCPROFILER_HIP_API_ID_hipMalloc"``).
    payload:
        The kind's payload object (a memory object, memcpy record, kernel
        launch, API name, instruction batch, ...).
    device_index:
        Device the callback originated from.
    backend:
        Name of the backend that produced the callback.
    """

    kind: str
    cbid: str
    payload: object
    device_index: int
    backend: str


#: Signature of functions that receive vendor callbacks.
VendorCallbackFn = Callable[[VendorCallback], None]


class ProfilingBackend(RuntimeCallbacks):
    """Base class of every vendor profiling backend, built-in or plugin.

    A subclass sets :attr:`name`, :attr:`supported_vendor`,
    :attr:`instrumentation`, :attr:`instrumentable_kinds` and
    :attr:`callback_ids`; the base class turns each runtime event into one
    :class:`VendorCallback` tagged with its kind.  Attaching to a runtime of
    the wrong vendor raises :class:`~repro.errors.VendorError`, mirroring the
    fact that Compute Sanitizer cannot profile an AMD GPU.
    """

    name: str = "base"
    supported_vendor: Optional[Vendor] = None
    instrumentation: InstrumentationBackend = InstrumentationBackend.COMPUTE_SANITIZER
    #: Which instruction kinds this backend can observe at device level.
    instrumentable_kinds: frozenset[InstructionKind] = frozenset(InstructionKind)
    #: Maximum sampled device-side records forwarded per kernel launch.
    max_instruction_records_per_kernel: int = 2048
    #: The vendor's callback id for each of :data:`CALLBACK_KINDS`.  The
    #: ``runtime_api`` entry is a prefix the API name is appended to.
    callback_ids: Mapping[str, str] = {}

    def __init__(self) -> None:
        self._callbacks: tuple[VendorCallbackFn, ...] = ()
        self._runtime: Optional[AcceleratorRuntime] = None
        self._instruction_tracing_enabled = False

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
        missing = [kind for kind in CALLBACK_KINDS if kind not in self.callback_ids]
        if missing:
            raise VendorError(f"{self.name} declares no callback id for {missing}")
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
    def _emit(self, kind: str, payload: object, device_index: int, cbid: str = "") -> None:
        callback = VendorCallback(kind, cbid or self.callback_ids[kind], payload, device_index, self.name)
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
            self._emit("device_records", batch, launch.device_index)

    # ------------------------------------------------------------------ #
    # RuntimeCallbacks implementation
    # ------------------------------------------------------------------ #
    def on_memory_alloc(self, runtime: AcceleratorRuntime, obj: MemoryObject) -> None:
        self._emit("memory_alloc", obj, runtime.device.index)

    def on_memory_free(self, runtime: AcceleratorRuntime, obj: MemoryObject) -> None:
        self._emit("memory_free", obj, runtime.device.index)

    def on_memcpy(self, runtime: AcceleratorRuntime, record: MemcpyRecord) -> None:
        self._emit("memcpy", record, runtime.device.index)

    def on_memset(self, runtime: AcceleratorRuntime, record: MemsetRecord) -> None:
        self._emit("memset", record, runtime.device.index)

    def on_kernel_launch_begin(self, runtime: AcceleratorRuntime, launch: KernelLaunch) -> None:
        self._emit("kernel_launch_begin", launch, runtime.device.index)

    def on_kernel_launch_end(self, runtime: AcceleratorRuntime, launch: KernelLaunch) -> None:
        self._emit_instructions(launch)
        self._emit("kernel_launch_end", launch, runtime.device.index)

    def on_synchronize(self, runtime: AcceleratorRuntime, record: SyncRecord) -> None:
        self._emit("synchronize", record, runtime.device.index)

    def on_runtime_api(self, runtime: AcceleratorRuntime, api_name: str) -> None:
        # Driver/runtime API interception ("All Driver Functions" / "All
        # Runtime Functions" rows of Table II).
        self._emit("runtime_api", api_name, runtime.device.index,
                   self.callback_ids["runtime_api"] + api_name)
