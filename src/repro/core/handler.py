"""PASTA event handler: vendor + framework adapters and event normalisation.

The handler is the first of PASTA's three modules (Figure 1).  It

* configures and registers with the profiling utilities — the simulated vendor
  backends in :mod:`repro.vendors` and the framework callback registry in
  :mod:`repro.dlframework.callbacks`,
* translates each vendor callback / framework callback into the unified event
  model of :mod:`repro.core.events`, normalising cross-vendor inconsistencies
  (sign conventions for reclamation sizes, naming, direction metadata) —
  a launch's device records arrive as one columnar vendor batch and leave as
  batch events, never one event per record — and
* forwards every normalised event to the event processor.

The handler drops nothing; each tool's ``subscribed_categories`` decide,
in the processor, what it receives.  A recording taps the handler's output,
so a trace holds the whole stream whatever tools the live run attached.

A vendor callback is translated by its *kind* (``memory_alloc``,
``kernel_launch_end``, ``device_records``, ...), which every backend shares;
the vendor's callback id is never parsed.  Supporting a new accelerator
therefore only requires a backend adapter in :mod:`repro.vendors` (a
:class:`~repro.vendors.base.ProfilingBackend` subclass declaring its
callback ids); the handler, the processor and the tools are untouched (the
modularity claim of Section III-A).
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Optional

from repro.errors import HandlerError
from repro.core.events import (
    InstructionBatch,
    KernelArgumentInfo,
    KernelLaunchEvent,
    MemcpyEvent,
    MemoryAccessBatch,
    MemoryAllocEvent,
    MemoryFreeEvent,
    MemsetEvent,
    OperatorEndEvent,
    OperatorStartEvent,
    PastaEvent,
    RegionEvent,
    RuntimeApiEvent,
    SynchronizationEvent,
    TensorAllocEvent,
    TensorFreeEvent,
)
from repro.dlframework.allocator import MemoryUsageRecord
from repro.dlframework.callbacks import FrameworkCallbackRegistry, OperatorEvent
from repro.gpusim.instruction import InstructionBatchRecord
from repro.gpusim.kernel import KernelLaunch
from repro.vendors.base import ProfilingBackend, VendorCallback

#: Signature of the sink that receives normalised events (the event processor).
EventSink = Callable[[PastaEvent], None]


class PastaEventHandler:
    """Normalises vendor and framework callbacks into PASTA events."""

    def __init__(self, sink: Optional[EventSink] = None) -> None:
        self._sink: Optional[EventSink] = sink
        self._backends: list[ProfilingBackend] = []
        #: Registries already attached, held weakly: each one holds callbacks
        #: that close over this handler, so a strong reference back would
        #: make a cycle that outlives the run.
        self._framework_registries: "weakref.WeakSet[FrameworkCallbackRegistry]" = (
            weakref.WeakSet()
        )
        #: Per-device running kernel-launch index (the "grid id" of the paper's
        #: START_GRID_ID/END_GRID_ID range filter).
        self._grid_index: dict[int, int] = {}
        self.events_emitted = 0

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def set_sink(self, sink: EventSink) -> None:
        """Set the downstream consumer (normally the event processor)."""
        self._sink = sink

    # ------------------------------------------------------------------ #
    # attachment
    # ------------------------------------------------------------------ #
    def attach_vendor_backend(self, backend: ProfilingBackend) -> None:
        """Register with a vendor profiling backend (low-level events)."""
        if backend in self._backends:
            return
        backend.register_callback(self._on_vendor_callback)
        self._backends.append(backend)

    def detach_vendor_backend(self, backend: ProfilingBackend) -> None:
        """Stop receiving callbacks from a vendor backend."""
        if backend in self._backends:
            backend.unregister_callback(self._on_vendor_callback)
            self._backends.remove(backend)

    def attach_framework(self, registry: FrameworkCallbackRegistry, device_index: int = 0) -> None:
        """Register with a DL framework's callback registry (high-level events)."""
        if registry in self._framework_registries:
            return
        registry.add_operator_callback(lambda event: self._on_operator_event(event))
        registry.add_memory_callback(lambda record: self._on_memory_usage(record, device_index))
        self._framework_registries.add(registry)

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def emit(self, event: PastaEvent) -> None:
        """Forward one normalised event to the sink."""
        if self._sink is None:
            raise HandlerError("event handler has no sink; call set_sink() first")
        self.events_emitted += 1
        self._sink(event)

    def emit_region(self, label: str, starting: bool, device_index: int = 0) -> None:
        """Emit an annotation region boundary (used by the ``pasta`` package)."""
        self.emit(RegionEvent(label=label, starting=starting, device_index=device_index,
                              source="annotation"))

    # ------------------------------------------------------------------ #
    # vendor callback translation
    # ------------------------------------------------------------------ #
    def _on_vendor_callback(self, callback: VendorCallback) -> None:
        kind = callback.kind
        payload: Any = callback.payload
        device = callback.device_index
        source = callback.backend
        if kind == "runtime_api":
            self.emit(RuntimeApiEvent(api_name=payload, device_index=device, source=source))
        elif kind == "kernel_launch_end":
            # Launch-begin callbacks carry no completed-duration metadata;
            # PASTA uses the end callback as the canonical launch event.
            self.emit(self._normalize_kernel_launch(payload, device, source))
        elif kind == "device_records":
            self._emit_instruction_batch(payload, device, source)
        elif kind == "memory_alloc":
            self.emit(MemoryAllocEvent(
                address=payload.address, size=payload.size, object_id=payload.object_id,
                memory_kind=payload.kind.value, tag=payload.tag,
                device_index=device, source=source, timestamp_ns=payload.alloc_time_ns,
            ))
        elif kind == "memory_free":
            self.emit(MemoryFreeEvent(
                address=payload.address, size=payload.size, object_id=payload.object_id,
                device_index=device, source=source,
                timestamp_ns=payload.free_time_ns or 0,
            ))
        elif kind == "memcpy":
            self.emit(MemcpyEvent(
                size=payload.size, direction=payload.kind.value,
                duration_ns=payload.duration_ns, stream_id=payload.stream_id,
                device_index=device, source=source, timestamp_ns=payload.start_time_ns,
            ))
        elif kind == "memset":
            self.emit(MemsetEvent(
                address=payload.address, size=payload.size, value=payload.value,
                device_index=device, source=source, timestamp_ns=payload.start_time_ns,
            ))
        elif kind == "synchronize":
            self.emit(SynchronizationEvent(
                scope=payload.scope, stream_id=payload.stream_id,
                device_index=device, source=source, timestamp_ns=payload.time_ns,
            ))

    def _normalize_kernel_launch(
        self, launch: KernelLaunch, device: int, source: str
    ) -> KernelLaunchEvent:
        """Extract and normalise kernel-launch metadata (grid config etc.)."""
        index = self._grid_index.get(device, 0)
        self._grid_index[device] = index + 1
        grid = launch.grid_config
        arguments = tuple(
            KernelArgumentInfo(
                address=arg.address,
                size=arg.size,
                referenced_bytes=arg.referenced_bytes,
                access_count=arg.access_count,
                label=arg.label,
            )
            for arg in launch.arguments
        )
        return KernelLaunchEvent(
            arguments=arguments,
            kernel_name=launch.kernel_name,
            launch_id=launch.launch_id,
            grid=(grid.grid.x, grid.grid.y, grid.grid.z),
            block=(grid.block.x, grid.block.y, grid.block.z),
            stream_id=launch.stream_id,
            duration_ns=launch.duration_ns,
            memory_footprint_bytes=launch.memory_footprint_bytes,
            working_set_bytes=launch.working_set_bytes,
            total_memory_accesses=launch.total_memory_accesses,
            op_context=launch.op_context,
            grid_index=index,
            device_index=device,
            source=source,
            timestamp_ns=launch.start_time_ns,
        )

    def _emit_instruction_batch(
        self, batch: InstructionBatchRecord, device: int, source: str
    ) -> None:
        """Normalise one columnar vendor batch into PASTA batch events.

        The batch's three sections are emitted in stream order (pre-access
        instructions, memory accesses, post-access instructions), so tools
        that unroll see the records in the order the kernel issued them.
        The numpy columns pass through as they are, without a copy.
        """
        if batch.pre_kinds:
            self.emit(InstructionBatch(
                kernel_launch_id=batch.kernel_launch_id,
                kinds=batch.pre_kinds,
                thread_indices=batch.pre_thread_indices,
                block_indices=batch.pre_block_indices,
                device_index=device,
                source=source,
            ))
        if len(batch.addresses):
            self.emit(MemoryAccessBatch(
                kernel_launch_id=batch.kernel_launch_id,
                addresses=batch.addresses,
                sizes=batch.sizes,
                write_flags=batch.write_flags,
                thread_indices=batch.access_thread_indices,
                block_indices=batch.access_block_indices,
                device_index=device,
                source=source,
            ))
        if batch.post_kinds:
            self.emit(InstructionBatch(
                kernel_launch_id=batch.kernel_launch_id,
                kinds=batch.post_kinds,
                thread_indices=batch.post_thread_indices,
                block_indices=batch.post_block_indices,
                device_index=device,
                source=source,
            ))

    # ------------------------------------------------------------------ #
    # framework callback translation
    # ------------------------------------------------------------------ #
    def _on_operator_event(self, event: OperatorEvent) -> None:
        if event.phase == "start":
            self.emit(OperatorStartEvent(
                op_id=event.op_id, name=event.name, scope=event.scope,
                sequence=event.sequence, python_stack=event.python_stack,
                device_index=event.device_index, source="framework",
            ))
        else:
            self.emit(OperatorEndEvent(
                op_id=event.op_id, name=event.name, scope=event.scope,
                sequence=event.sequence, kernel_count=event.kernel_count,
                device_index=event.device_index, source="framework",
            ))

    def _on_memory_usage(self, record: MemoryUsageRecord, device_index: int) -> None:
        # Normalisation: some runtimes report reclamation as a negative delta,
        # others as a positive size with a separate event type.  PASTA exposes
        # a positive size plus an explicit alloc/free category.
        event_cls = TensorAllocEvent if record.delta_bytes >= 0 else TensorFreeEvent
        self.emit(event_cls(
            tensor_id=record.tensor_id,
            tensor_name=record.tensor_name,
            address=record.address,
            nbytes=abs(record.delta_bytes),
            pool_allocated_bytes=record.allocated_bytes,
            pool_reserved_bytes=record.reserved_bytes,
            event_index=record.event_index,
            device_index=record.device_index if record.device_index else device_index,
            source="framework",
        ))
