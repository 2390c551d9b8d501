"""PASTA event processor: preprocessing, GPU-resident analysis and dispatch.

The processor is the second of PASTA's three modules (Figure 1).  It receives
normalised events from the event handler and

* **CPU-preprocesses coarse-grained events** (kernel launches, allocations,
  copies) — in this simulation a pass-through plus range filtering,
* **GPU-preprocesses fine-grained data**: instead of shipping raw per-access
  records to the host, the GPU-resident analysis reduces each analysed
  kernel launch into a per-object access-count map
  (:class:`~repro.core.events.KernelMemoryProfile`), reproducing the
  collect-and-analyze model of Figure 2b / Figure 8b — built only while a
  registered tool subscribes to ``KERNEL_MEMORY_PROFILE`` — and
* **dispatches** the resulting events to the registered tools through the
  dispatch unit, honouring the active range filter and each tool's
  ``subscribed_categories``, the one filter on what a tool receives.
  Routing is indexed — per-category tool tuples are rebuilt when the tool
  set changes — so delivering an event costs one lookup, and
  fine-grained columnar batches (one event per kernel launch) flow straight
  through to the tools' batch hooks.  A lone per-record fine-grained event
  (a third-party producer or trace) is turned into a length-1 batch at
  intake, so tools only ever receive fine-grained data as batches.

Overhead accountants (:class:`~repro.core.overhead.OverheadAccountant`)
charge every analysed kernel with the cost the configured
backend/analysis-model pair would incur, which is how the Figure 9/10
experiments measure overhead; the analysis model changes only that charge,
never what the tools receive.  A live session charges its one accountant;
an offline replay pass charges one per analysis model and cost config its
members asked for.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Optional, Sequence

from repro.core.annotations import RangeFilter
from repro.core.events import (
    BATCH_CATEGORY_BASES,
    EventCategory,
    FINE_GRAINED_CATEGORIES,
    KernelLaunchEvent,
    KernelMemoryProfile,
    PastaEvent,
    RegionEvent,
)
from repro.core.overhead import OverheadAccountant
from repro.core.tool import PastaTool

#: Resolves an address to ``(object_id, object_size)`` or ``None``; normally
#: bound to the driver allocator's lookup.
AddressResolver = Callable[[int], Optional[tuple[int, int]]]

#: Columnar batch categories (keys of the batch→base mapping).
_BATCH_CATEGORIES = frozenset(BATCH_CATEGORY_BASES)
#: Per-record fine-grained categories, adapted to batches at intake.
_PER_RECORD_CATEGORIES = frozenset(BATCH_CATEGORY_BASES.values())


class DispatchUnit:
    """Routes preprocessed events to the tools that subscribed to them.

    Routing is indexed: a per-category tuple of subscribed tools is
    precomputed whenever the tool set changes, so delivering an event is one
    dict lookup plus direct calls — no per-event ``wants()`` scan over every
    registered tool.  Tools whose ``wants()`` answer changes after
    registration must call :meth:`rebuild_index`.
    """

    def __init__(self) -> None:
        self._tools: list[PastaTool] = []
        self._routes: dict[EventCategory, tuple[PastaTool, ...]] = {}
        self.dispatched_events = 0
        #: Per-tool cumulative ``handle_event`` nanoseconds, or ``None`` when
        #: hook timing is disabled (the default): the hot dispatch loop pays
        #: one ``is None`` check, not two clock reads per tool call.
        self._hook_time_ns: Optional[dict[str, int]] = None

    def enable_hook_timing(self) -> None:
        """Start accumulating per-tool dispatch time (telemetry sampling)."""
        if self._hook_time_ns is None:
            self._hook_time_ns = {}

    def hook_times_ns(self) -> dict[str, int]:
        """Cumulative per-tool dispatch nanoseconds (empty when disabled)."""
        return dict(self._hook_time_ns or {})

    def register_tool(self, tool: PastaTool) -> None:
        """Add a tool to the dispatch table."""
        if tool not in self._tools:
            self._tools.append(tool)
            self.rebuild_index()

    def unregister_tool(self, tool: PastaTool) -> None:
        """Remove a tool from the dispatch table."""
        if tool in self._tools:
            self._tools.remove(tool)
            self.rebuild_index()

    def rebuild_index(self) -> None:
        """Recompute the per-category routing tuples from ``wants()``."""
        self._routes = {
            category: tuple(tool for tool in self._tools if tool.wants(category))
            for category in EventCategory
        }

    @property
    def tools(self) -> list[PastaTool]:
        """Registered tools, in registration order."""
        return list(self._tools)

    def has_subscribers(self, category: EventCategory) -> bool:
        """True if at least one registered tool subscribes to ``category``."""
        return bool(self._routes.get(category))

    def dispatch(self, event: PastaEvent) -> None:
        """Deliver one event to every subscribed tool."""
        route = self._routes.get(event.category)
        if not route:
            return
        if self._hook_time_ns is None:
            for tool in route:
                tool.handle_event(event)
        else:
            times = self._hook_time_ns
            for tool in route:
                started = perf_counter_ns()
                tool.handle_event(event)
                times[tool.tool_name] = (
                    times.get(tool.tool_name, 0) + perf_counter_ns() - started
                )
        self.dispatched_events += len(route)


class PastaEventProcessor:
    """Preprocesses events and feeds the dispatch unit."""

    def __init__(
        self,
        address_resolver: Optional[AddressResolver] = None,
        range_filter: Optional[RangeFilter] = None,
        overhead_accountants: Sequence[OverheadAccountant] = (),
    ) -> None:
        self.dispatch_unit = DispatchUnit()
        self.address_resolver = address_resolver
        self.range_filter = range_filter or RangeFilter()
        #: Charged, in order, for every analysed kernel launch.
        self.overhead_accountants = tuple(overhead_accountants)
        self.events_processed = 0
        self.events_filtered = 0
        self.gpu_preprocessed_kernels = 0
        self.batches_dispatched = 0
        #: Logical records carried by those batches (sum of batch lengths).
        self.batch_records = 0
        #: Batches waiting for their launch's range decision; only used
        #: while the range filter can reject launches.
        self._held: list[PastaEvent] = []

    # ------------------------------------------------------------------ #
    # tool registration (delegated to the dispatch unit)
    # ------------------------------------------------------------------ #
    def register_tool(self, tool: PastaTool) -> None:
        """Register a tool for dispatch."""
        self.dispatch_unit.register_tool(tool)

    def unregister_tool(self, tool: PastaTool) -> None:
        """Unregister a tool."""
        self.dispatch_unit.unregister_tool(tool)

    @property
    def tools(self) -> list[PastaTool]:
        """Registered tools."""
        return self.dispatch_unit.tools

    # ------------------------------------------------------------------ #
    # event intake
    # ------------------------------------------------------------------ #
    def submit(self, event: PastaEvent) -> None:
        """Entry point the event handler feeds (one normalised event)."""
        self.events_processed += 1
        if isinstance(event, RegionEvent):
            self._handle_region(event)
            return
        if event.category is EventCategory.KERNEL_LAUNCH:
            self._handle_kernel_launch(event)  # type: ignore[arg-type]
            return
        if event.category in FINE_GRAINED_CATEGORIES:
            if event.category in _PER_RECORD_CATEGORIES:
                event = event.as_batch()  # type: ignore[attr-defined]
            if event.category in _BATCH_CATEGORIES:
                self.batches_dispatched += 1
                self.batch_records += len(event)  # type: ignore[arg-type]
                if self.range_filter.can_reject:
                    # Device records arrive just before their launch's event
                    # (ProfilingBackend.on_kernel_launch_end) and share its
                    # range decision, so they wait for it.
                    self._held.append(event)
                    return
        self.dispatch_unit.dispatch(event)

    def _handle_region(self, event: RegionEvent) -> None:
        if event.starting:
            self.range_filter.open_region(event.label)
        else:
            self.range_filter.close_region(event.label)
        self.dispatch_unit.dispatch(event)

    def _handle_kernel_launch(self, event: KernelLaunchEvent) -> None:
        held = self._held
        if held:
            self._held = []
        if not self.range_filter.in_range(event.grid_index):
            self.events_filtered += 1 + len(held)
            return
        for batch in held:
            self.dispatch_unit.dispatch(batch)
        for accountant in self.overhead_accountants:
            accountant.record_kernel(event)
        self.dispatch_unit.dispatch(event)
        if self.dispatch_unit.has_subscribers(EventCategory.KERNEL_MEMORY_PROFILE):
            self.dispatch_unit.dispatch(self.gpu_preprocess_kernel(event))

    # ------------------------------------------------------------------ #
    # GPU-resident preprocessing (Figure 2b / Figure 8b)
    # ------------------------------------------------------------------ #
    def gpu_preprocess_kernel(self, event: KernelLaunchEvent) -> KernelMemoryProfile:
        """Reduce one launch's accesses into a per-object access-count map.

        On real hardware this reduction runs as ``__device__`` analysis threads
        while the kernel executes; only the small result map crosses PCIe.
        Here the reduction is computed from the launch's argument metadata and
        the address resolver, which yields the identical result map.
        """
        access_counts: dict[int, int] = {}
        referenced: dict[int, int] = {}
        footprint = 0
        working_set = 0
        total_accesses = 0
        for arg in event.arguments:
            footprint += arg.size
            working_set += arg.referenced_bytes
            total_accesses += arg.access_count
            if arg.access_count <= 0:
                continue
            object_id = self._resolve_object(arg.address)
            access_counts[object_id] = access_counts.get(object_id, 0) + arg.access_count
            referenced[object_id] = referenced.get(object_id, 0) + arg.referenced_bytes
        self.gpu_preprocessed_kernels += 1
        return KernelMemoryProfile(
            kernel_name=event.kernel_name,
            launch_id=event.launch_id,
            op_context=event.op_context,
            object_access_counts=access_counts,
            object_referenced_bytes=referenced,
            footprint_bytes=footprint,
            working_set_bytes=working_set,
            total_accesses=total_accesses,
            device_index=event.device_index,
            timestamp_ns=event.timestamp_ns,
            source="pasta_processor",
        )

    def _resolve_object(self, address: int) -> int:
        if self.address_resolver is None:
            # Without a driver allocator to consult, fall back to a synthetic
            # object id derived from the address's 2 MiB-aligned base.
            return address >> 21
        resolved = self.address_resolver(address)
        if resolved is None:
            return address >> 21
        object_id, _size = resolved
        return object_id
