"""PASTA session: the user-facing entry point wiring all three modules together.

A :class:`PastaSession` owns one event handler, one event processor and a set
of tools for a single target runtime (GPU).  It corresponds to what the
paper's ``accelprof -t <tool> <executable>`` launcher sets up before the target
application runs: attach to the vendor profiling library, attach to the DL
framework's callbacks, configure the analysis range, and route everything into
the selected tools.

Typical usage::

    runtime = create_runtime(A100)
    ctx = FrameworkContext(runtime)
    session = PastaSession(runtime, tools=[KernelFrequencyTool()])
    session.attach_framework(ctx)
    with session:
        engine.run_inference(model)
    print(session.reports())
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.errors import PastaError
from repro.core.annotations import RangeFilter, _active_sessions
from repro.core.events import PastaEvent
from repro.core.handler import EventSink, PastaEventHandler
from repro.core.overhead import OverheadAccountant
from repro.core.processor import AddressResolver, PastaEventProcessor
from repro.core.tool import PastaTool
from repro.dlframework.context import FrameworkContext
from repro.gpusim.costmodel import CostModelConfig
from repro.gpusim.device import MiB
from repro.gpusim.memory import DeviceMemoryAllocator
from repro.gpusim.runtime import AcceleratorRuntime
from repro.gpusim.trace import AnalysisModel
from repro.core.registry import REGISTRY
from repro.obs.metrics import SIZE_BUCKETS
from repro.obs.telemetry import active as _active_telemetry
from repro.vendors import ProfilingBackend, default_backend_for_vendor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (replay imports core)
    from repro.core.overhead import OverheadAccountant as _OverheadAccountant
    from repro.replay.writer import MemoryTrace, TraceWriter

#: Device memory PASTA reserves for its profiling buffers (Section VI-A).
PROFILER_RESERVED_BYTES = 4 * MiB

#: Histogram bucket bounds for events/second throughput samples.
EVENT_RATE_BUCKETS = (100.0, 1e3, 1e4, 1e5, 1e6, 1e7)


def _make_analysis_model(spec: Union[str, AnalysisModel]) -> AnalysisModel:
    """Accept an :class:`AnalysisModel` member or a registered name.

    Campaign job specs are plain JSON, so sessions must be constructible from
    ``"gpu_resident"`` / ``"cpu_side"`` strings as well as enum members; the
    string form resolves through the ``analysis_models`` registry namespace
    so plugins can register aliases.
    """
    if isinstance(spec, AnalysisModel):
        return spec
    if not isinstance(spec, str):
        valid = REGISTRY.names("analysis_models")
        raise PastaError(f"unknown analysis model {spec!r}; valid: {valid}")
    resolved = REGISTRY.get("analysis_models", spec)
    if not isinstance(resolved, AnalysisModel):
        resolved = AnalysisModel(str(resolved))
    return resolved


def collect_reports(
    tools: Sequence[PastaTool],
    overhead_accountant: Optional["_OverheadAccountant"] = None,
    dry_run: bool = False,
) -> dict[str, dict[str, object]]:
    """Collect per-tool reports keyed by ``tool_name``, plus ``"overhead"``.

    Two tools sharing a ``tool_name`` (e.g. two instances of the same tool
    class) would silently overwrite each other's entry, so duplicates raise
    :class:`PastaError` instead; the ``"overhead"`` key is likewise reserved
    for the accountant's report.  With ``dry_run`` only the name validation
    runs — used to fail fast before any events are processed.
    """
    seen: dict[str, PastaTool] = {}
    for tool in tools:
        if tool.tool_name in seen:
            raise PastaError(
                f"two tools report under the name {tool.tool_name!r} "
                f"({type(seen[tool.tool_name]).__name__} and {type(tool).__name__}); "
                f"give each instance a distinct tool_name"
            )
        seen[tool.tool_name] = tool
    if overhead_accountant is not None and "overhead" in seen:
        raise PastaError(
            "tool name 'overhead' collides with the session overhead report; "
            "rename the tool or disable overhead measurement"
        )
    if dry_run:
        return {}
    out: dict[str, dict[str, object]] = {name: tool.report() for name, tool in seen.items()}
    if overhead_accountant is not None:
        out["overhead"] = overhead_accountant.report()
    return out


# The session's callbacks close over the parts they use, never over the
# session: a bound method of the session held by its own handler or
# processor would make a reference cycle, and a finished run would then wait
# for the cyclic garbage collector instead of being freed when dropped.
def _allocator_resolver(allocator: DeviceMemoryAllocator) -> AddressResolver:
    """Resolve an address to ``(object_id, size)`` through the device-memory allocator."""

    def resolve(address: int) -> Optional[tuple[int, int]]:
        obj = allocator.lookup(address, live_only=False)
        if obj is None:
            return None
        return obj.object_id, obj.size

    return resolve


def _recording_sink(writer: Union["TraceWriter", "MemoryTrace"], processor: PastaEventProcessor) -> EventSink:
    """Handler sink tap: persist each event, then submit it as usual."""

    def record_and_submit(event: PastaEvent) -> None:
        if not writer.closed:
            writer.write(event)
        processor.submit(event)

    return record_and_submit


def _make_backend(spec: Union[str, ProfilingBackend, None], runtime: AcceleratorRuntime) -> ProfilingBackend:
    if isinstance(spec, ProfilingBackend):
        return spec
    if spec is None:
        return default_backend_for_vendor(runtime.vendor)
    return REGISTRY.create("vendors", spec)  # type: ignore[return-value]


class PastaSession:
    """One profiling session over one simulated GPU runtime."""

    def __init__(
        self,
        runtime: AcceleratorRuntime,
        tools: Optional[Sequence[Union[PastaTool, str]]] = None,
        vendor_backend: Union[str, ProfilingBackend, None] = None,
        analysis_model: Union[str, AnalysisModel] = AnalysisModel.GPU_RESIDENT,
        enable_fine_grained: bool = False,
        range_filter: Optional[RangeFilter] = None,
        measure_overhead: bool = True,
        cost_config: Optional[CostModelConfig] = None,
        trace_writer: Union["TraceWriter", "MemoryTrace", None] = None,
    ) -> None:
        self.runtime = runtime
        self.backend = _make_backend(vendor_backend, runtime)
        self.analysis_model = _make_analysis_model(analysis_model)
        self.enable_fine_grained = enable_fine_grained
        self.handler = PastaEventHandler()
        self.overhead_accountant: Optional[OverheadAccountant] = None
        if measure_overhead:
            self.overhead_accountant = OverheadAccountant(
                device_spec=runtime.device.spec,
                analysis_model=self.analysis_model,
                backend=self.backend.instrumentation,
                config=cost_config,
            )
        self.processor = PastaEventProcessor(
            address_resolver=_allocator_resolver(runtime.allocator),
            range_filter=range_filter,
            overhead_accountants=(
                () if self.overhead_accountant is None else (self.overhead_accountant,)
            ),
        )
        self.handler.set_sink(self.processor.submit)
        self._tools: list[PastaTool] = []
        for tool in tools or ():
            self.add_tool(tool)
        self._attached_contexts: list[FrameworkContext] = []
        self._started = False
        #: Telemetry span covering start()..stop(); None while telemetry is
        #: disabled so the stop() sampling pass is skipped entirely.
        self._obs_span = None
        #: The trace this session taps.  Its caller owns it: opens it before
        #: the session and closes (or aborts) it after, so one writer can
        #: serve every rank of a multi-GPU profile.
        self._trace_writer = trace_writer
        self.trace_path: Optional[Path] = None if trace_writer is None else trace_writer.path
        if trace_writer is not None:
            self.handler.set_sink(_recording_sink(trace_writer, self.processor))

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def add_tool(self, tool: Union[PastaTool, str]) -> PastaTool:
        """Register an analysis tool with the session.

        Accepts either a :class:`PastaTool` instance or a registry name
        (``"kernel_frequency"``), mirroring how ``analysis_model`` accepts
        both enum members and strings.  Tool names must be unique within a
        session: reports are keyed by ``tool_name``, so a second tool with
        the same name would silently shadow the first's report.
        """
        if isinstance(tool, str):
            # The registry seeds the bundled tool collection on first use.
            from repro.core.registry import create_tool

            tool = create_tool(tool)
        if any(existing.tool_name == tool.tool_name for existing in self._tools):
            raise PastaError(
                f"a tool named {tool.tool_name!r} is already registered with this "
                f"session; give each instance a distinct tool_name"
            )
        self._tools.append(tool)
        self.processor.register_tool(tool)
        if tool.requires_fine_grained:
            self.enable_fine_grained = True
        return tool

    @property
    def tools(self) -> list[PastaTool]:
        """Tools registered with this session."""
        return list(self._tools)

    def attach_framework(self, ctx: FrameworkContext) -> None:
        """Attach to a DL framework context (operator + tensor callbacks)."""
        if ctx in self._attached_contexts:
            return
        self.handler.attach_framework(ctx.callbacks, device_index=ctx.runtime.device.index)
        self._attached_contexts.append(ctx)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "PastaSession":
        """Attach to the vendor backend and begin profiling."""
        if self._started:
            raise PastaError("session is already started")
        if not self.backend.is_attached:
            self.backend.attach(self.runtime)
        self.handler.attach_vendor_backend(self.backend)
        if self.enable_fine_grained:
            self.backend.enable_instruction_tracing(True)
        self.runtime.device.reserve_profiler_memory(PROFILER_RESERVED_BYTES)
        for tool in self._tools:
            tool.on_session_start()
        _active_sessions.append(self)
        telemetry = _active_telemetry()
        if telemetry.enabled:
            self._obs_span = telemetry.span(
                "session.run",
                device=self.runtime.device.index,
                backend=self.backend.name,
                analysis_model=self.analysis_model.value,
                fine_grained=self.enable_fine_grained,
                recording=self._trace_writer is not None,
            )
            self.processor.dispatch_unit.enable_hook_timing()
        self._started = True
        return self

    def stop(self) -> None:
        """Stop profiling and detach from the vendor backend."""
        if not self._started:
            return
        if self._obs_span is not None:
            self._sample_telemetry(self._obs_span)
            self._obs_span.finish()
            self._obs_span = None
        for tool in self._tools:
            tool.on_session_end()
        self.handler.detach_vendor_backend(self.backend)
        self.backend.detach()
        self.runtime.device.reserve_profiler_memory(0)
        _active_sessions.remove(self)
        self._started = False

    # ------------------------------------------------------------------ #
    # telemetry sampling
    # ------------------------------------------------------------------ #
    def annotate_telemetry(self, **attrs) -> None:
        """Attach attributes (e.g. a parallel rank) to the session span."""
        if self._obs_span is not None:
            for key, value in attrs.items():
                self._obs_span.set_attr(key, value)

    def _sample_telemetry(self, span) -> None:
        """Pull the pipeline's existing counters onto the session span.

        Telemetry never intercepts individual events: the hot path already
        counts what it does, and this one sampling pass at stop() copies
        those totals onto the span and into the metrics registry.  That is
        the whole no-op-fast-path story for the event pipeline.
        """
        from time import perf_counter_ns

        processor = self.processor
        span.set_counter("events_processed", processor.events_processed)
        span.set_counter("events_filtered", processor.events_filtered)
        span.set_counter("gpu_preprocessed_kernels", processor.gpu_preprocessed_kernels)
        span.set_counter("batches_dispatched", processor.batches_dispatched)
        span.set_counter("batch_records", processor.batch_records)
        span.set_counter("dispatched_events", processor.dispatch_unit.dispatched_events)
        span.set_counter("events_emitted", self.handler.events_emitted)
        for tool_name, hook_ns in sorted(processor.dispatch_unit.hook_times_ns().items()):
            span.set_counter(f"hook_ns.{tool_name}", hook_ns)
        # The caching allocator lives on the attached framework context(s);
        # sum across contexts (normally exactly one per session).
        allocators = [ctx.allocator for ctx in self._attached_contexts]
        free_list_depth = 0
        coalesces = 0
        if allocators:
            stats_list = [a.stats for a in allocators]
            free_list_depth = sum(a.free_list_depth() for a in allocators)
            coalesces = sum(s.coalesce_count for s in stats_list)
            span.set_counter("alloc.allocations", sum(s.allocation_count for s in stats_list))
            span.set_counter("alloc.frees", sum(s.free_count for s in stats_list))
            span.set_counter("alloc.cache_hits", sum(s.cache_hits for s in stats_list))
            span.set_counter("alloc.cache_misses", sum(s.cache_misses for s in stats_list))
            span.set_counter("alloc.coalesces", coalesces)
            span.set_counter("alloc.free_list_depth", free_list_depth)
        telemetry = _active_telemetry()
        telemetry.counter("processor.events_processed").inc(processor.events_processed)
        telemetry.counter("processor.events_filtered").inc(processor.events_filtered)
        telemetry.counter("processor.batches_dispatched").inc(processor.batches_dispatched)
        telemetry.counter("processor.batch_records").inc(processor.batch_records)
        telemetry.counter("dispatch.dispatched_events").inc(
            processor.dispatch_unit.dispatched_events
        )
        if allocators:
            telemetry.gauge("allocator.free_list_depth").set(free_list_depth)
            telemetry.counter("allocator.coalesces").inc(coalesces)
        elapsed_ns = perf_counter_ns() - span._start_wall_ns
        if elapsed_ns > 0 and processor.events_processed:
            rate = processor.events_processed / (elapsed_ns / 1e9)
            span.set_counter("events_per_s", round(rate, 1))
            telemetry.histogram(
                "session.events_per_s", EVENT_RATE_BUCKETS
            ).observe(rate)
        if processor.batches_dispatched:
            telemetry.histogram("processor.batch_size", SIZE_BUCKETS).observe(
                processor.batch_records / processor.batches_dispatched
            )

    # ------------------------------------------------------------------ #
    # trace recording
    # ------------------------------------------------------------------ #
    @property
    def is_recording(self) -> bool:
        """True while events are being appended to the trace file."""
        return self._trace_writer is not None and not self._trace_writer.closed

    def __enter__(self) -> "PastaSession":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def is_active(self) -> bool:
        """True while the session is started."""
        return self._started

    # ------------------------------------------------------------------ #
    # annotations (pasta.start()/pasta.stop())
    # ------------------------------------------------------------------ #
    def begin_region(self, label: str = "") -> None:
        """Open an analysis region."""
        self.handler.emit_region(label, starting=True, device_index=self.runtime.device.index)

    def end_region(self, label: str = "") -> None:
        """Close the innermost analysis region."""
        self.handler.emit_region(label, starting=False, device_index=self.runtime.device.index)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def reports(self) -> dict[str, dict[str, object]]:
        """Collect every tool's report, plus the overhead report if enabled."""
        with _active_telemetry().span("session.collect", tools=len(self._tools)):
            return collect_reports(self._tools, self.overhead_accountant)
