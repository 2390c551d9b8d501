"""Offline replay engine: re-drive recorded traces through fresh tool sets.

:class:`TraceReplayer` rebuilds the analysis half of a live
:class:`~repro.core.session.PastaSession` — a fresh
:class:`~repro.core.processor.PastaEventProcessor`, an
:class:`~repro.core.overhead.OverheadAccountant` configured from the trace
header, and any set of tools — and feeds the recorded event stream through
it with **no runtime, framework or vendor backend attached**.  Because tools
only ever see normalised, preprocessed events, replaying a trace through the
same tool set yields reports identical to the live session's; replaying
through a *different* tool set, analysis model or cost-model configuration
answers what-if questions (e.g. "what would this workload have cost under
CPU-side analysis?") without re-simulating anything.

Address resolution, which the live session delegates to the runtime's driver
allocator, is reconstructed from the trace itself: the
:class:`MemoryAllocEvent` stream replays the allocator's address map, so
GPU-resident preprocessing attributes accesses to the same memory objects it
did live.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.annotations import RangeFilter
from repro.errors import TraceError
from repro.core.events import MemoryAllocEvent
from repro.core.overhead import OverheadAccountant
from repro.core.processor import PastaEventProcessor
from repro.core.session import _make_analysis_model, collect_reports
from repro.core.tool import PastaTool
from repro.gpusim.costmodel import CostModelConfig, InstrumentationBackend
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import AnalysisModel
from repro.obs.telemetry import active as _active_telemetry
from repro.replay.reader import TraceReader
from repro.replay.writer import MemoryTrace


class TraceAddressResolver:
    """Rebuilds the driver allocator's address map from recorded alloc events.

    Mirrors :meth:`DeviceMemoryAllocator.lookup` with ``live_only=False``:
    the nearest allocation base at or below the address is consulted, freed
    objects keep resolving, and an address outside every recorded allocation
    resolves to ``None`` (the processor then falls back to its synthetic id).
    """

    def __init__(self) -> None:
        self._bases: list[int] = []
        self._objects: dict[int, tuple[int, int]] = {}

    def observe(self, event: object) -> None:
        """Track one event (only allocation events mutate the map)."""
        if not isinstance(event, MemoryAllocEvent):
            return
        if event.address not in self._objects:
            bisect.insort(self._bases, event.address)
        # Address reuse after a free: the newest object wins, matching the
        # allocator index where the highest object id sorts last.
        self._objects[event.address] = (event.object_id, event.size)

    def resolve(self, address: int) -> Optional[tuple[int, int]]:
        """``(object_id, size)`` of the allocation containing ``address``."""
        idx = bisect.bisect_right(self._bases, address) - 1
        if idx < 0:
            return None
        base = self._bases[idx]
        object_id, size = self._objects[base]
        if base <= address < base + size:
            return object_id, size
        return None


@dataclass
class ReplayResult:
    """Everything produced by one offline replay."""

    trace_path: Optional[Path]  # None for a MemoryTrace
    tools: list[PastaTool]
    processor: PastaEventProcessor
    overhead_accountant: Optional[OverheadAccountant]
    analysis_model: AnalysisModel
    events_replayed: int = 0
    header: dict[str, object] = field(default_factory=dict)

    def reports(self) -> dict[str, dict[str, object]]:
        """Tool reports plus the overhead report — the live session's shape."""
        return collect_reports(self.tools, self.overhead_accountant)

    def tool(self, name: str) -> PastaTool:
        """Fetch one replayed tool by its registry name."""
        for tool in self.tools:
            if tool.tool_name == name:
                return tool
        raise TraceError(
            f"tool {name!r} was not part of this replay; "
            f"replayed tools: {sorted(t.tool_name for t in self.tools)}"
        )


class TraceReplayer:
    """Replays one trace through a tool set (see module docstring).

    Parameters
    ----------
    trace:
        Path to a trace file, an open :class:`TraceReader`, or a
        :class:`~repro.replay.writer.MemoryTrace`, whose events are replayed
        as they are, with no decode.
    tools:
        Tools to drive (may be empty for an overhead-only replay).
    analysis_model:
        Override the recorded analysis model — the overhead what-if knob.
    cost_config:
        Override the cost-model constants used by the overhead accountant.
    range_filter:
        Restrict analysis to a kernel-launch window, exactly as live.
    measure_overhead:
        Attach an overhead accountant (mirrors the live session default).
    device_spec / instrumentation:
        Override the trace header's device spec / instrumentation backend
        for the overhead accountant.  Multi-GPU traces record one header
        (rank 0's device) but replay per rank, so heterogeneous device sets
        need the actual rank's device here to reproduce the live overhead
        report.
    """

    def __init__(
        self,
        trace: Union[str, Path, TraceReader, MemoryTrace],
        tools: Optional[Sequence[PastaTool]] = None,
        analysis_model: Union[str, AnalysisModel, None] = None,
        cost_config: Optional[CostModelConfig] = None,
        range_filter: Optional[RangeFilter] = None,
        measure_overhead: bool = True,
        device_spec: Optional["DeviceSpec"] = None,
        instrumentation: Optional[str] = None,
    ) -> None:
        self.reader = trace if isinstance(trace, (TraceReader, MemoryTrace)) else TraceReader(trace)
        self.tools = list(tools or ())
        header = self.reader.header
        self.analysis_model = _make_analysis_model(
            header.analysis_model if analysis_model is None else analysis_model
        )
        self.cost_config = cost_config
        self.range_filter = range_filter
        self.measure_overhead = measure_overhead
        self.device_spec = device_spec
        self.instrumentation = instrumentation

    def run(self) -> ReplayResult:
        """Stream the trace through a fresh processor and return the result."""
        header = self.reader.header
        fine_tools = sorted(t.tool_name for t in self.tools if t.requires_fine_grained)
        if fine_tools and not header.fine_grained:
            raise TraceError(
                f"tools {fine_tools} require fine-grained (device-side) events, "
                f"but this trace was recorded without fine-grained "
                f"instrumentation; re-record with fine-grained enabled"
            )
        accountant: Optional[OverheadAccountant] = None
        if self.measure_overhead:
            accountant = OverheadAccountant(
                device_spec=(
                    header.device_spec() if self.device_spec is None else self.device_spec
                ),
                analysis_model=self.analysis_model,
                backend=InstrumentationBackend(
                    header.instrumentation if self.instrumentation is None
                    else self.instrumentation
                ),
                config=self.cost_config,
            )
        resolver = TraceAddressResolver()
        processor = PastaEventProcessor(
            address_resolver=resolver.resolve,
            range_filter=self.range_filter,
            overhead_accountant=accountant,
        )
        for tool in self.tools:
            processor.register_tool(tool)
        collect_reports(self.tools, accountant, dry_run=True)  # fail fast on name clashes
        for tool in self.tools:
            tool.on_session_start()
        events_replayed = 0
        with _active_telemetry().span(
            "replay.run",
            trace=str(self.reader.path or "<memory>"),
            analysis_model=self.analysis_model.value,
            tools=len(self.tools),
        ) as replay_span:
            try:
                for event in self.reader.events():
                    resolver.observe(event)
                    processor.submit(event)
                    events_replayed += 1
            finally:
                for tool in self.tools:
                    tool.on_session_end()
                replay_span.set_counter("events_replayed", events_replayed)
                replay_span.set_counter("events_filtered", processor.events_filtered)
                replay_span.set_counter(
                    "dispatched_events", processor.dispatch_unit.dispatched_events
                )
        return ReplayResult(
            trace_path=self.reader.path,
            tools=self.tools,
            processor=processor,
            overhead_accountant=accountant,
            analysis_model=self.analysis_model,
            events_replayed=events_replayed,
            header=dataclasses.asdict(header),
        )


def replay_trace(
    trace: Union[str, Path, TraceReader, MemoryTrace],
    tools: Optional[Sequence[PastaTool]] = None,
    analysis_model: Union[str, AnalysisModel, None] = None,
    cost_config: Optional[CostModelConfig] = None,
    range_filter: Optional[RangeFilter] = None,
    measure_overhead: bool = True,
) -> ReplayResult:
    """One-call convenience: build a :class:`TraceReplayer` and run it."""
    return TraceReplayer(
        trace,
        tools=tools,
        analysis_model=analysis_model,
        cost_config=cost_config,
        range_filter=range_filter,
        measure_overhead=measure_overhead,
    ).run()
