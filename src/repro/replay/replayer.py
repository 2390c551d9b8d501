"""Offline replay engine: re-drive recorded traces through fresh tool sets.

:class:`TraceReplayer` rebuilds the analysis half of a live
:class:`~repro.core.session.PastaSession` — a fresh
:class:`~repro.core.processor.PastaEventProcessor`, overhead accountants
(:class:`~repro.core.overhead.OverheadAccountant`) configured from the trace
header, and any set of tools — and feeds the recorded event stream through
it with **no runtime, framework or vendor backend attached**.  Because tools
only ever see normalised, preprocessed events, replaying a trace through the
same tool set yields reports identical to the live session's; replaying
through a *different* tool set, analysis model or cost-model configuration
answers what-if questions (e.g. "what would this workload have cost under
CPU-side analysis?") without re-simulating anything.

One pass answers several such questions at once.  Each
:class:`ReplayMember` names its tools, analysis model and cost config; a
tool instance several members share is driven and reports once, and one
accountant is charged per distinct analysis model and cost config — the
analysis model changes only that charge, never what the tools receive.

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
class ReplayMember:
    """What one member of a replay pass analyses, and how it is charged.

    Members of one pass may share tool instances: a tool several members
    list is driven once and reports once for all of them.  Members with an
    equal analysis model and cost config share one overhead accountant.
    """

    tools: Sequence[PastaTool] = ()
    #: Override the recorded analysis model — the overhead what-if knob.
    analysis_model: Union[str, AnalysisModel, None] = None
    #: Override the cost-model constants used by the overhead accountant.
    cost_config: Optional[CostModelConfig] = None
    #: Attach an overhead accountant (mirrors the live session default).
    measure_overhead: bool = True


@dataclass
class ReplayResult:
    """What one member gets from an offline replay pass."""

    trace_path: Optional[Path]  # None for a MemoryTrace
    tools: list[PastaTool]
    processor: PastaEventProcessor  # the pass's, shared by its members
    overhead_accountant: Optional[OverheadAccountant]
    analysis_model: AnalysisModel
    events_replayed: int = 0
    header: dict[str, object] = field(default_factory=dict)
    #: Every tool report of the pass by tool name, collected once when it ended.
    tool_reports: dict[str, dict[str, object]] = field(default_factory=dict, repr=False)

    def reports(self) -> dict[str, dict[str, object]]:
        """This member's tool reports, in its tool order, plus the overhead
        report — the live session's shape."""
        out = {tool.tool_name: self.tool_reports[tool.tool_name] for tool in self.tools}
        if self.overhead_accountant is not None:
            out["overhead"] = self.overhead_accountant.report()
        return out

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
    """Replays one trace, in one pass, for one or more members.

    Every member's tools see every event of the pass, and every member's
    overhead accountant is charged for every analysed launch, so each member
    gets the result a replay of its own would give.  Construction checks
    each member against the trace header — an unknown analysis model,
    fine-grained tools on a coarse trace, two tools reporting under one
    name — so a bad member raises before any event is replayed.

    Parameters
    ----------
    trace:
        Path to a trace file, an open :class:`TraceReader`, or a
        :class:`~repro.replay.writer.MemoryTrace`, whose events are replayed
        as they are, with no decode.
    members:
        What each member analyses (see :class:`ReplayMember`); a tool
        instance listed by several members is one tool of the pass.
    range_filter:
        Restrict analysis to a kernel-launch window, exactly as live; it
        applies to every member.
    device_spec / instrumentation:
        Override the trace header's device spec / instrumentation backend
        for the overhead accountants.  Multi-GPU traces record one header
        (rank 0's device) but replay per rank, so heterogeneous device sets
        need the actual rank's device here to reproduce the live overhead
        report.
    """

    def __init__(
        self,
        trace: Union[str, Path, TraceReader, MemoryTrace],
        members: Sequence[ReplayMember],
        range_filter: Optional[RangeFilter] = None,
        device_spec: Optional["DeviceSpec"] = None,
        instrumentation: Optional[str] = None,
    ) -> None:
        self.reader = trace if isinstance(trace, (TraceReader, MemoryTrace)) else TraceReader(trace)
        self.members = list(members)
        self.range_filter = range_filter
        header = self.reader.header
        device_spec = header.device_spec() if device_spec is None else device_spec
        backend = InstrumentationBackend(
            header.instrumentation if instrumentation is None else instrumentation
        )
        self._models: list[AnalysisModel] = []
        self._accountants: list[Optional[OverheadAccountant]] = []
        charged: dict[tuple[AnalysisModel, Optional[CostModelConfig]], OverheadAccountant] = {}
        for member in self.members:
            model = _make_analysis_model(
                header.analysis_model if member.analysis_model is None else member.analysis_model
            )
            fine_tools = sorted(t.tool_name for t in member.tools if t.requires_fine_grained)
            if fine_tools and not header.fine_grained:
                raise TraceError(
                    f"tools {fine_tools} require fine-grained (device-side) events, "
                    f"but this trace was recorded without fine-grained "
                    f"instrumentation; re-record with fine-grained enabled"
                )
            accountant = None
            if member.measure_overhead:
                key = (model, member.cost_config)
                if key not in charged:
                    charged[key] = OverheadAccountant(
                        device_spec=device_spec, analysis_model=model,
                        backend=backend, config=member.cost_config,
                    )
                accountant = charged[key]
            collect_reports(member.tools, accountant, dry_run=True)  # fail fast on name clashes
            self._models.append(model)
            self._accountants.append(accountant)
        #: The pass's tools: each distinct instance once, in first-listed order.
        self.tools = list({id(tool): tool for m in self.members for tool in m.tools}.values())
        collect_reports(self.tools, dry_run=True)  # a shared name is one shared instance
        self._charged = tuple(charged.values())

    def run(self) -> list[ReplayResult]:
        """Stream the trace through a fresh processor once; one result per member."""
        resolver = TraceAddressResolver()
        processor = PastaEventProcessor(
            address_resolver=resolver.resolve,
            range_filter=self.range_filter,
            overhead_accountants=self._charged,
        )
        for tool in self.tools:
            processor.register_tool(tool)
        for tool in self.tools:
            tool.on_session_start()
        events_replayed = 0
        with _active_telemetry().span(
            "replay.run",
            trace=str(self.reader.path or "<memory>"),
            members=len(self.members),
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
        tool_reports = collect_reports(self.tools)
        return [
            ReplayResult(
                trace_path=self.reader.path,
                tools=list(member.tools),
                processor=processor,
                overhead_accountant=accountant,
                analysis_model=model,
                events_replayed=events_replayed,
                header=dataclasses.asdict(self.reader.header),
                tool_reports=tool_reports,
            )
            for member, model, accountant in zip(self.members, self._models, self._accountants)
        ]


def replay_trace(
    trace: Union[str, Path, TraceReader, MemoryTrace],
    tools: Optional[Sequence[PastaTool]] = None,
    analysis_model: Union[str, AnalysisModel, None] = None,
    cost_config: Optional[CostModelConfig] = None,
    range_filter: Optional[RangeFilter] = None,
    measure_overhead: bool = True,
) -> ReplayResult:
    """One-call convenience: replay ``trace`` for one member and return its result."""
    member = ReplayMember(
        tools=list(tools or ()),
        analysis_model=analysis_model,
        cost_config=cost_config,
        measure_overhead=measure_overhead,
    )
    [result] = TraceReplayer(trace, [member], range_filter=range_filter).run()
    return result
