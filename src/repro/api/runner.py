"""The single execution path behind every way of running an analysis.

All four execution styles — live run, record-to-trace, offline replay, and
campaign jobs (in either simulate or replay mode) — are implemented here, and
all of them are driven by the same :class:`~repro.api.spec.ProfileSpec`.
A single-device profile is a one-rank world, so one code path serves any
number of ranks:

* :func:`execute` — build the spec's world (one framework context for a
  single device, or a device set and its DP/TP/PP runner) and simulate it
  under one live :class:`~repro.core.session.PastaSession` per rank,
  recording every rank into one trace when the spec says so;
* :func:`replay` — re-drive a recorded trace through the spec's tools and
  analysis model with no simulator attached, one replay per recorded rank;
* :func:`execute_payload` / :func:`record_workload_trace` /
  :func:`replay_payload` — the module-level, picklable wrappers the campaign
  scheduler fans out over worker pools (their arguments and results are
  JSON-native so they survive process boundaries).  :func:`replay_payload`
  answers a whole replay-mode workload group with one pass over the
  recorded events per rank and grid window; :func:`replay` is its
  one-member case.

Everything above this module — the ``pasta`` CLI, the fluent builder, the
campaign scheduler, the ``pasta serve`` daemon — is sugar over these
functions.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

from repro.api.spec import ParallelismSpec, ProfileSpec, normalize_parallelism
from repro.core.annotations import RangeFilter
from repro.core.registry import REGISTRY, create_tool
from repro.core.serialization import json_sanitize
from repro.core.session import PastaSession, _make_analysis_model, _make_backend
from repro.core.tool import PastaTool
from repro.dlframework.context import FrameworkContext
from repro.dlframework.engine import ExecutionEngine, RunSummary
from repro.dlframework.models.base import ModelBase
from repro.errors import ReproError, TraceError
from repro.gpusim.costmodel import CostModelConfig
from repro.obs.telemetry import active as _active_telemetry
from repro.gpusim.device import DeviceSpec
from repro.gpusim.runtime import AcceleratorRuntime, create_runtime
from repro.gpusim.trace import AnalysisModel
from repro.vendors import ProfilingBackend

if TYPE_CHECKING:  # pragma: no cover - repro.replay imports this package
    from repro.replay.format import TraceHeader
    from repro.replay.reader import TraceReader
    from repro.replay.replayer import ReplayMember
    from repro.replay.writer import MemoryTrace

#: Tool every parallel rank carries implicitly: its per-device timeline is
#: the per-rank memory profile the cross-rank report aggregates (Figure 15's
#: y-axis), and — being an ordinary event-driven tool — it reproduces byte
#: for byte under offline replay.
PARALLEL_MEMORY_TOOL = "memory_timeline"


@dataclass
class ProfileResult:
    """Everything produced by one profiled workload run."""

    spec: ProfileSpec
    model: ModelBase
    runtime: AcceleratorRuntime
    ctx: FrameworkContext
    session: PastaSession
    summary: RunSummary

    def reports(self) -> dict[str, dict[str, object]]:
        """Tool reports collected by the session (plus ``"overhead"``)."""
        return self.session.reports()

    def tool(self, name: str) -> PastaTool:
        """Fetch one of the session's tools by its registry name."""
        for tool in self.session.tools:
            if tool.tool_name == name:
                return tool
        attached = sorted(tool.tool_name for tool in self.session.tools)
        raise ReproError(
            f"tool {name!r} was not attached to this session; "
            f"attached tools: {attached if attached else 'none'}"
        )

    def report(self, name: str) -> dict[str, object]:
        """One attached tool's report by registry name."""
        return self.tool(name).report()


# ---------------------------------------------------------------------- #
# multi-GPU parallel execution (DP/TP/PP over a shared DeviceSet)
# ---------------------------------------------------------------------- #

@dataclass
class ParallelRunSummaryView:
    """Run summary of one parallel profile: per-rank rows plus totals.

    Shape-compatible with :class:`~repro.dlframework.engine.RunSummary` where
    it matters — ``as_dict()`` exposes the same top-level roll-up metrics the
    campaign aggregator reads (``kernel_launches``, ``peak_allocated_bytes``,
    ``total_kernel_time_ns``), summed (peaks: max) across ranks, with the
    per-rank breakdown nested under ``ranks``.
    """

    model_name: str
    strategy: str
    world_size: int
    iterations: int
    per_rank: list[dict[str, object]] = field(default_factory=list)
    mode: str = "train"

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for reports and campaign records."""
        return {
            "model": self.model_name,
            "mode": self.mode,
            "iterations": self.iterations,
            "parallelism": {"strategy": self.strategy, "world_size": self.world_size},
            "kernel_launches": sum(int(r["kernel_launches"]) for r in self.per_rank),
            "peak_allocated_bytes": max(
                (int(r["peak_allocated_bytes"]) for r in self.per_rank), default=0
            ),
            "allocation_events": sum(int(r["allocation_events"]) for r in self.per_rank),
            "total_kernel_time_ns": sum(
                int(r["total_kernel_time_ns"]) for r in self.per_rank
            ),
            "ranks": [dict(r) for r in self.per_rank],
        }


def _cross_rank_report(
    parallelism: Mapping[str, object],
    device_indices: Sequence[int],
    rank_reports: Sequence[Mapping[str, object]],
) -> dict[str, object]:
    """Aggregate per-rank reports into the Figure-15 cross-rank comparison.

    A pure function of the per-rank tool reports (the implicit
    ``memory_timeline`` per rank), so live runs and offline replays of the
    same event stream produce byte-identical aggregates.
    """
    peaks: list[int] = []
    events: list[int] = []
    for index, report in zip(device_indices, rank_reports):
        devices = report.get(PARALLEL_MEMORY_TOOL, {}).get("devices", {})  # type: ignore[union-attr]
        timeline = devices.get(str(index), {})
        peaks.append(int(timeline.get("peak_bytes", 0)))
        events.append(int(timeline.get("events", 0)))
    max_peak = max(peaks) if peaks else 0
    min_peak = min(peaks) if peaks else 0
    return {
        **dict(parallelism),
        "device_indices": [int(i) for i in device_indices],
        "peak_bytes_per_rank": peaks,
        "allocation_events_per_rank": events,
        "max_peak_bytes": max_peak,
        "min_peak_bytes": min_peak,
        # Symmetry of the per-rank memory curves: 1.0 for DP/TP (replicated
        # or evenly sharded), < 1.0 for PP's uneven stages.
        "peak_symmetry": (min_peak / max_peak) if max_peak else 1.0,
        # Last-over-first peak ratio: > 1.0 under PP, where the final stage
        # owns the LM head and the logits tensor (Figure 15c).
        "last_over_first_peak": (peaks[-1] / peaks[0]) if peaks and peaks[0] else 0.0,
        "peak_delta_bytes": max_peak - min_peak,
    }


def _parallel_reports(
    spec: ProfileSpec,
    device_indices: Sequence[int],
    rank_reports: Sequence[dict[str, dict[str, object]]],
) -> dict[str, dict[str, object]]:
    """Assemble the aggregated report document of one parallel profile."""
    parallelism = spec.parallelism
    assert parallelism is not None
    descriptor = dict(parallelism.to_dict())
    descriptor["devices"] = list(parallelism.resolved_devices(spec.device))
    return {
        "parallelism": descriptor,
        "ranks": {
            f"rank{rank}": dict(report) for rank, report in enumerate(rank_reports)
        },
        "cross_rank": _cross_rank_report(descriptor, device_indices, rank_reports),
    }


def _rank_tools(
    names: Sequence[str],
    parallelism: Optional[ParallelismSpec],
    extra_tools: Sequence[PastaTool] = (),
    create: Callable[[str], PastaTool] = create_tool,
) -> list[PastaTool]:
    """One rank's tool set: the named tools, the implicit per-rank memory
    timeline of a parallel profile (unless named), then the extra instances.
    ``create`` makes each named tool (a fresh instance by default)."""
    tools = [create(name) for name in names]
    if parallelism is not None and PARALLEL_MEMORY_TOOL not in names:
        tools.append(create(PARALLEL_MEMORY_TOOL))
    tools.extend(extra_tools)
    return tools


def _parallel_model_config(spec: ProfileSpec) -> object:
    """The (possibly batch-size-overridden) model config of a parallel run."""
    model = REGISTRY.create("models", spec.model)
    if not getattr(model, "supports_parallelism", False):
        supported = sorted(
            name for name in REGISTRY.names("models")
            if getattr(REGISTRY.namespace("models").get(name), "supports_parallelism", False)
        )
        raise ReproError(
            f"model {spec.model!r} does not support multi-GPU parallelism "
            f"profiles; models that do: {supported or ['megatron_gpt2_345m']}"
        )
    config = model.config  # type: ignore[attr-defined]
    if spec.batch_size is not None:
        config = dataclasses.replace(config, batch_size=spec.batch_size)
    return config


@dataclass
class ParallelProfileResult:
    """Everything produced by one multi-GPU parallel profile.

    The parallel sibling of :class:`ProfileResult`: one instrumented
    :class:`~repro.core.session.PastaSession` per rank over a shared
    :class:`~repro.gpusim.multigpu.DeviceSet`, with :meth:`reports`
    aggregating per-rank tool reports and the cross-rank comparison.
    """

    spec: ProfileSpec
    device_set: object  # DeviceSet (typed loosely to keep gpusim imports lazy)
    runner: object  # dlframework.parallel.ParallelRunner
    sessions: list[PastaSession]
    summary: ParallelRunSummaryView
    device_indices: list[int] = field(default_factory=list)

    def rank_reports(self) -> list[dict[str, dict[str, object]]]:
        """Each rank's session reports (tools plus ``"overhead"``)."""
        return [session.reports() for session in self.sessions]

    def reports(self) -> dict[str, dict[str, object]]:
        """Aggregated document: ``parallelism`` / ``ranks`` / ``cross_rank``."""
        return _parallel_reports(self.spec, self.device_indices, self.rank_reports())

    def tool(self, name: str, rank: int = 0) -> PastaTool:
        """Fetch one rank's tool instance by registry name."""
        if not 0 <= rank < len(self.sessions):
            raise ReproError(
                f"rank {rank} out of range for world size {len(self.sessions)}"
            )
        for tool in self.sessions[rank].tools:
            if tool.tool_name == name:
                return tool
        attached = sorted(t.tool_name for t in self.sessions[rank].tools)
        raise ReproError(
            f"tool {name!r} was not attached to rank {rank}; attached: {attached}"
        )

    def report(self, name: str, rank: int = 0) -> dict[str, object]:
        """One rank's tool report by registry name."""
        return self.tool(name, rank).report()


@dataclass
class ParallelReplayResult:
    """Offline twin of :class:`ParallelProfileResult`: per-rank replays of
    one multi-GPU trace, aggregated exactly like the live run."""

    spec: ProfileSpec
    trace_path: Optional[Path]
    rank_results: list[object]  # replay.replayer.ReplayResult per rank
    device_indices: list[int] = field(default_factory=list)

    @property
    def events_replayed(self) -> int:
        """Total events re-driven across all ranks."""
        return sum(result.events_replayed for result in self.rank_results)  # type: ignore[attr-defined]

    def rank_reports(self) -> list[dict[str, dict[str, object]]]:
        """Each rank's replayed reports (tools plus ``"overhead"``)."""
        return [result.reports() for result in self.rank_results]  # type: ignore[attr-defined]

    def reports(self) -> dict[str, dict[str, object]]:
        """Aggregated document: ``parallelism`` / ``ranks`` / ``cross_rank``."""
        return _parallel_reports(self.spec, self.device_indices, self.rank_reports())


def _rank_progress_hook(spec: ProfileSpec, parallelism: ParallelismSpec):
    """Per-iteration callback streaming per-rank progress to the active bus.

    Returns ``None`` when no progress bus is active, so the common case adds
    nothing to the parallel runner's iteration loop.  The lockstep runners
    advance every rank together, so one callback fans out to one record per
    rank — the shape ``pasta campaign watch`` renders as per-rank lanes.
    """
    from repro.campaign.progress import active_progress

    progress = active_progress()
    if not progress.enabled:
        return None
    label = spec.label()

    def on_iteration(completed: int, iterations: int) -> None:
        for rank in range(parallelism.world_size):
            progress.emit(
                "rank", event="progress", job=label,
                strategy=parallelism.strategy, rank=rank,
                iteration=completed, iterations=iterations,
            )

    return on_iteration


# ---------------------------------------------------------------------- #
# worlds: what a profile simulates, one framework context per rank
# ---------------------------------------------------------------------- #

class _DeviceWorld:
    """A single-device profile: one rank, one framework context driven by
    :class:`~repro.dlframework.engine.ExecutionEngine`."""

    def __init__(self, spec: ProfileSpec, device: Optional[DeviceSpec]) -> None:
        self.spec = spec
        # create() (not get()) so the namespace's DeviceSpec product check runs.
        device_spec = device if device is not None else REGISTRY.create("devices", spec.device)
        self.runtime = create_runtime(device_spec)  # type: ignore[arg-type]
        self.contexts = [FrameworkContext(self.runtime)]
        self.model: ModelBase = REGISTRY.create("models", spec.model)  # type: ignore[assignment]

    def simulate(self) -> RunSummary:
        spec, model = self.spec, self.model
        engine = ExecutionEngine(self.contexts[0])
        engine.prepare(model)
        if spec.mode == "inference":
            return engine.run_inference(
                model, iterations=spec.iterations, batch_size=spec.batch_size
            )
        return engine.run_training(
            model, iterations=spec.iterations, batch_size=spec.batch_size
        )

    def result(self, sessions: list[PastaSession], summary: RunSummary) -> ProfileResult:
        return ProfileResult(
            spec=self.spec, model=self.model, runtime=self.runtime,
            ctx=self.contexts[0], session=sessions[0], summary=summary,
        )


class _ParallelWorld:
    """A multi-GPU profile: one rank per device of a
    :class:`~repro.gpusim.multigpu.DeviceSet`, driven by the spec's DP/TP/PP
    runner, whose contexts exist before any model shard materializes."""

    def __init__(self, spec: ProfileSpec) -> None:
        # Imported lazily: the parallel runner pulls in the model zoo, which
        # the api module must not import eagerly.
        from repro.dlframework.parallel import create_parallel_runner
        from repro.gpusim.multigpu import DeviceSet

        assert spec.parallelism is not None
        self.spec = spec
        self.parallelism = parallelism = spec.parallelism
        self.device_names = parallelism.resolved_devices(spec.device)
        self.device_set = DeviceSet(
            [REGISTRY.create("devices", name) for name in self.device_names]  # type: ignore[misc]
        )
        self.runner = create_parallel_runner(
            parallelism.strategy,
            self.device_set,
            _parallel_model_config(spec),  # type: ignore[arg-type]
            num_microbatches=(
                parallelism.microbatches if parallelism.strategy == "pp" else None
            ),
        )
        self.contexts = self.runner.contexts

    def simulate(self) -> ParallelRunSummaryView:
        spec, parallelism = self.spec, self.parallelism
        self.runner.run(spec.iterations, progress=_rank_progress_hook(spec, parallelism))
        per_rank = [
            {
                "rank": rank,
                "device": self.device_names[rank],
                "device_index": ctx.runtime.device.index,
                "kernel_launches": ctx.kernel_launch_count,
                "peak_allocated_bytes": ctx.allocator.stats.peak_allocated_bytes,
                "peak_reserved_bytes": ctx.allocator.stats.peak_reserved_bytes,
                "allocation_events": ctx.allocator.event_count,
                "total_kernel_time_ns": ctx.runtime.total_kernel_time_ns(),
            }
            for rank, ctx in enumerate(self.contexts)
        ]
        return ParallelRunSummaryView(
            model_name=spec.model,
            strategy=parallelism.strategy,
            world_size=parallelism.world_size,
            iterations=spec.iterations,
            per_rank=per_rank,
        )

    def result(
        self, sessions: list[PastaSession], summary: ParallelRunSummaryView
    ) -> ParallelProfileResult:
        return ParallelProfileResult(
            spec=self.spec,
            device_set=self.device_set,
            runner=self.runner,
            sessions=sessions,
            summary=summary,
            device_indices=list(self.device_set.device_indices),
        )


def _trace_header(
    spec: ProfileSpec,
    contexts: Sequence[FrameworkContext],
    backends: Sequence[ProfilingBackend],
    tools: Sequence[PastaTool],
) -> "TraceHeader":
    """The one header of a profile's trace, described by rank 0.

    A parallel trace's workload also names each rank's device index, device
    and instrumentation, which :func:`replay` slices and configures by.
    """
    from repro.replay.format import TraceHeader

    workload = spec.canonical()
    if spec.parallelism is not None:
        workload["device_indices"] = [ctx.runtime.device.index for ctx in contexts]
        workload["rank_devices"] = list(spec.parallelism.resolved_devices(spec.device))
        workload["rank_instrumentation"] = [b.instrumentation.value for b in backends]
    return TraceHeader.for_recording(
        device_spec=contexts[0].runtime.device.spec,
        analysis_model=_make_analysis_model(spec.analysis_model).value,
        backend=backends[0].name,
        instrumentation=backends[0].instrumentation.value,
        fine_grained=spec.fine_grained or any(t.requires_fine_grained for t in tools),
        workload=workload,
    )


def execute(
    spec: ProfileSpec,
    *,
    extra_tools: Sequence[PastaTool] = (),
    device: Optional[DeviceSpec] = None,
    range_filter: Optional[RangeFilter] = None,
    cost_config: Optional[CostModelConfig] = None,
    record_to: Union[str, Path, "MemoryTrace", None] = None,
) -> Union[ProfileResult, ParallelProfileResult]:
    """Simulate ``spec``'s workload under live PASTA sessions, one per rank.

    The spec is authoritative; the keyword arguments are programmatic escape
    hatches for things a declarative spec cannot carry — already-built tool
    *instances* (``extra_tools``), a custom :class:`DeviceSpec` not in the
    device registry, pre-built range/cost overrides (which otherwise come
    from the spec's knobs), and a ``record_to`` destination overriding the
    spec's: a trace file, or a :class:`~repro.replay.writer.MemoryTrace`.

    A single-device spec is a one-rank world and returns a
    :class:`ProfileResult`; a spec with a
    :class:`~repro.api.spec.ParallelismSpec` returns a
    :class:`ParallelProfileResult`.  Parallel ranks take their devices and
    tools from the spec, so the ``extra_tools``, ``device`` and stateful
    ``range_filter`` escape hatches are rejected there.  Every session
    attaches before the workload materializes, so each rank's complete event
    stream is observed and, when recording, persisted into **one** trace
    (per-rank sliceable by ``device_index``) whose writer is owned here:
    closed when the run finishes, aborted on any failure after it opened.
    """
    if spec.parallelism is not None:
        if extra_tools:
            raise ReproError(
                "parallel profiles attach one fresh tool instance per rank; "
                "register tools and name them in the spec instead of passing "
                "extra_tools instances"
            )
        if device is not None or range_filter is not None:
            raise ReproError(
                "parallel profiles resolve per-rank devices and range filters "
                "from the spec; the device/range_filter overrides do not apply"
            )
    record_to = record_to if record_to is not None else spec.record_to

    telemetry = _active_telemetry()
    with ExitStack() as recording:
        with telemetry.span("profile.setup", model=spec.model, device=spec.device):
            if telemetry.enabled:
                import repro

                telemetry.annotate(spec_digest=spec.digest(repro.__version__), model=spec.model)
            world: Union[_DeviceWorld, _ParallelWorld] = (
                _DeviceWorld(spec, device) if spec.parallelism is None
                else _ParallelWorld(spec)
            )
            contexts = world.contexts
            backends = [_make_backend(spec.backend, ctx.runtime) for ctx in contexts]
            tool_sets = [_rank_tools(spec.tools, spec.parallelism, extra_tools) for _ in contexts]
            overrides = [spec.resolve_overrides() for _ in contexts]
            writer = None
            if record_to is not None:
                from repro.replay.writer import MemoryTrace, TraceWriter

                header = _trace_header(spec, contexts, backends, tool_sets[0])
                if isinstance(record_to, MemoryTrace):
                    writer = record_to
                    writer.header = header
                    if writer.save_to is not None:
                        writer.file = recording.enter_context(TraceWriter(writer.save_to, header))
                else:
                    writer = recording.enter_context(TraceWriter(record_to, header))
            sessions = []
            for ctx, backend, tools, (spec_range, spec_cost) in zip(
                contexts, backends, tool_sets, overrides
            ):
                session = PastaSession(
                    ctx.runtime,
                    tools=tools,
                    vendor_backend=backend,
                    analysis_model=spec.analysis_model,
                    enable_fine_grained=spec.fine_grained,
                    range_filter=range_filter if range_filter is not None else spec_range,  # type: ignore[arg-type]
                    cost_config=cost_config if cost_config is not None else spec_cost,  # type: ignore[arg-type]
                    trace_writer=writer,
                )
                session.attach_framework(ctx)
                sessions.append(session)
        # Imported lazily to avoid a cycle: the campaign package imports this
        # module at load time.
        from repro.campaign.progress import active_progress

        progress = active_progress()
        if progress.enabled:
            progress.emit(
                "phase", event="simulate", job=spec.label(), model=spec.model,
                mode=spec.mode, iterations=spec.iterations,
            )
        with telemetry.span(
            "profile.simulate",
            model=spec.model,
            mode=spec.mode,
            iterations=spec.iterations,
        ) as simulate_span:
            with ExitStack() as running:
                # Sessions are entered in rank order on one thread, so the
                # per-rank session.run spans nest rank0 → rank1 → …; the rank
                # attribute is what distinguishes them in the tree (and moves
                # them to per-rank export lanes, which a single device's one
                # session does not get).
                for rank, session in enumerate(sessions):
                    running.enter_context(session)
                    if spec.parallelism is not None:
                        session.annotate_telemetry(rank=rank)
                summary = world.simulate()
            simulate_span.set_counter(
                "events_processed", sum(s.processor.events_processed for s in sessions)
            )
    return world.result(sessions, summary)


def _split_tools(
    tools: Optional[Sequence[Union[PastaTool, str]]],
) -> tuple[tuple[str, ...], list[PastaTool]]:
    """Separate registry names (spec data) from tool instances (overrides)."""
    names: list[str] = []
    instances: list[PastaTool] = []
    for tool in tools or ():
        if isinstance(tool, str):
            names.append(tool)
        else:
            instances.append(tool)
    return tuple(names), instances


def _device_name(device: Union[str, DeviceSpec]) -> tuple[str, Optional[DeviceSpec]]:
    """Map a device argument to ``(spec.device, device_override)``."""
    if isinstance(device, str):
        return device, None
    ns = REGISTRY.namespace("devices")
    for name in ns.names():
        if ns.get(name) == device:
            return name, None
    return device.name, device  # custom spec: label with its marketing name


def run(
    spec_or_model: Union[ProfileSpec, str],
    *,
    device: Union[str, DeviceSpec, None] = None,
    mode: Optional[str] = None,
    iterations: Optional[int] = None,
    tools: Optional[Sequence[Union[PastaTool, str]]] = None,
    backend: Optional[str] = None,
    fine_grained: Optional[bool] = None,
    batch_size: Optional[int] = None,
    analysis_model: Union[str, AnalysisModel, None] = None,
    knobs: Optional[Mapping[str, object]] = None,
    parallelism: Union[ParallelismSpec, Mapping[str, object], str, None] = None,
    range_filter: Optional[RangeFilter] = None,
    cost_config: Optional[CostModelConfig] = None,
    record_to: Union[str, Path, None] = None,
) -> Union[ProfileResult, ParallelProfileResult]:
    """Profile one workload: ``pasta.run("gpt2", tools=["hotness"])``.

    Accepts either a ready :class:`ProfileSpec` or a model name, plus the
    spec's fields as keywords.  Keywords left at ``None`` are "not given":
    with a model name they take the spec defaults, with a spec they leave
    that spec's field untouched, and any keyword actually passed acts as a
    per-field override (``run(spec, iterations=3)`` profiles
    ``spec.replace(iterations=3)``).  To *reset* a spec field to a default
    (e.g. clear ``batch_size``), use :meth:`ProfileSpec.replace` directly.
    ``tools`` may mix registry names with :class:`PastaTool` instances;
    names become part of the spec, instances ride along as extras.

    ``parallelism`` (a :class:`~repro.api.spec.ParallelismSpec`, dict, or
    bare strategy name such as ``"tp"``) turns the run into a multi-GPU
    parallel profile; parallel profiles train, so a run given parallelism
    without an explicit mode defaults to ``mode="train"``.
    """
    names, instances = _split_tools(tools)
    parallelism = normalize_parallelism(parallelism)
    if parallelism is not None and mode is None:
        mode = "train"
    if isinstance(analysis_model, AnalysisModel):
        analysis_model = analysis_model.value
    device_override: Optional[DeviceSpec] = None
    device_name: Optional[str] = None
    if device is not None:
        device_name, device_override = _device_name(device)
    if isinstance(spec_or_model, ProfileSpec):
        spec = spec_or_model
        changes: dict[str, object] = {}
        if device_name is not None:
            changes["device"] = device_name
        if mode is not None:
            changes["mode"] = mode
        if iterations is not None:
            changes["iterations"] = iterations
        if names:
            # Passed names replace the spec's tool set; instance-only lists
            # leave it untouched (instances are always extras on top).
            changes["tools"] = tuple(names)
        if backend is not None:
            changes["backend"] = backend
        if fine_grained is not None:
            changes["fine_grained"] = fine_grained
        if batch_size is not None:
            changes["batch_size"] = batch_size
        if analysis_model is not None:
            changes["analysis_model"] = str(analysis_model)
        if knobs is not None:
            changes["knobs"] = tuple((str(k), v) for k, v in knobs.items())
        if parallelism is not None:
            changes["parallelism"] = parallelism
        if changes:
            spec = spec.replace(**changes)
    else:
        spec = ProfileSpec(
            model=spec_or_model,
            device="a100" if device_name is None else device_name,
            mode="inference" if mode is None else mode,
            tools=names,
            iterations=1 if iterations is None else iterations,
            batch_size=batch_size,
            backend=backend,
            analysis_model="gpu_resident" if analysis_model is None else str(analysis_model),
            fine_grained=bool(fine_grained),
            knobs=tuple((str(k), v) for k, v in (knobs or {}).items()),  # type: ignore[arg-type]
            parallelism=parallelism,
            record_to=None if record_to is None else str(record_to),
        )
    return execute(
        spec,
        extra_tools=instances,
        device=device_override,
        range_filter=range_filter,
        cost_config=cost_config,
        record_to=record_to,
    )


# ---------------------------------------------------------------------- #
# offline replay: one pass per rank and grid window for a whole group
# ---------------------------------------------------------------------- #

@dataclass
class _ReplayRequest:
    """One member of a replay group: a spec plus :func:`replay`'s overrides,
    resolved (knobs included) before any pass runs."""

    spec: Optional[ProfileSpec]
    names: tuple[str, ...]
    instances: list[PastaTool]
    analysis_model: Union[str, AnalysisModel, None]
    cost_config: Optional[CostModelConfig]
    #: The spec's grid window; members with equal windows share a pass.
    window: tuple[Optional[int], Optional[int]]
    #: A caller's filter instance, which the member's pass uses as it is.
    range_filter: Optional[RangeFilter]
    measure_overhead: bool

    @classmethod
    def of(
        cls,
        spec: Optional[ProfileSpec],
        tools: Optional[Sequence[Union[PastaTool, str]]] = None,
        analysis_model: Union[str, AnalysisModel, None] = None,
        cost_config: Optional[CostModelConfig] = None,
        range_filter: Optional[RangeFilter] = None,
        measure_overhead: bool = True,
    ) -> "_ReplayRequest":
        if spec is not None and spec.parallelism is not None and (
            tools or analysis_model is not None or cost_config is not None
            or range_filter is not None
        ):
            raise ReproError(
                "parallel replays are configured entirely by the spec "
                "(tools, analysis model, knobs); the per-field keyword "
                "overrides do not apply"
            )
        names, instances = _split_tools(tools)
        window: tuple[Optional[int], Optional[int]] = (None, None)
        if spec is not None:
            # Instance-only (or absent) tool lists keep the spec's tool set;
            # passed names replace it.  Instances are always extras on top.
            names = names or spec.tools
            if analysis_model is None:
                analysis_model = spec.analysis_model
            spec_range, spec_cost = spec.resolve_overrides()
            if cost_config is None:
                cost_config = spec_cost
            if isinstance(spec_range, RangeFilter):
                window = (spec_range.start_grid_id, spec_range.end_grid_id)
        return cls(spec, names, instances, analysis_model, cost_config, window,
                   range_filter, measure_overhead)

    @property
    def parallelism(self) -> Optional[ParallelismSpec]:
        return None if self.spec is None else self.spec.parallelism

    def pass_key(self) -> tuple[object, ...]:
        """Members with equal keys replay the same ranks under equal range
        filters, so they share one pass per rank."""
        layout = None if self.parallelism is None else (self.parallelism, self.spec.device)
        return (layout, self.window if self.range_filter is None else id(self.range_filter))

    def member(self, create: Callable[[str], PastaTool] = create_tool) -> "ReplayMember":
        """This member of one rank's pass, its named tools made by ``create``."""
        from repro.replay.replayer import ReplayMember

        return ReplayMember(
            tools=_rank_tools(self.names, self.parallelism, self.instances, create),
            analysis_model=self.analysis_model,
            cost_config=self.cost_config,
            measure_overhead=self.measure_overhead,
        )


def _replay_ranks(
    reader: Union["TraceReader", "MemoryTrace"], spec: Optional[ProfileSpec]
) -> list[tuple[Optional[int], Optional[DeviceSpec], Optional[str]]]:
    """``(device index, device spec, instrumentation)`` per rank to replay.

    The one rank of a single-device replay keeps the header's device and
    instrumentation and streams every event; a parallel spec gets one rank
    per device index the trace recorded.
    """
    parallelism = None if spec is None else spec.parallelism
    if parallelism is None:
        return [(None, None, None)]
    metadata = reader.header.workload
    device_indices = metadata.get("device_indices")
    if not isinstance(device_indices, list) or not device_indices:
        raise TraceError(
            f"trace {reader.path} does not carry per-rank device indices; it "
            f"was not recorded from a multi-GPU parallel profile"
        )
    if len(device_indices) != parallelism.world_size:
        raise TraceError(
            f"trace {reader.path} records {len(device_indices)} ranks but the "
            f"spec's parallelism expects {parallelism.world_size}"
        )
    instrumentation = metadata.get("rank_instrumentation")
    if not isinstance(instrumentation, list):
        instrumentation = [None] * len(device_indices)
    return [
        (int(index), REGISTRY.create("devices", name), kind)  # type: ignore[misc]
        for index, name, kind in zip(
            device_indices, parallelism.resolved_devices(spec.device), instrumentation  # type: ignore[union-attr]
        )
    ]


def _shared_tools() -> Callable[[str], PastaTool]:
    """A tool factory making one instance per registry name: one pass's tools."""
    tools: dict[str, PastaTool] = {}

    def create(name: str) -> PastaTool:
        if name not in tools:
            tools[name] = create_tool(name)
        return tools[name]

    return create


def _replay_pass(
    reader: Union["TraceReader", "MemoryTrace"], requests: Sequence[_ReplayRequest]
) -> list[object]:
    """Replay ``requests``, which share a pass key, with one
    :meth:`TraceReplayer.run` per rank; return each request's result."""
    from repro.replay.replayer import TraceReplayer
    from repro.replay.writer import MemoryTrace

    first = requests[0]
    ranks = _replay_ranks(reader, first.spec)
    events = None if first.parallelism is None else list(reader.events())  # read once, sliced per rank
    per_rank = []
    for device_index, device_spec, rank_instrumentation in ranks:
        range_filter = first.range_filter
        if range_filter is None and first.window != (None, None):
            range_filter = RangeFilter(start_grid_id=first.window[0], end_grid_id=first.window[1])
        create = _shared_tools()
        per_rank.append(TraceReplayer(
            reader if events is None else MemoryTrace(reader.header, [
                e for e in events if e.device_index == device_index  # type: ignore[attr-defined]
            ]),
            [request.member(create) for request in requests],
            range_filter=range_filter,
            device_spec=device_spec,
            instrumentation=rank_instrumentation,
        ).run())
    if first.parallelism is None:
        return list(per_rank[0])
    return [
        ParallelReplayResult(
            spec=request.spec,
            trace_path=reader.path,
            rank_results=[results[member] for results in per_rank],
            device_indices=[int(index) for index, _, _ in ranks],  # type: ignore[arg-type]
        )
        for member, request in enumerate(requests)
    ]


def _replay_together(
    reader: Union["TraceReader", "MemoryTrace"], requests: Sequence[_ReplayRequest]
) -> list[object]:
    """One pass for ``requests``; if it raises, one pass per request, so a
    failing tool fails only the members that asked for it."""
    try:
        return _replay_pass(reader, requests)
    except Exception as error:
        if len(requests) == 1:
            return [error]
        return [outcome for request in requests for outcome in _replay_together(reader, [request])]


def _replay_group(
    trace: object, requests: Sequence[Union[_ReplayRequest, Exception]]
) -> list[object]:
    """Answer each request from one trace: its result, or the exception that
    failed it (an exception in place of a request is passed through).

    A request's own configuration error (an unknown tool or analysis model,
    two tools under one name, fine-grained tools on a coarse trace, a spec
    the trace's ranks do not fit) fails it alone, before any pass runs.
    The rest replay together, one pass per rank and grid window.
    """
    from repro.replay.reader import TraceReader
    from repro.replay.replayer import TraceReplayer
    from repro.replay.writer import MemoryTrace

    outcomes: list[object] = list(requests)
    try:
        reader = trace if isinstance(trace, (TraceReader, MemoryTrace)) else TraceReader(trace)  # type: ignore[arg-type]
    except Exception as error:
        return [r if isinstance(r, Exception) else error for r in requests]
    passes: dict[tuple[object, ...], list[int]] = {}
    for index, request in enumerate(requests):
        if isinstance(request, Exception):
            continue
        try:
            # Rank 0's member, checked against the trace and dropped.
            _, device_spec, instrumentation = _replay_ranks(reader, request.spec)[0]
            TraceReplayer(reader, [request.member()], device_spec=device_spec,
                          instrumentation=instrumentation)
        except Exception as error:
            outcomes[index] = error
        else:
            passes.setdefault(request.pass_key(), []).append(index)
    for indices in passes.values():
        together = _replay_together(reader, [requests[i] for i in indices])
        for index, outcome in zip(indices, together):
            outcomes[index] = outcome
    return outcomes


def replay(
    trace: object,
    spec: Optional[ProfileSpec] = None,
    *,
    tools: Optional[Sequence[Union[PastaTool, str]]] = None,
    analysis_model: Union[str, AnalysisModel, None] = None,
    cost_config: Optional[CostModelConfig] = None,
    range_filter: Optional[RangeFilter] = None,
    measure_overhead: bool = True,
):
    """Re-drive a recorded trace offline, configured by the same spec.

    ``trace`` is a path, an open :class:`~repro.replay.reader.TraceReader`,
    or a :class:`~repro.replay.writer.MemoryTrace` (replayed with no decode).
    With a ``spec``, the replayed tool set, analysis model and knob
    overrides come from it — replaying the spec that recorded a trace
    reproduces the live session's reports byte for byte.  Explicit keyword
    arguments override the spec field for field; tool names and instances
    may be mixed as in :func:`run`.

    This is the one-member case of the group replay that answers a
    replay-mode campaign group (:func:`replay_payload`), so one code path
    serves both.  Like :func:`execute`, it serves every world size too.
    Without parallelism, one rank gets every event and the result is a
    :class:`~repro.replay.replayer.ReplayResult`.  A spec with a parallelism
    config is replayed once per device index the trace recorded, over that
    rank's slice of the events and with that rank's device, into a
    :class:`ParallelReplayResult`; the per-field keyword overrides do not
    apply there, but ``measure_overhead`` does.
    """
    request = _ReplayRequest.of(
        spec, tools, analysis_model, cost_config, range_filter, measure_overhead
    )
    [outcome] = _replay_group(trace, [request])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------- #
# picklable payload runners (the campaign scheduler's worker functions)
# ---------------------------------------------------------------------- #

def execute_payload(
    payload: Mapping[str, object], record_to: Union[str, Path, None] = None
) -> dict[str, object]:
    """Run one job described by a plain (picklable) spec dict.

    Invoked by the campaign scheduler — in the calling process or, under the
    process-pool executor, in a freshly spawned interpreter — so both the
    argument and the result are JSON-native data, never live simulator
    objects.  The payload is a :meth:`ProfileSpec.to_dict` dict; the record
    holds the echoed payload, the run summary, and every tool report.
    """
    # Imported here, not at module top: repro.campaign.faults lives in a
    # package whose __init__ imports the scheduler, which imports this module.
    from repro.campaign.faults import active_faults

    spec = ProfileSpec.from_dict(payload)
    # Chaos hook: lets the fault harness (PASTA_FAULTS) raise, stall or
    # SIGKILL a job here — inside process-pool workers and subprocess drills
    # too, since the injector arms itself from the inherited environment.
    active_faults().fire("runner.execute", label=spec.label())
    result = execute(spec, record_to=record_to)
    return json_sanitize({
        "job": dict(payload),
        "status": "ok",
        "summary": result.summary.as_dict(),
        "reports": result.reports(),
        "execution": "simulate",
    })


def workload_signature(payload: Mapping[str, object]) -> tuple[object, ...]:
    """Simulation identity of a payload (see :meth:`ProfileSpec.workload_signature`)."""
    return ProfileSpec.from_dict(payload).workload_signature()


def record_workload_trace(
    payload: Mapping[str, object], record_to: Union[str, Path, "MemoryTrace"]
) -> dict[str, object]:
    """Simulate a payload's workload once, recording every event to
    ``record_to`` (a trace file, or a :class:`~repro.replay.writer.MemoryTrace`).

    The recording run attaches no tools and no knob overrides so the trace
    carries the complete event stream; any spec with the same
    :meth:`ProfileSpec.workload_signature` can then be answered by replay.
    Returns the JSON-native run summary shared by every job of the group.
    """
    spec = ProfileSpec.from_dict(payload)
    base = spec.replace(
        tools=(),
        knobs=(),
        analysis_model="gpu_resident",
        fine_grained=spec.needs_fine_grained(),
    )
    result = execute(base, record_to=record_to)
    return json_sanitize(result.summary.as_dict())


def replay_payload(
    payloads: Sequence[Mapping[str, object]],
    trace: object,
    summary: Mapping[str, object],
) -> list[Union[dict[str, object], Exception]]:
    """Answer a workload group's jobs by replaying its recorded trace.

    Returns one record per payload, in order, with the same shape (and, for
    the shared fields, the same values) as :func:`execute_payload`'s, but
    without re-simulating: the specs' tools, analysis models and knobs are
    re-driven offline, one pass per rank and grid window for the whole
    group (see :func:`replay`).  A payload that cannot be answered gets its
    exception in place of a record; the others are unaffected.  Pass a
    :class:`~repro.replay.writer.MemoryTrace` as ``trace`` to replay from one
    recording without decoding it.
    """
    requests: list[Union[_ReplayRequest, Exception]] = []
    for payload in payloads:
        try:
            requests.append(_ReplayRequest.of(ProfileSpec.from_dict(payload)))
        except Exception as error:
            requests.append(error)
    return [
        outcome if isinstance(outcome, Exception) else json_sanitize({
            "job": dict(payload),
            "status": "ok",
            "summary": dict(summary),
            "reports": outcome.reports(),
            "execution": "replay",
        })
        for payload, outcome in zip(payloads, _replay_group(trace, requests))
    ]
