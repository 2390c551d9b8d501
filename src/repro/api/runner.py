"""The single execution path behind every way of running an analysis.

All four execution styles — live run, record-to-trace, offline replay, and
campaign jobs (in either simulate or replay mode) — are implemented here, and
all of them are driven by the same :class:`~repro.api.spec.ProfileSpec`:

* :func:`execute` — simulate a workload under a live
  :class:`~repro.core.session.PastaSession` (recording a trace when the spec
  says so);
* :func:`replay` — re-drive a recorded trace through the spec's tools and
  analysis model with no simulator attached;
* :func:`execute_payload` / :func:`record_workload_trace` /
  :func:`replay_payload` — the module-level, picklable wrappers the campaign
  scheduler fans out over worker pools (their arguments and results are
  JSON-native so they survive process boundaries).

Everything above this module — the ``pasta`` CLI, the fluent builder, the
campaign scheduler, the ``pasta serve`` daemon — is sugar over these
functions.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

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


def _resolve_tools(
    spec: ProfileSpec, extra_tools: Sequence[PastaTool]
) -> list[PastaTool]:
    tools: list[PastaTool] = [create_tool(name) for name in spec.tools]
    tools.extend(extra_tools)
    return tools


def execute(
    spec: ProfileSpec,
    *,
    extra_tools: Sequence[PastaTool] = (),
    device: Optional[DeviceSpec] = None,
    range_filter: Optional[RangeFilter] = None,
    cost_config: Optional[CostModelConfig] = None,
    record_to: Union[str, Path, None] = None,
) -> Union[ProfileResult, "ParallelProfileResult"]:
    """Simulate ``spec``'s workload under a live PASTA session.

    The spec is authoritative; the keyword arguments are programmatic escape
    hatches for things a declarative spec cannot carry — already-built tool
    *instances* (``extra_tools``), a custom :class:`DeviceSpec` not in the
    device registry, pre-built range/cost overrides (which otherwise come
    from the spec's knobs), and a ``record_to`` destination overriding the
    spec's.

    A spec with a :class:`~repro.api.spec.ParallelismSpec` routes through the
    multi-GPU path and returns a :class:`ParallelProfileResult` instead; the
    per-rank device list comes from the spec, so the programmatic ``device``
    and stateful ``range_filter`` escape hatches are rejected there.
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
        return execute_parallel(spec, cost_config=cost_config, record_to=record_to)
    spec_range, spec_cost = spec.resolve_overrides()
    range_filter = range_filter if range_filter is not None else spec_range
    cost_config = cost_config if cost_config is not None else spec_cost
    record_to = record_to if record_to is not None else spec.record_to

    telemetry = _active_telemetry()
    with telemetry.span("profile.setup", model=spec.model, device=spec.device):
        if telemetry.enabled:
            import repro

            telemetry.annotate(spec_digest=spec.digest(repro.__version__), model=spec.model)
        # create() (not get()) so the namespace's DeviceSpec product check runs.
        device_spec = device if device is not None else REGISTRY.create("devices", spec.device)
        runtime = create_runtime(device_spec)  # type: ignore[arg-type]
        ctx = FrameworkContext(runtime)
        engine = ExecutionEngine(ctx)
        model = REGISTRY.create("models", spec.model)

        session_kwargs: dict[str, object] = {}
        if record_to is not None:
            session_kwargs["record_to"] = record_to
            session_kwargs["trace_metadata"] = spec.canonical()
        session = PastaSession(
            runtime,
            tools=_resolve_tools(spec, extra_tools),
            vendor_backend=spec.backend,
            analysis_model=spec.analysis_model,
            enable_fine_grained=spec.fine_grained,
            range_filter=range_filter,
            cost_config=cost_config,
            **session_kwargs,
        )
        session.attach_framework(ctx)
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
        with session:
            engine.prepare(model)
            if spec.mode == "inference":
                summary = engine.run_inference(
                    model, iterations=spec.iterations, batch_size=spec.batch_size
                )
            else:
                summary = engine.run_training(
                    model, iterations=spec.iterations, batch_size=spec.batch_size
                )
        simulate_span.set_counter("events_processed", session.processor.events_processed)
    return ProfileResult(
        spec=spec, model=model, runtime=runtime, ctx=ctx, session=session, summary=summary
    )


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


def _rank_tool_instances(spec: ProfileSpec) -> list[PastaTool]:
    """One fresh tool set for one rank: the spec's tools plus the implicit
    per-rank memory timeline (skipped when the spec already names it)."""
    tools = [create_tool(name) for name in spec.tools]
    if PARALLEL_MEMORY_TOOL not in spec.tools:
        tools.append(create_tool(PARALLEL_MEMORY_TOOL))
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
    trace_path: Path
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


def execute_parallel(
    spec: ProfileSpec,
    *,
    cost_config: Optional[CostModelConfig] = None,
    record_to: Union[str, Path, None] = None,
) -> ParallelProfileResult:
    """Simulate ``spec``'s workload across ranks under live PASTA sessions.

    One :class:`PastaSession` (with the full tool set) attaches to each
    rank's framework context before the model shards materialize, so every
    rank's complete event stream — parameters, activations, collectives — is
    observed and, when recording, persisted into **one** shared trace whose
    events are per-rank sliceable by ``device_index``.
    """
    # Imported lazily (like the replay imports below): the parallel runner
    # pulls in the model zoo, which the api module must not import eagerly.
    from repro.dlframework.parallel import create_parallel_runner
    from repro.gpusim.multigpu import DeviceSet

    parallelism = spec.parallelism
    if parallelism is None:
        raise ReproError("execute_parallel needs a spec with a parallelism config")
    record_to = record_to if record_to is not None else spec.record_to

    device_names = parallelism.resolved_devices(spec.device)
    device_specs = [REGISTRY.create("devices", name) for name in device_names]
    device_set = DeviceSet(device_specs)  # type: ignore[arg-type]
    config = _parallel_model_config(spec)
    runner = create_parallel_runner(
        parallelism.strategy,
        device_set,
        config,  # type: ignore[arg-type]
        num_microbatches=(
            parallelism.microbatches if parallelism.strategy == "pp" else None
        ),
    )

    fine_grained = spec.needs_fine_grained()
    writer = None
    if record_to is not None:
        from repro.replay.format import TraceHeader
        from repro.replay.writer import TraceWriter

        backends = [_make_backend(spec.backend, runtime) for runtime in device_set]
        header = TraceHeader.for_recording(
            device_spec=device_specs[0],  # type: ignore[arg-type]
            analysis_model=_make_analysis_model(spec.analysis_model).value,
            backend=backends[0].name,
            instrumentation=backends[0].instrumentation.value,
            fine_grained=fine_grained,
            workload={
                **spec.canonical(),
                "device_indices": device_set.device_indices,
                "rank_devices": list(device_names),
                "rank_instrumentation": [b.instrumentation.value for b in backends],
            },
        )
        writer = TraceWriter(record_to, header)

    # The shared writer is owned here, not by any rank session: it must be
    # aborted (marking the trace incomplete) or closed on every path out,
    # including session-construction failures such as duplicate tool names.
    sessions: list[PastaSession] = []
    telemetry = _active_telemetry()
    try:
        for rank in range(parallelism.world_size):
            spec_range, spec_cost = spec.resolve_overrides()
            session = PastaSession(
                device_set[rank],
                tools=_rank_tool_instances(spec),
                vendor_backend=spec.backend,
                analysis_model=spec.analysis_model,
                enable_fine_grained=spec.fine_grained,
                range_filter=spec_range,  # type: ignore[arg-type]
                cost_config=cost_config if cost_config is not None else spec_cost,  # type: ignore[arg-type]
                trace_writer=writer,
            )
            session.attach_framework(runner.contexts[rank])
            sessions.append(session)
        with telemetry.span(
            "parallel.simulate",
            model=spec.model,
            strategy=parallelism.strategy,
            world_size=parallelism.world_size,
            iterations=spec.iterations,
        ):
            with ExitStack() as stack:
                # Sessions are entered in rank order on one thread, so the
                # per-rank session.run spans nest rank0 → rank1 → …; the rank
                # attribute is what distinguishes them in the tree.
                for rank, session in enumerate(sessions):
                    stack.enter_context(session)
                    session.annotate_telemetry(rank=rank)
                runner.run(
                    spec.iterations,
                    progress=_rank_progress_hook(spec, parallelism),
                )
    except BaseException as error:
        if writer is not None and not writer.closed:
            writer.abort(f"{type(error).__name__}: {error}")
        raise
    else:
        if writer is not None and not writer.closed:
            writer.close()

    per_rank = [
        {
            "rank": rank,
            "device": device_names[rank],
            "device_index": ctx.runtime.device.index,
            "kernel_launches": ctx.kernel_launch_count,
            "peak_allocated_bytes": ctx.allocator.stats.peak_allocated_bytes,
            "peak_reserved_bytes": ctx.allocator.stats.peak_reserved_bytes,
            "allocation_events": ctx.allocator.event_count,
            "total_kernel_time_ns": ctx.runtime.total_kernel_time_ns(),
        }
        for rank, ctx in enumerate(runner.contexts)
    ]
    summary = ParallelRunSummaryView(
        model_name=spec.model,
        strategy=parallelism.strategy,
        world_size=parallelism.world_size,
        iterations=spec.iterations,
        per_rank=per_rank,
    )
    return ParallelProfileResult(
        spec=spec,
        device_set=device_set,
        runner=runner,
        sessions=sessions,
        summary=summary,
        device_indices=list(device_set.device_indices),
    )


def replay_parallel(
    trace: object,
    spec: ProfileSpec,
    *,
    events: Optional[Sequence[object]] = None,
) -> ParallelReplayResult:
    """Re-drive a recorded multi-GPU trace offline, one replay per rank.

    The trace header's workload metadata carries the per-rank device indices
    the live run recorded; each rank's event slice feeds a fresh
    :class:`~repro.replay.replayer.TraceReplayer` configured from the spec
    (tools, analysis model, knobs, the rank's device spec), so the per-rank
    reports are byte-identical to the live sessions'.
    """
    from repro.replay.reader import TraceReader
    from repro.replay.replayer import TraceReplayer

    parallelism = spec.parallelism
    if parallelism is None:
        raise ReproError("replay_parallel needs a spec with a parallelism config")
    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)  # type: ignore[arg-type]
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
    device_names = parallelism.resolved_devices(spec.device)
    recorded_instrumentation = metadata.get("rank_instrumentation")
    if not isinstance(recorded_instrumentation, list):
        recorded_instrumentation = [None] * len(device_indices)

    if events is None:
        events = list(reader.events())
    rank_results = []
    for rank, device_index in enumerate(int(i) for i in device_indices):
        rank_events = [e for e in events if e.device_index == device_index]  # type: ignore[attr-defined]
        spec_range, spec_cost = spec.resolve_overrides()
        replayer = TraceReplayer(
            reader,
            tools=_rank_tool_instances(spec),
            analysis_model=spec.analysis_model,
            cost_config=spec_cost,  # type: ignore[arg-type]
            range_filter=spec_range,  # type: ignore[arg-type]
            events=rank_events,
            device_spec=REGISTRY.create("devices", device_names[rank]),  # type: ignore[arg-type]
            instrumentation=recorded_instrumentation[rank],
        )
        rank_results.append(replayer.run())
    return ParallelReplayResult(
        spec=spec,
        trace_path=reader.path,
        rank_results=rank_results,
        device_indices=[int(i) for i in device_indices],
    )


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


def replay(
    trace: object,
    spec: Optional[ProfileSpec] = None,
    *,
    tools: Optional[Sequence[Union[PastaTool, str]]] = None,
    analysis_model: Union[str, AnalysisModel, None] = None,
    cost_config: Optional[CostModelConfig] = None,
    range_filter: Optional[RangeFilter] = None,
    measure_overhead: bool = True,
    events: Optional[Sequence[object]] = None,
):
    """Re-drive a recorded trace offline, configured by the same spec.

    ``trace`` is a path or an open :class:`~repro.replay.reader.TraceReader`.
    With a ``spec``, the replayed tool set, analysis model and knob
    overrides come from it — replaying the spec that recorded a trace
    reproduces the live session's reports byte for byte.  Explicit keyword
    arguments override the spec field for field; tool names and instances
    may be mixed as in :func:`run`.  Returns a
    :class:`~repro.replay.replayer.ReplayResult` — or, when the spec carries
    a parallelism config, a :class:`ParallelReplayResult` with one replay
    per rank (the per-field keyword overrides do not apply there).
    """
    # Imported lazily: repro.replay builds on repro.core; keeping the api
    # module importable without it avoids a hard import cycle.
    from repro.replay.replayer import replay_trace

    if spec is not None and spec.parallelism is not None:
        if tools or analysis_model is not None or cost_config is not None \
                or range_filter is not None:
            raise ReproError(
                "parallel replays are configured entirely by the spec "
                "(tools, analysis model, knobs); the per-field keyword "
                "overrides do not apply"
            )
        return replay_parallel(trace, spec, events=events)

    names, instances = _split_tools(tools)
    if spec is not None and not names:
        # Instance-only (or absent) tool lists keep the spec's tool set;
        # passed names replace it.  Instances are always extras on top.
        names = spec.tools
    tool_instances = [create_tool(name) for name in names] + instances
    if spec is not None:
        spec_range, spec_cost = spec.resolve_overrides()
        if analysis_model is None:
            analysis_model = spec.analysis_model
        if range_filter is None:
            range_filter = spec_range
        if cost_config is None:
            cost_config = spec_cost
    return replay_trace(
        trace,  # type: ignore[arg-type]
        tools=tool_instances,
        analysis_model=analysis_model,
        cost_config=cost_config,
        range_filter=range_filter,
        measure_overhead=measure_overhead,
        events=events,
    )


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
    payload: Mapping[str, object], trace_path: Union[str, Path]
) -> dict[str, object]:
    """Simulate a payload's workload once, recording every event to ``trace_path``.

    The recording run attaches no tools and no knob overrides so the trace
    carries the complete event stream; any spec with the same
    :meth:`ProfileSpec.workload_signature` can then be answered by replay.
    Returns the JSON-native run summary shared by every job of the group.
    """
    spec = ProfileSpec.from_dict(payload)
    fine_grained = spec.needs_fine_grained()
    base = spec.replace(
        tools=(),
        knobs=(),
        analysis_model="gpu_resident",
        fine_grained=fine_grained,
        record_to=str(trace_path),
    )
    result = execute(base)
    return json_sanitize(result.summary.as_dict())


def replay_payload(
    payload: Mapping[str, object],
    trace: object,
    summary: Mapping[str, object],
    events: Optional[Sequence[object]] = None,
) -> dict[str, object]:
    """Answer one job by replaying a recorded workload trace.

    Produces a record with the same shape (and, for the shared fields, the
    same values) as :func:`execute_payload`, but without re-simulating: the
    spec's tools, analysis model and knobs are re-driven offline.  Pass
    ``events`` (a pre-decoded list) when replaying several jobs from one
    trace so the decode cost is paid once.
    """
    spec = ProfileSpec.from_dict(payload)
    result = replay(trace, spec, events=events)
    return json_sanitize({
        "job": dict(payload),
        "status": "ok",
        "summary": dict(summary),
        "reports": result.reports(),
        "execution": "replay",
    })
