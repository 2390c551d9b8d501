"""``pasta profile``: profile one simulated workload with PASTA tools.

The reproduction's ``accelprof`` equivalent, rebuilt on the unified facade:
the command-line arguments populate one
:class:`~repro.api.spec.ProfileSpec`, and execution goes through
:func:`repro.api.execute` — exactly the path the programmatic API, the
campaign scheduler and the replay engine share.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional

from repro.api import PARALLEL_STRATEGIES, ParallelismSpec, ProfileSpec, execute
from repro.core.registry import REGISTRY, registered_tools
from repro.obs.telemetry import active as _active_telemetry


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Populate the ``profile`` subcommand's arguments."""
    parser.add_argument("model", nargs="?",
                        help="model to profile (see --list-models)")
    parser.add_argument("--tool", "-t", action="append", default=[],
                        help="tool name from the registry; may be repeated")
    parser.add_argument("--device", "-d", default="a100",
                        help="device short name (see --list-devices; default: a100)")
    parser.add_argument("--mode", choices=["inference", "train"], default=None,
                        help="run mode (default: inference; --parallel implies train)")
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--parallel", choices=list(PARALLEL_STRATEGIES), default=None,
                        help="profile under multi-GPU parallelism: dp (data), "
                             "tp (tensor) or pp (pipeline); implies --mode train")
    parser.add_argument("--world-size", type=int, default=None,
                        help="ranks for --parallel (default: 2)")
    parser.add_argument("--parallel-devices", default=None, metavar="DEV,DEV,...",
                        help="comma-separated per-rank devices for --parallel "
                             "(default: --device replicated on every rank)")
    parser.add_argument("--microbatches", type=int, default=None,
                        help="pipeline-parallel micro-batch count (default: 2)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="override the model's paper batch size")
    parser.add_argument("--backend", default=None,
                        help="profiling backend (see --list-backends; "
                             "default: the device vendor's recommendation)")
    parser.add_argument("--analysis-model", default="gpu_resident",
                        help="where fine-grained analysis runs: gpu_resident "
                             "or cpu_side (default: gpu_resident)")
    parser.add_argument("--fine-grained", action="store_true",
                        help="enable device-side (instruction-level) instrumentation")
    parser.add_argument("--start-grid-id", type=int, default=None,
                        help="first kernel-launch index to analyse (START_GRID_ID)")
    parser.add_argument("--end-grid-id", type=int, default=None,
                        help="last kernel-launch index to analyse (END_GRID_ID)")
    parser.add_argument("--record", metavar="TRACE", default=None,
                        help="also record the event stream to this trace file "
                             "for later `pasta trace replay`")
    parser.add_argument("--json", action="store_true", help="emit reports as JSON")
    parser.add_argument("--list-tools", action="store_true",
                        help="list registered tools and exit")
    parser.add_argument("--list-models", action="store_true",
                        help="list registered models and exit")
    parser.add_argument("--list-devices", action="store_true",
                        help="list registered devices and exit")
    parser.add_argument("--list-backends", action="store_true",
                        help="list registered profiling backends and exit")


def spec_from_args(args: argparse.Namespace) -> ProfileSpec:
    """The :class:`ProfileSpec` described by parsed ``profile`` arguments."""
    knobs: dict[str, object] = {}
    if args.start_grid_id is not None:
        knobs["start_grid_id"] = args.start_grid_id
    if args.end_grid_id is not None:
        knobs["end_grid_id"] = args.end_grid_id
    parallelism = None
    if args.parallel is not None:
        devices = ()
        if args.parallel_devices:
            devices = tuple(
                name.strip() for name in args.parallel_devices.split(",") if name.strip()
            )
        parallelism = ParallelismSpec(
            strategy=args.parallel,
            world_size=2 if args.world_size is None else args.world_size,
            devices=devices,
            microbatches=2 if args.microbatches is None else args.microbatches,
        )
    mode = args.mode
    if mode is None:
        mode = "train" if parallelism is not None else "inference"
    return ProfileSpec(
        model=args.model,
        device=args.device,
        mode=mode,
        tools=tuple(args.tool),
        iterations=args.iterations,
        batch_size=args.batch_size,
        backend=args.backend,
        analysis_model=args.analysis_model,
        fine_grained=args.fine_grained,
        knobs=tuple(knobs.items()),  # type: ignore[arg-type]
        parallelism=parallelism,
        record_to=args.record,
    )


def _maybe_list(args: argparse.Namespace) -> Optional[int]:
    if not (args.list_tools or args.list_models
            or args.list_devices or args.list_backends):
        return None
    from repro.commands.render import print_names

    if args.list_tools:
        print_names(registered_tools())
        return 0
    if args.list_models:
        print_names(REGISTRY.names("models"))
        return 0
    if args.list_devices:
        print_names(REGISTRY.names("devices"))
        return 0
    if args.list_backends:
        print_names(REGISTRY.names("vendors"))
        return 0
    return None


def cmd_profile(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the ``profile`` subcommand; returns a process exit code."""
    listed = _maybe_list(args)
    if listed is not None:
        return listed
    if not args.model:
        parser.error("a model name is required unless --list-tools is given")
    if not args.tool:
        parser.error("at least one --tool is required (see --list-tools)")
    if args.parallel is None:
        # Silently dropping these would run a single-GPU profile while the
        # user believes they profiled N ranks.
        stray = [flag for flag, value in (("--world-size", args.world_size),
                                          ("--parallel-devices", args.parallel_devices),
                                          ("--microbatches", args.microbatches))
                 if value is not None]
        if stray:
            parser.error(f"{', '.join(stray)} require(s) --parallel")

    result = execute(spec_from_args(args))
    telemetry = _active_telemetry()
    with telemetry.span("profile.report", json=bool(args.json)):
        from repro.commands.render import print_reports

        reports = result.reports()
        reports["run"] = result.summary.as_dict()
        if telemetry.enabled:
            # Only the *printed* document grows this section; result.reports()
            # stays byte-identical whether telemetry is on or off.
            reports["self_overhead"] = telemetry.self_overhead_report(
                telemetry.elapsed_ns())
        if args.record:
            trace_path = Path(result.spec.record_to)  # type: ignore[arg-type]
            # In JSON mode the trace path rides inside the document — a bare
            # text line first would make stdout invalid JSON for pipelines.
            if args.json:
                reports["trace"] = {"path": str(trace_path)}
            else:
                print(f"recorded event stream to {trace_path}")
        print_reports(reports, args.json)
    return 0
