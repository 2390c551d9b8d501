#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload live_fine_gpt2 --seed 1 --seconds 20 --trace 0

Workloads: ``live_fine_gpt2``, ``live_coarse_megatron``,
``campaign_replay_gpt2`` and ``serve_warm`` (see ``perfbench/README.md``).
The program under test is imported from ``src/`` of the same checkout.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures untraced for 40% of ``--seconds``, then wraps every
layer boundary (``perfbench/layers.py``) and measures traced for the rest,
and reports the per-layer metrics; its spans are written to
``perfbench/out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output check
passed, 1 when one failed, and 2 when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Run artefacts (work dirs, spans), relative to the checkout root.
OUT = Path("perfbench") / "out"

#: Share of ``--seconds`` a traced run spends measuring without tracing.
UNTRACED_SHARE = 0.4

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "records/s",
    "peak_rss_mb": "MB",
}

_TOOLS = ("kernel_frequency", "memory_characteristics", "hotness",
          "inefficiency_locator", "memory_timeline", "access_histogram")

#: Per-layer metrics (``--trace 1``): name -> unit.  ``*_ns`` are self
#: times per operation; counts are per operation.
PER_LAYER = {
    "gpusim.batch_ns": "ns", "gpusim.launches": "count",
    "dlframework.self_ns": "ns", "dlframework.alloc_ops": "count", "dlframework.bare_s": "s",
    "vendors.self_ns": "ns", "vendors.callbacks": "count",
    "handler.self_ns": "ns", "handler.events_emitted": "count",
    "processor.self_ns": "ns", "processor.events": "count", "processor.records": "count",
    "dispatch.self_ns": "ns", "dispatch.deliveries": "count",
    **{f"tools.{tool}_ns": "ns" for tool in _TOOLS},
    "tools.report_ns": "ns",
    "replay.encode_ns": "ns", "replay.decode_ns": "ns", "replay.replayer_self_ns": "ns",
    "replay.trace_bytes": "bytes", "replay.events_written": "count",
    "campaign.self_ns": "ns", "campaign.record_ns": "ns", "campaign.replay_ns": "ns",
    "campaign.cells": "count",
    "serve.submit_ms": "ms", "serve.stream_ms": "ms", "serve.status_ms": "ms",
    "serve.campaign_rt_ms": "ms", "serve.connects_per_rt": "count",
    "serve.journal_bytes_per_sub": "bytes", "serve.cache_bytes": "bytes",
    "serve.jobs_retained": "count",
    "other_ns": "ns",
    "obs.layer_coverage_frac": "fraction",
    "obs.trace_overhead_frac": "fraction",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; every run does at least one operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median_seconds(outcomes) -> float:
    return statistics.median(o.ref_seconds for o in outcomes)


def layer_metrics(tracer, traced, untraced, bare_s: float, extras: dict) -> dict[str, float]:
    """Per-layer metrics from one traced measurement (see ``PER_LAYER``)."""
    totals = tracer.totals()
    n = len(traced)
    self_ns = totals["self_ns"]
    total_ns = totals["total_ns"]
    # Operations repeat exactly, so whole-run tallies over n are per-op counts.
    counts = {name: value / n for name, value in tracer.counts().items()}

    # Layer times are scaled to reference speed like every other time.
    scale = statistics.mean(o.scale for o in traced)

    def per_op(table, *names: str) -> float:
        return sum(table.get(name, 0) for name in names) * scale / n

    other = per_op(self_ns, "op", "campaign.record", "campaign.replay")
    root = per_op(total_ns, "op")
    campaign_rts = [o.ref_seconds for o in traced if o.kind == "campaign"]
    metrics = {
        "gpusim.batch_ns": per_op(self_ns, "gpusim"),
        "gpusim.launches": counts.get("gpusim", 0),
        "dlframework.self_ns": per_op(self_ns, "dlframework"),
        "dlframework.alloc_ops": traced[0].alloc_ops,
        "dlframework.bare_s": bare_s,
        "vendors.self_ns": per_op(self_ns, "vendors"),
        "vendors.callbacks": counts.get("vendors", 0),
        "handler.self_ns": per_op(self_ns, "handler"),
        "handler.events_emitted": counts.get("edge:handler>processor", 0),
        "processor.self_ns": per_op(self_ns, "processor"),
        "processor.events": counts.get("processor", 0),
        "processor.records": counts.get("amount:processor", 0),
        "dispatch.self_ns": per_op(self_ns, "dispatch"),
        "dispatch.deliveries": sum(v for k, v in counts.items()
                                   if k.startswith("tools.") and k != "tools.report"),
        **{f"tools.{tool}_ns": per_op(self_ns, f"tools.{tool}") for tool in _TOOLS},
        "tools.report_ns": per_op(self_ns, "tools.report"),
        "replay.encode_ns": per_op(self_ns, "replay.encode", "replay.close"),
        "replay.decode_ns": per_op(self_ns, "replay.decode"),
        "replay.replayer_self_ns": per_op(self_ns, "replay.replayer"),
        "replay.trace_bytes": traced[0].trace_bytes,
        "replay.events_written": counts.get("replay.encode", 0),
        "campaign.self_ns": per_op(self_ns, "campaign"),
        "campaign.record_ns": per_op(total_ns, "campaign.record"),
        "campaign.replay_ns": per_op(total_ns, "campaign.replay"),
        "campaign.cells": counts.get("campaign.replay", 0),
        "serve.submit_ms": per_op(total_ns, "serve.submit") / 1e6,
        "serve.stream_ms": per_op(total_ns, "serve.stream") / 1e6,
        "serve.status_ms": per_op(total_ns, "serve.status") / 1e6,
        "serve.campaign_rt_ms": statistics.median(campaign_rts) * 1000 if campaign_rts else 0.0,
        "serve.connects_per_rt": counts.get("serve.connect", 0),
        "serve.journal_bytes_per_sub": 0.0,
        "serve.cache_bytes": 0,
        "serve.jobs_retained": 0,
        "other_ns": other,
        "obs.layer_coverage_frac": 1.0 - other / root if root else 0.0,
        "obs.trace_overhead_frac": _median_seconds(traced) / _median_seconds(untraced) - 1.0,
    }
    metrics.update(extras)
    return metrics


def _print_metric(name: str, value: float, unit: str) -> None:
    print(f"  {name:<32} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = OUT / f"work-{os.getpid()}"
    tmp = (workdir / "tmp").resolve()
    tmp.mkdir(parents=True)
    # Temporary files (the scheduler's scratch dirs, the daemon's) stay
    # inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    import repro
    from perfbench import workloads as wl
    from perfbench.layers import Tracer, install_layers

    reset = wl.CounterReset()
    workload = wl.make_workload(args.workload, args.seed, workdir, ROOT, reset)
    imported = time.perf_counter()
    wl.SAMPLER.start()
    try:
        rounds = []
        for _ in range(wl.SETUP_ROUNDS):
            started = time.perf_counter()
            workload.setup()
            ended = time.perf_counter()
            rounds.append((ended - started) * wl.SAMPLER.scale(started, ended))
        imports_s = (imported - _STARTED) * wl.SAMPLER.scale(_STARTED, imported)
        setup_s = imports_s + statistics.median(rounds)

        if args.trace:
            untraced, _ = workload.measure(args.seconds * UNTRACED_SHARE)
            bare_s = workload.bare_seconds()
            tracer = Tracer()
            install_layers(tracer)
            try:
                traced, _ = workload.measure(args.seconds * (1 - UNTRACED_SHARE), tracer)
            finally:
                tracer.restore()
            outcomes = untraced + traced
            metrics = layer_metrics(tracer, traced, untraced, bare_s, workload.layer_extras())
            units = PER_LAYER
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            extra: dict[str, tuple[float, str]] = {}
        else:
            outcomes, elapsed = workload.measure(args.seconds)
            metrics = {
                "setup_s": setup_s,
                "wall_s": _median_seconds(outcomes),
                "records_per_s": workload.records_per_s(outcomes, elapsed),
                "peak_rss_mb": workload.peak_rss_mb(),
            }
            units = END_TO_END
            extra = {
                "host_wall_s": (statistics.median(o.seconds for o in outcomes), "s"),
                "speed_scale": (statistics.median(o.scale for o in outcomes), "ratio"),
                **workload.extra_metrics(outcomes, elapsed),
            }
    finally:
        wl.SAMPLER.stop()
        close_failures = workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) + close_failures
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"repro {repro.__version__} nproc {os.cpu_count()} operations {len(outcomes)}")
    for name, unit in units.items():
        _print_metric(name, metrics[name], unit)
    for name, (value, unit) in extra.items():
        _print_metric(name, value, unit)
    _print_metric("error_rate", failed / attempted, "fraction")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
