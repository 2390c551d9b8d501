#!/usr/bin/env python
"""Event-pipeline performance harness (PR 3's acceptance instrument).

Times the end-to-end profiled workloads the fast-path work targets —

* ``coarse_megatron``  — megatron-gpt2-345m training, coarse events only
  (allocator + dispatch dominated);
* ``fine_gpt2``        — gpt2 training with device-side instrumentation
  (fine-grained delivery dominated);
* ``parallel_tp_megatron`` — megatron-gpt2-345m tensor-parallel training on
  two simulated A100s through the ProfileSpec parallelism path (one
  instrumented session per rank over a shared DeviceSet);

plus ``--quick`` variants small enough for a CI smoke step, among them
``record_fine_gpt2_quick``: the ``fine_gpt2_quick`` run recording its trace
(``record_to``) into a temporary directory, so the gate also covers the
trace writer; and ``replay_grid_gpt2_quick``: a replay-mode campaign over
that workload (two tool sets x both analysis models, no cache, no trace
dir), so it covers the replay path — and writes the results to
``BENCH_pipeline.json``.  Each entry holds the best wall time and the
logical records processed (``records``, ``records_per_second``): a columnar
batch counts its length, as in ``perfbench``, and a replay grid counts its
recording and every cell's replay.

Usage::

    PYTHONPATH=src python benchmarks/perf_pipeline.py            # full run
    PYTHONPATH=src python benchmarks/perf_pipeline.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf_pipeline.py --quick \\
        --check BENCH_pipeline.json          # fail on >2x regression

``--check`` compares each measured workload against the matching entry in a
previously written results file and exits non-zero when any workload is more
than ``--tolerance`` (default 2.0) times slower — the CI perf-smoke gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import repro
import repro.tools  # noqa: F401  (side effect: tool registration)
from repro import api
from repro.campaign import CampaignScheduler, CampaignSpec
from repro.core.processor import PastaEventProcessor

#: Tool set attached to every benchmark workload: the bundled coarse tools
#: plus (on fine-grained runs) the batch-native access histogram.
COARSE_TOOLS = (
    "kernel_frequency",
    "memory_characteristics",
    "hotness",
    "inefficiency_locator",
    "memory_timeline",
)
FINE_TOOLS = COARSE_TOOLS + ("access_histogram",)

#: name -> (api.run kwargs, repeats).  Wall time is the best of
#: ``repeats`` runs, which suppresses scheduler noise.
WORKLOADS: dict[str, tuple[dict, int]] = {
    "coarse_megatron": (
        dict(model="megatron_gpt2_345m", mode="train", iterations=2,
             tools=list(COARSE_TOOLS)),
        5,
    ),
    "fine_gpt2": (
        dict(model="gpt2", mode="train", iterations=4,
             fine_grained=True, tools=list(FINE_TOOLS)),
        3,
    ),
    "parallel_tp_megatron": (
        dict(model="megatron_gpt2_345m", iterations=2,
             parallelism={"strategy": "tp", "world_size": 2},
             tools=list(COARSE_TOOLS)),
        3,
    ),
}

QUICK_WORKLOADS: dict[str, tuple[dict, int]] = {
    "coarse_megatron_quick": (
        dict(model="megatron_gpt2_345m", mode="train", iterations=1,
             tools=list(COARSE_TOOLS)),
        3,
    ),
    "fine_gpt2_quick": (
        dict(model="gpt2", mode="train", iterations=1,
             fine_grained=True, tools=list(FINE_TOOLS)),
        3,
    ),
    "record_fine_gpt2_quick": (
        dict(model="gpt2", mode="train", iterations=1,
             fine_grained=True, tools=list(FINE_TOOLS),
             record_to="fine_gpt2.pastatrace"),
        3,
    ),
    "parallel_tp_megatron_quick": (
        dict(model="megatron_gpt2_345m", iterations=1,
             parallelism={"strategy": "tp", "world_size": 2},
             tools=list(COARSE_TOOLS)),
        3,
    ),
    # A replay-mode CampaignScheduler run: one workload group, recorded once.
    "replay_grid_gpt2_quick": (
        dict(campaign=dict(
            name="replay-grid", models=["gpt2"], modes=["train"], fine_grained=True,
            tools=[list(FINE_TOOLS), ["access_histogram", "memory_characteristics"]],
            analysis_models=["gpu_resident", "cpu_side"],
        )),
        3,
    ),
}


def logical_records(processor: PastaEventProcessor) -> int:
    """Records one session's processor handled: a batch counts its length."""
    return processor.events_processed - processor.batches_dispatched + processor.batch_records


def run_grid(grid: dict, repeats: int) -> tuple[float, int]:
    """Best wall time of a replay-mode campaign over ``grid`` (no cache, no
    trace dir), and the logical records of its recording and replays."""
    spec = CampaignSpec(**grid)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run = CampaignScheduler(execution="replay").run(spec)
        best = min(best, time.perf_counter() - started)
        if run.failed or run.workloads_recorded != 1:
            raise SystemExit(f"replay grid failed: {run.summary()}")
    # What the recording saw, counted once outside the timing: the bare
    # workload with no tools, as the group records it.
    bare = spec.expand()[0].replace(tools=(), analysis_model="gpu_resident")
    recorded = logical_records(api.execute(bare).session.processor)
    return best, recorded * (1 + spec.job_count())


def run_profile(kwargs: dict, repeats: int) -> tuple[float, int]:
    """Best wall time of ``api.run(**kwargs)`` and its logical records.

    A ``record_to`` file name is written into a temporary directory.
    """
    best = float("inf")
    records = 0
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="pasta-bench-") as scratch:
            run_kwargs = {k: v for k, v in kwargs.items() if k != "model"}
            if "record_to" in run_kwargs:
                run_kwargs["record_to"] = Path(scratch) / run_kwargs["record_to"]
            started = time.perf_counter()
            result = api.run(kwargs["model"], **run_kwargs)
            elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        # Parallel profiles run one session per rank; sum their pipelines.
        sessions = getattr(result, "sessions", None) or [result.session]
        records = sum(logical_records(s.processor) for s in sessions)
    return best, records


def run_one(name: str, kwargs: dict, repeats: int) -> dict[str, object]:
    """Benchmark one workload (a ``campaign`` entry is a replay grid);
    returns its result entry."""
    if "campaign" in kwargs:
        best, records = run_grid(kwargs["campaign"], repeats)
    else:
        best, records = run_profile(kwargs, repeats)
    entry = {
        "seconds": round(best, 4),
        "records": records,
        "records_per_second": round(records / best) if best > 0 else 0,
        "repeats": repeats,
    }
    print(f"  {name:>24}: {best:8.3f} s   ({records} records, "
          f"{entry['records_per_second']} records/s)")
    return entry


def check_against(results: dict, baseline_path: Path, tolerance: float) -> int:
    """Compare measured workloads against a baseline file; 0 = within budget."""
    baseline = json.loads(baseline_path.read_text())
    reference = baseline.get("workloads", {})
    failures = []
    for name, entry in results.items():
        base = reference.get(name)
        if not base:
            # A silently skipped workload would let the gate pass while
            # measuring nothing, so a missing baseline entry is a failure.
            print(f"  {name}: MISSING baseline entry in {baseline_path}")
            failures.append((name, None))
            continue
        ratio = entry["seconds"] / base["seconds"] if base["seconds"] else 0.0
        verdict = "ok" if ratio <= tolerance else "REGRESSION"
        print(f"  {name}: {entry['seconds']:.3f}s vs baseline "
              f"{base['seconds']:.3f}s  ({ratio:.2f}x)  {verdict}")
        if ratio > tolerance:
            failures.append((name, ratio))
    if failures:
        print(f"perf-smoke FAILED: {len(failures)} workload(s) regressed more "
              f"than {tolerance:.1f}x or had no baseline: "
              + ", ".join(f"{n} ({'no baseline' if r is None else f'{r:.2f}x'})"
                          for n, r in failures))
        return 1
    print("perf-smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the reduced CI workloads only")
    parser.add_argument("--full", action="store_true",
                        help="run both the quick and the full workloads")
    parser.add_argument("--output", type=Path, default=None,
                        help="write results JSON here (default: "
                             "BENCH_pipeline.json next to the repo root; "
                             "omitted entries from previous runs are kept)")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a baseline results file and exit "
                             "non-zero on regression instead of overwriting it")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed slowdown factor for --check (default 2.0)")
    args = parser.parse_args(argv)

    if args.full:
        selected = {**QUICK_WORKLOADS, **WORKLOADS}
        selection = "quick+full"
    elif args.quick:
        selected = dict(QUICK_WORKLOADS)
        selection = "quick"
    else:
        selected = dict(WORKLOADS)
        selection = "full"

    print(f"pipeline benchmark ({selection}, repro {repro.__version__})")
    results = {name: run_one(name, kwargs, repeats)
               for name, (kwargs, repeats) in selected.items()}

    if args.check is not None:
        # With an explicit --output, also persist what was measured — CI
        # uploads it as a workflow artifact so BENCH trajectories survive
        # across runs even though the gate never rewrites the baseline.
        if args.output is not None:
            measured = {
                "schema": 1,
                "repro_version": repro.__version__,
                "selection": selection,
                "baseline": str(args.check),
                "workloads": results,
            }
            args.output.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
            print(f"wrote measured results to {args.output}")
        return check_against(results, args.check, args.tolerance)

    output = args.output
    if output is None:
        output = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
    document: dict = {}
    if output.exists():
        try:
            document = json.loads(output.read_text())
        except json.JSONDecodeError:
            document = {}
    document.setdefault("schema", 1)
    document["repro_version"] = repro.__version__
    workloads = document.setdefault("workloads", {})
    workloads.update(results)
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
