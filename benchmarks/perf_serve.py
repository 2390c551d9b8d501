#!/usr/bin/env python
"""``pasta serve`` service-overhead harness (PR 10's acceptance instrument).

Boots an in-process daemon, pre-warms one tiny spec into its
content-addressed cache, then hammers it with concurrent clients each doing
full submit → stream → result round trips.  Because the spec is warm, every
request is answered from the cache — so the numbers measure the *service*
(HTTP + queueing + journal + streaming), not the simulator:

* ``submissions_per_second`` — sustained completed round trips / wall time;
* ``p50_ms`` / ``p99_ms``    — end-to-end submit-to-result latency.

Workloads run with 8 concurrent clients (the acceptance floor) and, in the
full selection, 16.  Results land in ``BENCH_serve.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf_serve.py            # full run
    PYTHONPATH=src python benchmarks/perf_serve.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf_serve.py --quick \\
        --check BENCH_serve.json             # fail on >3x regression

``--check`` compares each workload's wall time against the matching entry in
a previously written results file and exits non-zero when any workload is
more than ``--tolerance`` (default 3.0) times slower — the CI perf-smoke
gate.  (The tolerance is looser than the pipeline harness's because these
are millisecond-scale network round trips, noisier on shared runners.)
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro.serve.client import connect
from repro.serve.daemon import PastaDaemon

#: The warmed spec every client resubmits: smallest model, one tool.
WARM_SPEC = {"model": "alexnet", "tools": ["hotness"], "iterations": 1}

#: name -> (clients, requests per client).  The acceptance criterion is
#: sustained throughput + p99 under >= 8 concurrent clients.
WORKLOADS: dict[str, tuple[int, int]] = {
    "warm_roundtrip_8c": (8, 25),
    "warm_roundtrip_16c": (16, 15),
}

QUICK_WORKLOADS: dict[str, tuple[int, int]] = {
    "warm_roundtrip_8c_quick": (8, 6),
}


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1)))
    return sorted_values[index]


def run_one(name: str, clients: int, requests: int) -> dict[str, object]:
    """Benchmark one concurrency level; returns its result entry."""
    with tempfile.TemporaryDirectory(prefix="pasta-bench-serve-") as data_dir:
        with PastaDaemon(data_dir, workers=4).start() as daemon:
            # Warm the digest so every benchmarked request is a pure cache
            # hit: the numbers measure the service, not the simulator.
            with connect(daemon.url) as client:
                warm = client.submit(WARM_SPEC).result(timeout=300)
            assert warm.reports(), "warm-up run produced no reports"

            latencies: list[float] = []
            errors: list[str] = []
            lock = threading.Lock()

            def client_loop(index: int) -> None:
                # One namespace per client: quota accounting mirrors real
                # multi-tenant use instead of piling onto one tenant.
                with connect(daemon.url, namespace=f"bench-{index}") as client:
                    for _ in range(requests):
                        started = time.perf_counter()
                        try:
                            result = client.submit(WARM_SPEC).result(timeout=60)
                            if not result.cache_hit:
                                raise AssertionError("expected a cache hit")
                        except Exception as error:  # noqa: BLE001 - recorded, not raised
                            with lock:
                                errors.append(f"{type(error).__name__}: {error}")
                            return
                        elapsed = time.perf_counter() - started
                        with lock:
                            latencies.append(elapsed)

            threads = [
                threading.Thread(target=client_loop, args=(i,), daemon=True)
                for i in range(clients)
            ]
            wall_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall_started

    if errors:
        raise SystemExit(f"{name}: {len(errors)} client error(s); first: {errors[0]}")
    total = clients * requests
    if len(latencies) != total:
        raise SystemExit(f"{name}: completed {len(latencies)}/{total} requests")
    latencies.sort()
    entry = {
        "seconds": round(wall, 4),
        "clients": clients,
        "requests": total,
        "submissions_per_second": round(total / wall, 1) if wall > 0 else 0.0,
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 2),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 2),
    }
    print(f"  {name:>22}: {entry['submissions_per_second']:8.1f} sub/s   "
          f"(p50 {entry['p50_ms']:.1f} ms, p99 {entry['p99_ms']:.1f} ms, "
          f"{clients} clients x {requests} reqs in {wall:.2f} s)")
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
        print(f"serve perf-smoke FAILED: {len(failures)} workload(s) regressed "
              f"more than {tolerance:.1f}x or had no baseline: "
              + ", ".join(f"{n} ({'no baseline' if r is None else f'{r:.2f}x'})"
                          for n, r in failures))
        return 1
    print("serve perf-smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the reduced CI workload only")
    parser.add_argument("--full", action="store_true",
                        help="run both the quick and the full workloads")
    parser.add_argument("--output", type=Path, default=None,
                        help="write results JSON here (default: "
                             "BENCH_serve.json next to the repo root; "
                             "omitted entries from previous runs are kept)")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a baseline results file and exit "
                             "non-zero on regression instead of overwriting it")
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="allowed slowdown factor for --check (default 3.0)")
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

    print(f"serve benchmark ({selection}, repro {repro.__version__})")
    results = {name: run_one(name, clients, requests)
               for name, (clients, requests) in selected.items()}

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
        output = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
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
