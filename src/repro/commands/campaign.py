"""``pasta campaign``: batch experiment campaigns over the simulated zoo.

Subcommands
-----------

``run``
    Expand a JSON campaign spec into its job grid and execute it over a
    worker pool, serving repeated configurations from the result cache::

        pasta campaign run sweep.json --jobs 4 --store results.jsonl

``report``
    Aggregate a result store into per-model / per-device tables and the
    analysis-model overhead comparison::

        pasta campaign report results.jsonl --by device

``diff``
    Compare two stores job-by-job and flag metric regressions::

        pasta campaign diff baseline.jsonl current.jsonl --threshold 0.1

``watch``
    Tail a running campaign's ``status.jsonl`` (written by ``run --status``)
    and render completion, cache attribution, throughput and ETA live::

        pasta campaign run sweep.json --status runs/ &
        pasta campaign watch runs/

``clean``
    Drop the result cache (and optionally a store)::

        pasta campaign clean --cache-dir .pasta-cache

Spec format
-----------
A campaign spec is a JSON object with grid axes; every list axis multiplies.
Each expanded grid cell is one :class:`~repro.api.spec.ProfileSpec` job::

    {
      "name": "fig9-mini",
      "models": ["alexnet", "resnet18", "bert"],
      "devices": ["a100", "rtx3060"],
      "tools": ["kernel_frequency", ["memory_characteristics", "memory_timeline"]],
      "analysis_models": ["gpu_resident", "cpu_side"],
      "batch_size": 2,
      "knob_sweep": [{}, {"start_grid_id": 0, "end_grid_id": 49}]
    }
"""

from __future__ import annotations

import argparse
import json
import time

from repro.campaign.aggregate import (
    GROUP_FIELDS,
    diff_records,
    overhead_model_comparison,
    render_table,
    rollup,
)
from repro.campaign.cache import ResultCache
from repro.campaign.faults import FaultInjector, FaultPlan, faults_scope
from repro.campaign.leases import DEFAULT_TTL_S, LeaseManager
from repro.campaign.progress import (
    ProgressWriter,
    progress_scope,
    read_status,
    render_status,
    snapshot_status,
    status_path,
)
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.errors import ReproError

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".pasta-cache"

#: Default lease directory for multi-worker (``--workers``) runs.
DEFAULT_LEASE_DIR = ".pasta-leases"


def _parse_workers(text: str) -> tuple[int, int]:
    """Parse ``--workers K/N`` into a 0-based ``(index, count)`` shard."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ReproError(
            f"--workers must look like K/N (e.g. 0/2), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ReproError(
            f"--workers needs 0 <= K < N, got {text!r}"
        )
    return index, count


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Populate the ``campaign`` subcommand's nested subcommands."""
    sub = parser.add_subparsers(dest="campaign_command", required=True)

    run = sub.add_parser("run", help="execute a campaign spec")
    run.add_argument("spec", help="path to a campaign spec JSON file")
    run.add_argument("--jobs", "-j", type=int, default=1,
                     help="worker-pool width (default: 1)")
    run.add_argument("--executor", choices=["thread", "process", "serial"],
                     default="thread", help="worker pool flavour (default: thread)")
    run.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                     help=f"result cache directory (default: {DEFAULT_CACHE_DIR})")
    run.add_argument("--no-cache", action="store_true",
                     help="disable the result cache for this run")
    run.add_argument("--cache-url", default=None, metavar="URL",
                     help="share results through a pasta serve daemon's "
                          "/v1/cache endpoints instead of a local --cache-dir "
                          "(workers without a shared filesystem)")
    run.add_argument("--store", default=None,
                     help="append job records to this JSONL file")
    run.add_argument("--timeout", type=float, default=None,
                     help="per-job timeout in seconds (in replay mode, per "
                          "workload group)")
    run.add_argument("--retries", type=int, default=0,
                     help="re-attempts per failing job (default: 0)")
    run.add_argument("--execution", choices=["simulate", "replay"], default=None,
                     help="override the spec's execution mode: 'replay' records "
                          "each distinct workload once into memory and answers "
                          "its jobs with one analysis pass per group, rank and "
                          "grid window (failures stay per job), one pool task "
                          "per workload group")
    run.add_argument("--trace-dir", default=None,
                     help="also save each replay-mode workload recording in "
                          "this directory (default: no trace files)")
    run.add_argument("--retry-backoff", type=float, default=0.0, metavar="S",
                     help="base seconds of exponential backoff (with "
                          "decorrelated jitter) between retry attempts "
                          "(default: 0 = retry immediately)")
    run.add_argument("--retry-backoff-cap", type=float, default=30.0, metavar="S",
                     help="ceiling on one retry backoff sleep (default: 30)")
    run.add_argument("--on-failure", choices=["isolate", "fail_fast", "degrade"],
                     default="isolate",
                     help="per-job failure policy: isolate (record and move "
                          "on, the default), fail_fast (abort the campaign, "
                          "skipping unstarted jobs), degrade (re-run the job "
                          "without tools/knobs and record a partial result)")
    run.add_argument("--workers", default=None, metavar="K/N",
                     help="run as worker K of N over a shared campaign "
                          "directory: this process is primary for digest "
                          "shard K (0-based) and work-steals the rest "
                          "(requires --lease-dir or its default)")
    run.add_argument("--lease-dir", default=None, metavar="DIR",
                     help="job-lease directory for multi-worker runs "
                          f"(default with --workers: {DEFAULT_LEASE_DIR})")
    run.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                     help="seconds without a heartbeat before a worker's "
                          "lease counts as dead and may be taken over "
                          "(default: 30)")
    run.add_argument("--no-steal", action="store_true",
                     help="never take over other workers' cells; wait for "
                          "them (or their lease expiry) instead")
    run.add_argument("--steal-timeout", type=float, default=None, metavar="S",
                     help="give up on cells held by live foreign workers "
                          "after this many seconds (default: wait)")
    run.add_argument("--no-resume", action="store_true",
                     help="do not reconstruct completed work from the store "
                          "on startup (crash-resume is on by default)")
    run.add_argument("--fsync", action="store_true",
                     help="fsync cache and store writes (durability against "
                          "host crashes, not just process crashes)")
    run.add_argument("--faults", default=None, metavar="PLAN",
                     help="arm a fault-injection plan: inline JSON or a path "
                          "to a JSON file (also honoured from the "
                          "PASTA_FAULTS environment variable)")
    run.add_argument("--dry-run", action="store_true",
                     help="print the expanded job grid and exit")
    run.add_argument("--status", default=None, metavar="DIR",
                     help="stream job lifecycle records to DIR/status.jsonl "
                          "for `pasta campaign watch`")
    run.add_argument("--json", action="store_true", help="emit the summary as JSON")
    from repro.commands import add_observability_flags

    add_observability_flags(run)
    run.set_defaults(campaign_handler=_cmd_run)

    report = sub.add_parser("report", help="aggregate a result store")
    report.add_argument("store", help="path to a JSONL result store")
    report.add_argument("--by", choices=list(GROUP_FIELDS), default="model",
                        help="job axis to group by (default: model)")
    report.add_argument("--json", action="store_true", help="emit tables as JSON")
    report.set_defaults(campaign_handler=_cmd_report)

    diff = sub.add_parser("diff", help="compare two result stores")
    diff.add_argument("baseline", help="baseline JSONL result store")
    diff.add_argument("current", help="current JSONL result store")
    diff.add_argument("--threshold", type=float, default=0.05,
                      help="regression threshold as a fraction (default: 0.05)")
    diff.add_argument("--fail-on-regression", action="store_true",
                      help="exit non-zero when any metric regresses")
    diff.add_argument("--json", action="store_true", help="emit the diff as JSON")
    diff.set_defaults(campaign_handler=_cmd_diff)

    watch = sub.add_parser(
        "watch", help="render live progress from a campaign's status.jsonl")
    watch.add_argument("target", help="status.jsonl file, or its directory")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="seconds between refreshes (default: 1.0)")
    watch.add_argument("--once", action="store_true",
                       help="render one snapshot and exit")
    watch.add_argument("--timeout", type=float, default=None,
                       help="give up after this many seconds if the campaign "
                            "has not finished")
    watch.add_argument("--json", action="store_true",
                       help="emit snapshots as JSON instead of text")
    watch.set_defaults(campaign_handler=_cmd_watch)

    clean = sub.add_parser("clean", help="drop the result cache")
    clean.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"result cache directory (default: {DEFAULT_CACHE_DIR})")
    clean.add_argument("--store", default=None,
                       help="also delete this JSONL result store")
    clean.set_defaults(campaign_handler=_cmd_clean)


def _build_cache(args: argparse.Namespace):
    """The run's cache backend: none, HTTP-over-daemon, or local directory."""
    if args.no_cache:
        return None
    if args.cache_url:
        from repro.campaign.cache_http import HttpResultCache

        return HttpResultCache(args.cache_url)
    return ResultCache(args.cache_dir, fsync=args.fsync)


def _cmd_run(args: argparse.Namespace) -> int:
    from contextlib import AbstractContextManager, ExitStack

    from repro.obs.telemetry import active as _active_telemetry

    with _active_telemetry().span("campaign.setup", spec=args.spec):
        spec = CampaignSpec.load(args.spec)
        jobs = spec.expand()
        if args.dry_run:
            print(f"campaign {spec.name!r}: {len(jobs)} jobs")
            for job in jobs:
                print(f"  {job.label()}")
            return 0
        shard = _parse_workers(args.workers) if args.workers else None
        cache = _build_cache(args)
        leases = None
        if shard is not None or args.lease_dir is not None:
            leases = LeaseManager(
                args.lease_dir or DEFAULT_LEASE_DIR,
                ttl_s=args.lease_ttl if args.lease_ttl is not None else DEFAULT_TTL_S,
            )
        scheduler = CampaignScheduler(
            jobs=args.jobs,
            executor=args.executor,
            timeout_s=args.timeout,
            retries=args.retries,
            backoff_s=args.retry_backoff,
            backoff_cap_s=args.retry_backoff_cap,
            cache=cache,
            store=ResultStore(args.store, fsync=args.fsync) if args.store else None,
            execution=args.execution,
            trace_dir=args.trace_dir,
            resume=not args.no_resume,
            leases=leases,
            shard=shard,
            steal=not args.no_steal,
            steal_timeout_s=args.steal_timeout,
            on_failure=args.on_failure,
        )
    with ExitStack() as stack:
        if isinstance(cache, AbstractContextManager):
            stack.enter_context(cache)  # an HTTP cache's connections close after the run
        if args.faults:
            stack.enter_context(
                faults_scope(FaultInjector(FaultPlan.parse(args.faults)))
            )
        if args.status:
            # Scoped (not passed to the scheduler) so the api runner's in-job
            # events — per-rank parallel progress — reach the same stream.
            stack.enter_context(progress_scope(ProgressWriter(args.status)))
        result = scheduler.run(spec)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        replay_note = (
            f", {result.workloads_recorded} workload(s) simulated"
            if result.execution == "replay" else ""
        )
        fabric_bits = [
            f"{count} {label}"
            for count, label in (
                (result.stolen, "stolen"),
                (result.degraded, "degraded"),
                (result.skipped, "skipped"),
            )
            if count
        ]
        fabric_note = f", {', '.join(fabric_bits)}" if fabric_bits else ""
        print(f"campaign {result.name!r}: {result.total} jobs "
              f"({result.executed} executed, {result.cached} cached, "
              f"{result.failed} failed{fabric_note}{replay_note}) "
              f"in {result.duration_s:.2f}s")
        for outcome in result.failures():
            print(f"  FAILED {outcome.job.label()}: [{outcome.status}] {outcome.error}")
            # Every attempt is accounted for, not just the last one.
            for entry in outcome.errors[:-1]:
                print(f"    attempt {entry.get('attempt')}: {entry.get('error')}")
    return 0 if result.failed == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    latest = list(ResultStore(args.store).latest_by_digest().values())
    if not latest:
        raise ReproError(f"no records in store {args.store!r}")
    table = rollup(latest, by=args.by)
    comparison = overhead_model_comparison(latest)
    if args.json:
        print(json.dumps({"rollup": table, "analysis_model_comparison": comparison},
                         indent=2, sort_keys=True))
        return 0
    print(f"# roll-up by {args.by}")
    print(render_table(table))
    if comparison:
        print("\n# analysis-model overhead comparison")
        print(render_table(comparison))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    baseline = ResultStore(args.baseline).load()
    current = ResultStore(args.current).load()
    result = diff_records(baseline, current, threshold=args.threshold)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(f"matched {result['matched']} jobs; {result['regressions']} regressed "
              f"(threshold {args.threshold:+.0%}); "
              f"{result['only_in_baseline']} only in baseline, "
              f"{result['only_in_current']} only in current")
        for row in result["rows"]:  # type: ignore[union-attr]
            if not row["regressed"]:
                continue
            tools = "+".join(row["tools"]) if row["tools"] else "overhead-only"
            for metric, cell in row["metrics"].items():
                if cell["regressed"]:
                    print(f"  REGRESSED {row['job']}/{row['device']}/{tools} {metric}: "
                          f"{cell['baseline']:.4g} -> {cell['current']:.4g} "
                          f"(x{cell['ratio']:.3f})")
    if args.fail_on_regression and result["regressions"]:
        return 1
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    path = status_path(args.target)
    deadline = (
        time.monotonic() + args.timeout if args.timeout is not None else None
    )
    # Wait for the first record if the campaign has not started writing yet.
    while not path.exists():
        if args.once:
            raise ReproError(f"no status file at {path}")
        if deadline is not None and time.monotonic() >= deadline:
            raise ReproError(f"no status file at {path} after {args.timeout}s")
        time.sleep(min(args.interval, 0.2))
    last_rendered: str | None = None
    while True:
        snapshot = snapshot_status(read_status(path))
        rendered = (
            json.dumps(snapshot, indent=2, sort_keys=True) if args.json
            else render_status(snapshot)
        )
        if rendered != last_rendered:
            if last_rendered is not None and not args.json:
                print()
            print(rendered)
            last_rendered = rendered
        if args.once or snapshot.get("ended"):
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            print(f"watch timeout after {args.timeout}s (campaign still running)")
            return 1
        time.sleep(args.interval)


def _cmd_clean(args: argparse.Namespace) -> int:
    removed = ResultCache(args.cache_dir).clear()
    print(f"removed {removed} cached result(s) from {args.cache_dir}")
    if args.store:
        store = ResultStore(args.store)
        existed = store.path.exists()
        store.clear()
        if existed:
            print(f"deleted store {args.store}")
    return 0


def cmd_campaign(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Dispatch to the selected ``campaign`` subcommand."""
    return args.campaign_handler(args)
