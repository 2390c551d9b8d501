"""The ``pasta`` umbrella command line.

One entry point for the whole framework, mirroring the facade's shape::

    pasta profile  resnet18 --tool kernel_frequency --device a100
    pasta campaign run sweep.json --jobs 4 --store results.jsonl
    pasta trace    replay resnet18.pastatrace --tool hotness
    pasta telemetry summary runs/

Every workload-running subcommand accepts ``--telemetry DIR`` (self-telemetry
of the profiler itself, written as ``DIR/telemetry.jsonl``) and
``--log-level LEVEL`` (stdlib logging for the ``repro.*`` namespace); the
``PASTA_TELEMETRY`` environment variable enables telemetry without touching
the command line.  ``pasta telemetry`` analyses the resulting files.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.obs.log import configure_logging, parse_level
from repro.obs.telemetry import Telemetry, activated, from_env

# No side-effect tool import here: the registry lazily seeds the built-in
# collection on first access (`--list-tools`, name-based selection, ...).


def _version_string() -> str:
    import repro

    return f"pasta {repro.__version__}"


def add_version_flag(parser: argparse.ArgumentParser) -> None:
    """Give ``parser`` a ``--version`` that prints ``pasta <version>``."""
    parser.add_argument("--version", action="version", version=_version_string())


def add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--telemetry`` / ``--log-level`` flags to a leaf parser."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="write the profiler's own spans/metrics to DIR/telemetry.jsonl "
             "(a path ending in .jsonl is used verbatim); "
             "equivalently set the PASTA_TELEMETRY environment variable",
    )
    group.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        help="enable stderr logging for the repro.* loggers at LEVEL "
             "(debug, info, warning, error); debug mirrors telemetry records",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the umbrella ``pasta`` argument parser."""
    from repro.commands import campaign, jobs, profile, serve, telemetry, trace

    parser = argparse.ArgumentParser(
        prog="pasta",
        description="PASTA: profile, batch-sweep, and trace-replay simulated "
                    "accelerator workloads.",
    )
    add_version_flag(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    profile_parser = sub.add_parser(
        "profile", help="profile one workload with PASTA analysis tools")
    profile.configure_parser(profile_parser)
    add_version_flag(profile_parser)
    add_observability_flags(profile_parser)
    profile_parser.set_defaults(handler=profile.cmd_profile, parser=profile_parser)

    campaign_parser = sub.add_parser(
        "campaign", help="run, report and diff batched profiling campaigns")
    campaign.configure_parser(campaign_parser)
    add_version_flag(campaign_parser)
    campaign_parser.set_defaults(handler=campaign.cmd_campaign, parser=campaign_parser)

    trace_parser = sub.add_parser(
        "trace", help="record, inspect, slice and replay event traces")
    trace.configure_parser(trace_parser)
    add_version_flag(trace_parser)
    trace_parser.set_defaults(handler=trace.cmd_trace, parser=trace_parser)

    telemetry_parser = sub.add_parser(
        "telemetry", help="summarise and export the profiler's own telemetry")
    telemetry.configure_parser(telemetry_parser)
    add_version_flag(telemetry_parser)
    telemetry_parser.set_defaults(
        handler=telemetry.cmd_telemetry, parser=telemetry_parser)

    serve_parser = sub.add_parser(
        "serve", help="run the profiling-as-a-service daemon")
    serve.configure_parser(serve_parser)
    add_version_flag(serve_parser)
    add_observability_flags(serve_parser)
    serve_parser.set_defaults(handler=serve.cmd_serve, parser=serve_parser)

    submit_parser = sub.add_parser(
        "submit", help="submit a spec to a pasta serve daemon")
    jobs.configure_submit_parser(submit_parser)
    add_version_flag(submit_parser)
    add_observability_flags(submit_parser)
    submit_parser.set_defaults(handler=jobs.cmd_submit, parser=submit_parser)

    jobs_parser = sub.add_parser(
        "jobs", help="list, stream and cancel a daemon's jobs")
    jobs.configure_jobs_parser(jobs_parser)
    add_version_flag(jobs_parser)
    jobs_parser.set_defaults(handler=jobs.cmd_jobs, parser=jobs_parser)

    return parser


def _open_telemetry(args: argparse.Namespace,
                    argv: Optional[Sequence[str]]) -> Telemetry:
    """Resolve the telemetry destination: ``--telemetry`` flag, then env var."""
    target = getattr(args, "telemetry", None)
    if target is None:
        return from_env()
    return Telemetry.open(
        target, argv=list(argv) if argv is not None else sys.argv[1:])


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    log_level = getattr(args, "log_level", None)
    if log_level is not None:
        try:
            configure_logging(parse_level(log_level))
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    telemetry = _open_telemetry(args, argv)
    try:
        # `activated` installs the telemetry for every layer underneath and
        # closes the sink (flushing metrics + self-overhead) on the way out —
        # including on error, so crashed runs still leave an analysable file.
        with activated(telemetry):
            with telemetry.span(f"cli.{args.command}"):
                code = args.handler(args, args.parser)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        code = 1
    if telemetry.enabled and telemetry.sink is not None:
        print(f"telemetry written to {telemetry.sink.path}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
