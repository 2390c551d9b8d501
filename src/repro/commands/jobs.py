"""``pasta submit`` and ``pasta jobs`` — the daemon's command-line clients.

Submit a spec file and stream its records (JSONL on stdout, one protocol
record per line)::

    pasta submit spec.json --url http://127.0.0.1:8080

or fire-and-forget with ``--no-wait`` (prints the job record; re-attach
later with ``pasta jobs stream <id>``).  Inspect and manage jobs::

    pasta jobs list   --url ... [--namespace team-a]
    pasta jobs status <job-id>
    pasta jobs stream <job-id> [--from N]
    pasta jobs cancel <job-id>
    pasta jobs health

The daemon URL defaults to the ``PASTA_SERVE_URL`` environment variable,
then ``http://127.0.0.1:8080``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.errors import ReproError
from repro.serve.protocol import TERMINAL_STATES

#: Environment variable naming the default daemon URL.
URL_ENV = "PASTA_SERVE_URL"

_FALLBACK_URL = "http://127.0.0.1:8080"


def _default_url() -> str:
    return os.environ.get(URL_ENV) or _FALLBACK_URL


def _add_url_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default=None,
                        help=f"daemon URL (default: ${URL_ENV} or "
                             f"{_FALLBACK_URL})")
    parser.add_argument("--namespace", default=None,
                        help="client namespace for multi-tenant quota "
                             "accounting (default: 'default')")


def _client(args: argparse.Namespace):
    from repro.serve.client import connect

    url = args.url or _default_url()
    namespace = args.namespace or "default"
    return connect(url, namespace=namespace)


def _emit(record: dict[str, object]) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


# ---------------------------------------------------------------------- #
# pasta submit
# ---------------------------------------------------------------------- #
def configure_submit_parser(parser: argparse.ArgumentParser) -> None:
    """Populate the ``submit`` subcommand's flags."""
    parser.add_argument("spec",
                        help="path to a spec JSON file (a ProfileSpec or a "
                             "CampaignSpec dict), or '-' for stdin")
    _add_url_flag(parser)
    parser.add_argument("--kind", choices=["profile", "campaign"], default=None,
                        help="force the submission kind (default: inferred "
                             "from the spec's fields)")
    parser.add_argument("--no-wait", action="store_true",
                        help="print the job record and exit without waiting "
                             "for the result")


def cmd_submit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Submit the spec; streams records until terminal unless ``--no-wait``."""
    if args.spec == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as error:
            raise ReproError(f"cannot read spec file {args.spec!r}: {error}")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ReproError(f"spec file {args.spec!r} is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ReproError(f"spec file {args.spec!r} must hold a JSON object")

    with _client(args) as client:
        handle = client.submit(payload, kind=args.kind)
        if args.no_wait:
            _emit(handle.status())
            return 0
        final_state: Optional[str] = None
        for record in handle.stream():
            _emit(record)
            if record.get("type") == "job" and record.get("state") in TERMINAL_STATES:
                final_state = str(record.get("state"))
    return 0 if final_state == "done" else 1


# ---------------------------------------------------------------------- #
# pasta jobs
# ---------------------------------------------------------------------- #
def configure_jobs_parser(parser: argparse.ArgumentParser) -> None:
    """Populate the ``jobs`` subcommand's nested subcommands."""
    sub = parser.add_subparsers(dest="jobs_command", required=True)

    list_parser = sub.add_parser("list", help="list jobs as JSONL status records")
    _add_url_flag(list_parser)
    list_parser.add_argument("--all", action="store_true",
                             help="list every namespace's jobs, not just "
                                  "this client's")
    list_parser.set_defaults(jobs_handler=_cmd_list)

    status = sub.add_parser("status", help="one job's current status record")
    status.add_argument("job_id")
    _add_url_flag(status)
    status.set_defaults(jobs_handler=_cmd_status)

    stream = sub.add_parser(
        "stream", help="follow a job's records (resumable with --from)")
    stream.add_argument("job_id")
    stream.add_argument("--from", dest="from_index", type=int, default=0,
                        metavar="N", help="resume after the first N records")
    _add_url_flag(stream)
    stream.set_defaults(jobs_handler=_cmd_stream)

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("job_id")
    _add_url_flag(cancel)
    cancel.set_defaults(jobs_handler=_cmd_cancel)

    health = sub.add_parser("health", help="the daemon's health record")
    _add_url_flag(health)
    health.set_defaults(jobs_handler=_cmd_health)


def cmd_jobs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Dispatch to the selected ``jobs`` subcommand."""
    return args.jobs_handler(args)


def _cmd_list(args: argparse.Namespace) -> int:
    with _client(args) as client:
        for record in client.jobs(all_namespaces=args.all):
            _emit(record)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with _client(args) as client:
        _emit(client.status(args.job_id))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    final_state: Optional[str] = None
    with _client(args) as client:
        for record in client.stream(args.job_id, args.from_index):
            _emit(record)
            if record.get("type") == "job" and record.get("state") in TERMINAL_STATES:
                final_state = str(record.get("state"))
    return 0 if final_state in (None, "done") else 1


def _cmd_cancel(args: argparse.Namespace) -> int:
    with _client(args) as client:
        _emit(client.cancel(args.job_id))
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    with _client(args) as client:
        _emit(client.health())
    return 0
