"""``pasta serve`` — run the profiling-as-a-service daemon.

Boots a :class:`~repro.serve.daemon.PastaDaemon` on the calling thread and
serves until interrupted (SIGINT or SIGTERM; either exits 0)::

    pasta serve --data-dir .pasta-serve --port 8080 --workers 4

The first stdout line is machine-readable (``pasta serve listening on
<url> ...``) so scripts and tests can scrape the bound URL — pass
``--port 0`` for an ephemeral port.  All state (content-addressed cache +
job journal) lives under ``--data-dir``; restarting the daemon over the
same directory resumes any jobs a previous daemon accepted but never
finished, and answers already-finished digests from the cache without
re-simulating.
"""

from __future__ import annotations

import argparse
import signal
import sys

#: Default daemon state directory, relative to the working directory.
DEFAULT_DATA_DIR = ".pasta-serve"

#: Default TCP port (0 binds an ephemeral port and prints it).
DEFAULT_PORT = 8080


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Populate the ``serve`` subcommand's flags."""
    parser.add_argument("--data-dir", default=DEFAULT_DATA_DIR,
                        help="daemon state: cache + job journal "
                             f"(default: {DEFAULT_DATA_DIR})")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port; 0 binds an ephemeral port and prints "
                             f"it (default: {DEFAULT_PORT})")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads executing jobs (default: 2)")
    parser.add_argument("--quota-inflight", type=int, default=None,
                        metavar="N",
                        help="per-namespace cap on queued+running jobs "
                             "(default: 64; submissions over it get a "
                             "429-style error record)")
    parser.add_argument("--quota-total", type=int, default=None, metavar="N",
                        help="per-namespace cap on total submissions for this "
                             "daemon's lifetime (default: unlimited)")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync cache and journal writes (durability "
                             "against host crashes, not just kill -9)")


def cmd_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the daemon until SIGINT or SIGTERM; exits 0 on a clean shutdown."""
    from repro.serve.daemon import PastaDaemon
    from repro.serve.jobs import DEFAULT_QUOTA_INFLIGHT

    daemon = PastaDaemon(
        args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quota_inflight=(
            DEFAULT_QUOTA_INFLIGHT if args.quota_inflight is None
            else args.quota_inflight
        ),
        quota_total=args.quota_total,
        fsync=args.fsync,
    )
    # A background job of a non-interactive shell (`cmd &` under `bash -e`)
    # starts with SIGINT ignored, and SIGTERM would kill the process without
    # closing the daemon: both interrupt the serve loop the way Ctrl-C does.
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    # The boot line prints inside the try: a Ctrl-C that lands between the
    # announce and the serve loop must still shut down cleanly (exit 0),
    # not escape as an unhandled KeyboardInterrupt.
    try:
        print(
            f"pasta serve listening on {daemon.url} "
            f"(data: {args.data_dir}, workers: {args.workers}, "
            f"resumed: {daemon.manager.resumed})",
            flush=True,
        )
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        daemon.close()
    return 0
