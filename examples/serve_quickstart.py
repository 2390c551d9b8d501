"""Profiling as a service in one file: daemon + remote client, end to end.

``pasta serve`` turns the profiler into a long-lived service: specs go in
over HTTP, results stream back as JSON Lines, and a content-addressed cache
means no spec is ever simulated twice — across clients, restarts, even
``kill -9``.  This example boots a daemon in-process (an operator would run
``pasta serve --port 8080`` instead), then drives it through
``pasta.connect``, whose builder is *the same fluent surface* as local
``pasta.profile`` — swap the terminal verb ``.run()`` for ``.submit()`` and
everything else carries over.

Run with::

    PYTHONPATH=src python examples/serve_quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import pasta
from repro.serve import PastaDaemon
from repro.core.serialization import json_sanitize, stable_json_dumps


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pasta-serve-") as tmp:
        # 1. The service.  All state (cache + job journal) lives under
        #    data_dir; port=0 binds an ephemeral port for the demo.
        with PastaDaemon(Path(tmp) / "serve", workers=2) as daemon:
            daemon.start()
            print(f"daemon up at {daemon.url}\n")

            # 2. The client.  connect() mirrors the pasta.profile builder:
            #    same chained configuration, .submit() instead of .run().
            with pasta.connect(daemon.url, namespace="quickstart") as client:
                handle = (
                    client.profile("alexnet")
                    .with_tool("kernel_frequency")
                    .iterations(2)
                    .submit()
                )
                print(f"submitted {handle.id}; streaming records:")
                for record in handle.stream():
                    line = {k: record[k] for k in ("type", "v") if k in record}
                    line["event"] = record.get("event", record.get("state"))
                    print(f"  {line}")

                remote = handle.result()
                summary = remote.summary
                print(f"\nremote run: cache_hit={remote.cache_hit} "
                      f"digest={remote.digest[:12]}…")
                print(f"  kernels observed: {summary['kernel_launches']}")

                # 3. The API-redesign contract: the remote result is
                #    byte-identical to running the same spec locally.
                local = (
                    pasta.profile("alexnet")
                    .with_tool("kernel_frequency")
                    .iterations(2)
                    .run()
                )
                identical = stable_json_dumps(
                    json_sanitize(local.reports())
                ) == stable_json_dumps(json_sanitize(remote.reports()))
                print(f"  remote reports == local reports: {identical}")

                # 4. The cache contract: resubmitting the identical spec never
                #    re-simulates — the daemon replays the stored record.
                rerun = (
                    client.profile("alexnet")
                    .with_tool("kernel_frequency")
                    .iterations(2)
                    .submit()
                    .result()
                )
                print(f"  resubmit cache_hit: {rerun.cache_hit}")

                health = client.health()
                print(f"\nhealth: executed={health['executed']} "
                      f"cache_hits={health['cache_hits']} "
                      f"jobs={health['jobs']}")


if __name__ == "__main__":
    main()
