"""End-to-end CLI drills for the serve surface, as real subprocesses.

Everything here exercises the shipped entry points the way an operator
would: ``pasta serve`` booted as its own process (ephemeral port scraped
from the machine-readable boot line), ``pasta submit`` / ``pasta jobs``
talking to it over HTTP, and — the headline drill — ``kill -9`` of a
daemon with queued work followed by a restart over the same ``--data-dir``
that resumes the queue and keeps every finished digest cached.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]

_ENTRY = "import sys; from repro.commands import main; sys.exit(main())"

#: The CLI as a background job of a non-interactive shell (``cmd &`` under
#: ``bash -e``) runs it: with SIGINT ignored from the start.
_ENTRY_SIGINT_IGNORED = (
    "import signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); " + _ENTRY
)

_BOOT_RE = re.compile(
    r"^pasta serve listening on (?P<url>http://\S+) "
    r"\(data: .*, workers: \d+, resumed: (?P<resumed>\d+)\)$"
)

#: Keeps every simulated job slow enough to still be in flight when the
#: daemon is killed (times=0 → every call through ``runner.execute``).
SLOW_FAULTS = json.dumps({
    "seed": 0,
    "rules": [
        {"site": "runner.execute", "kind": "slow", "times": 0, "delay_s": 2.0},
    ],
})


def _env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PASTA_FAULTS", None)
    env.update(extra)
    return env


def _cli(*args: str, entry: str = _ENTRY) -> list[str]:
    return [sys.executable, "-c", entry, *args]


def run_cli(*args: str, env: Optional[dict[str, str]] = None,
            timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        _cli(*args), capture_output=True, text=True,
        env=env or _env(), timeout=timeout, cwd=ROOT,
    )


def jsonl(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


class Daemon:
    """A ``pasta serve`` subprocess plus its scraped boot facts."""

    def __init__(self, data_dir: Path, *, workers: int = 1,
                 env: Optional[dict[str, str]] = None, entry: str = _ENTRY) -> None:
        self.proc = subprocess.Popen(
            _cli("serve", "--port", "0", "--workers", str(workers),
                 "--data-dir", str(data_dir), entry=entry),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env or _env(), cwd=ROOT,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().strip()
        match = _BOOT_RE.match(line)
        assert match, f"unexpected boot line: {line!r}"
        self.url = match.group("url")
        self.resumed = int(match.group("resumed"))

    def kill9(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=10)
        assert self.proc.returncode == -signal.SIGKILL

    def interrupt(self, signum: int = signal.SIGINT) -> int:
        self.proc.send_signal(signum)
        return self.proc.wait(timeout=10)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


@pytest.fixture
def spec_path(tmp_path: Path) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"model": "alexnet", "tools": ["hotness"], "iterations": 1}
    ))
    return path


def test_submit_round_trip_and_cache_hit(tmp_path: Path, spec_path: Path) -> None:
    daemon = Daemon(tmp_path / "serve")
    try:
        first = run_cli("submit", str(spec_path), "--url", daemon.url)
        assert first.returncode == 0, first.stderr
        records = jsonl(first.stdout)
        assert [r["type"] for r in records] == ["job", "job", "result", "job"]
        final = records[-1]
        assert final["state"] == "done"
        assert final["cache_hit"] is False
        result = records[2]
        assert result["record"]["status"] == "ok"
        assert "hotness" in result["record"]["reports"]

        # Identical resubmission is served straight from the cache.
        second = run_cli("submit", str(spec_path), "--url", daemon.url)
        assert second.returncode == 0, second.stderr
        rerun = jsonl(second.stdout)
        assert rerun[-1]["state"] == "done"
        assert rerun[-1]["cache_hit"] is True
        assert rerun[-1]["digest"] == final["digest"]
        # ...and the result bytes are the ones the first run produced.
        assert rerun[2]["record"] == result["record"]
    finally:
        daemon.close()


def test_jobs_subcommands(tmp_path: Path, spec_path: Path) -> None:
    daemon = Daemon(tmp_path / "serve")
    try:
        submitted = run_cli("submit", str(spec_path), "--url", daemon.url,
                            "--no-wait")
        assert submitted.returncode == 0, submitted.stderr
        job = jsonl(submitted.stdout)[0]
        job_id = job["job_id"]

        streamed = run_cli("jobs", "stream", job_id, "--url", daemon.url)
        assert streamed.returncode == 0, streamed.stderr
        assert jsonl(streamed.stdout)[-1]["state"] == "done"

        status = run_cli("jobs", "status", job_id, "--url", daemon.url)
        assert jsonl(status.stdout)[0]["state"] == "done"

        listing = run_cli("jobs", "list", "--url", daemon.url, "--all")
        ids = [r["job_id"] for r in jsonl(listing.stdout)]
        assert job_id in ids

        health = run_cli("jobs", "health", "--url", daemon.url)
        record = jsonl(health.stdout)[0]
        assert record["type"] == "health"
        assert record["executed"] == 1
    finally:
        daemon.close()


def test_sigint_is_a_clean_shutdown(tmp_path: Path) -> None:
    daemon = Daemon(tmp_path / "serve")
    try:
        time.sleep(0.2)  # let the child settle into its serve loop
        assert daemon.interrupt() == 0
    finally:
        daemon.close()


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_a_daemon_started_with_sigint_ignored_still_shuts_down(
    tmp_path: Path, signum: int
) -> None:
    daemon = Daemon(tmp_path / "serve", entry=_ENTRY_SIGINT_IGNORED)
    try:
        time.sleep(0.2)  # let the child settle into its serve loop
        assert daemon.interrupt(signum) == 0
        assert "shutting down" in daemon.proc.stderr.read()
    finally:
        daemon.close()


def test_kill9_restart_resumes_queue_and_cache(tmp_path: Path) -> None:
    """The ISSUE's crash drill: SIGKILL with queued jobs, restart, resume."""
    data = tmp_path / "serve"
    specs = []
    for iterations in (1, 2, 3):
        path = tmp_path / f"spec-{iterations}.json"
        path.write_text(json.dumps(
            {"model": "alexnet", "tools": ["hotness"],
             "iterations": iterations}
        ))
        specs.append(path)

    # First daemon runs with a fault plan that makes every simulation slow,
    # so all three submissions are still queued/running at kill time.
    slow = Daemon(data, env=_env(PASTA_FAULTS=SLOW_FAULTS))
    job_ids = []
    try:
        assert slow.resumed == 0
        for path in specs:
            out = run_cli("submit", str(path), "--url", slow.url, "--no-wait")
            assert out.returncode == 0, out.stderr
            job_ids.append(jsonl(out.stdout)[0]["job_id"])
        slow.kill9()
    finally:
        slow.close()

    # Restart over the same data dir, without the fault plan: the boot line
    # reports the resumed queue, and every accepted job still completes.
    fresh = Daemon(data)
    try:
        assert fresh.resumed == len(job_ids)
        for job_id in job_ids:
            streamed = run_cli("jobs", "stream", job_id, "--url", fresh.url)
            assert streamed.returncode == 0, streamed.stderr
            assert jsonl(streamed.stdout)[-1]["state"] == "done"

        health = jsonl(run_cli("jobs", "health", "--url", fresh.url).stdout)[0]
        executed_after_resume = health["executed"]
        assert executed_after_resume == len(job_ids)

        # Finished digests survived the crash: identical resubmissions are
        # pure cache hits — the daemon simulates nothing new.
        for path in specs:
            out = run_cli("submit", str(path), "--url", fresh.url)
            assert out.returncode == 0, out.stderr
            assert jsonl(out.stdout)[-1]["cache_hit"] is True
        health = jsonl(run_cli("jobs", "health", "--url", fresh.url).stdout)[0]
        assert health["executed"] == executed_after_resume
    finally:
        fresh.close()


def test_restart_after_clean_finish_resumes_nothing(
    tmp_path: Path, spec_path: Path
) -> None:
    data = tmp_path / "serve"
    first = Daemon(data)
    try:
        done = run_cli("submit", str(spec_path), "--url", first.url)
        assert done.returncode == 0
        first.kill9()
    finally:
        first.close()

    second = Daemon(data)
    try:
        assert second.resumed == 0
        rerun = run_cli("submit", str(spec_path), "--url", second.url)
        assert jsonl(rerun.stdout)[-1]["cache_hit"] is True
    finally:
        second.close()


def test_submit_bad_spec_file(tmp_path: Path) -> None:
    missing = run_cli("submit", str(tmp_path / "nope.json"),
                      "--url", "http://127.0.0.1:1")
    assert missing.returncode != 0
    assert "cannot read spec file" in missing.stderr

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    out = run_cli("submit", str(garbled), "--url", "http://127.0.0.1:1")
    assert out.returncode != 0
    assert "not valid JSON" in out.stderr
