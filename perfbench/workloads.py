"""The benchmark's four workloads, their set-up and their output checks.

Every workload drives the system only through :mod:`repro.api`,
:class:`repro.campaign.scheduler.CampaignScheduler`, or a ``pasta serve``
subprocess reached through :mod:`repro.serve.client`.  One *operation* is a
profile run (live workloads), a campaign cell (``campaign_replay_gpt2``; the
timed unit there is the whole campaign run) or a submit-to-result round trip
(``serve_warm``); ``attempted`` and ``failed`` count operations.

The simulator hands out object, launch, tensor and device ids from
process-wide counters, so two identical runs in one process see different
ids and, through them, different reports.  :class:`CounterReset` restores
those counters before each operation, which makes every operation of a
workload repeat the same work and lets its reports be compared byte for
byte with the reference taken during set-up.

The pipeline workloads and every set-up report times at *reference speed*.
On a shared 2-core host the machine's speed changes by half within seconds,
and process CPU time follows wall time, so the drift is not time stolen
from the process but slower execution.  :data:`SAMPLER` times a fixed mix of
interpreter and C-library work that runs none of ``src/`` from a background
thread, and each timed interval's host seconds are scaled by
``CALIBRATION_NOMINAL_S`` over the median of the samples taken during it.
``serve_warm`` spends most of a round trip waiting on HTTP and thread
wake-ups in two processes, which the probe does not track, so its round
trips are reported in host seconds.

Besides the set-up reference, each workload's reference is compared with
the one recorded from the current code in ``perfbench/expected.json``
(report digests, logical-record counts and cell lists; nothing in it
depends on ``repro.__version__``).  When the two differ, every operation
fails: a change that alters the reports or drops records is counted in
``failed`` even though it alters the set-up reference the same way.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import re
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time
from typing import Optional

import repro
import repro.tools  # noqa: F401  (registers the bundled tools)
from repro import api
from repro.api.runner import execute_payload
from repro.api.spec import ProfileSpec
from repro.campaign.cache import ResultCache
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.core.registry import REGISTRY
from repro.dlframework.context import FrameworkContext
from repro.dlframework.engine import ExecutionEngine
from repro.gpusim.runtime import create_runtime
from repro.serve.client import ServeError, connect

#: The five bundled coarse-grained tools.
COARSE_TOOLS = (
    "kernel_frequency",
    "memory_characteristics",
    "hotness",
    "inefficiency_locator",
    "memory_timeline",
)
#: The coarse tools plus the batch-native access histogram.
FINE_TOOLS = COARSE_TOOLS + ("access_histogram",)

#: Set-up rounds per run; ``setup_s`` reports their median.
SETUP_ROUNDS = 3

#: Fewest serve round trips per measurement: p99 then has >= 10 samples
#: beyond it.
MIN_ROUND_TRIPS = 1000

#: Client threads of the serve closed loop (never more than the cores).
SERVE_CLIENTS = max(1, min(2, os.cpu_count() or 1))

#: Round trips per second of ``--seconds``.  The daemon keeps every job and
#: its per-submission cost grows with them, so ``serve_warm`` runs a fixed
#: number of round trips (fewer than a 2-core host completes in that time)
#: instead of as many as fit: every run then sees the same job table.
SERVE_RTS_PER_SECOND = 150

#: Seconds to wait for the daemon's boot line and for its exit on SIGINT.
DAEMON_TIMEOUT_S = 60.0

#: Host seconds :func:`calibration_seconds` takes on the reference machine.
CALIBRATION_NOMINAL_S = 0.005


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


_CALIBRATION_DOC = [{"k": i, "v": str(i) * 4, "l": [i, i + 1, i + 2]} for i in range(600)]


def calibration_seconds() -> float:
    """Host time of a fixed mix of interpreter and C-library work.

    Dict updates and string joins, small objects with method calls and a
    sort, and a JSON encode, compress and decode: the kinds of work the
    simulator does, none of it from ``src/``.
    """
    started = perf_counter()
    table: dict[int, int] = {}
    for i in range(12_000):
        key = i % 977
        table[key] = table.get(key, 0) + i * i
    "".join([str(i) for i in range(4_000)])
    pairs = [_Pair(i, 2 * i) for i in range(3_000)]
    sum(pair.total() for pair in pairs)
    sorted(pairs, key=lambda pair: -pair.a)
    blob = json.dumps(_CALIBRATION_DOC).encode("utf-8")
    zlib.compress(blob, 6)
    json.loads(blob)
    return perf_counter() - started


class SpeedSampler:
    """Samples :func:`calibration_seconds` from a background thread.

    A sample is timed with ``time.thread_time``, the CPU time of the
    sampling thread, so waiting for the interpreter lock while the workload
    runs does not count; a slower machine does.  The garbage collector is
    off while a sample runs: a collection it triggered would scan the
    workload's heap and time the heap's size instead of the machine.  Each
    sample costs about 1% of the sampling period in workload time.
    """

    PERIOD_S = 0.5

    def __init__(self) -> None:
        #: (perf_counter at the sample's start, thread seconds it took).
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        while True:
            started = perf_counter()
            cpu = thread_time()
            gc.disable()
            try:
                calibration_seconds()
            finally:
                gc.enable()
            self.samples.append((started, thread_time() - cpu))
            if self._stop.wait(self.PERIOD_S):
                return

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=DAEMON_TIMEOUT_S)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per host second for work from ``start`` to
        ``end`` (``perf_counter`` values): from the samples taken within a
        period of the interval, or else the nearest sample."""
        samples = list(self.samples)
        if not samples:
            raise RuntimeError("the speed sampler has not been started")
        inside = [cost for at, cost in samples
                  if start - self.PERIOD_S <= at <= end + self.PERIOD_S]
        if not inside:
            inside = [min(samples, key=lambda sample: abs(sample[0] - end))[1]]
        return CALIBRATION_NOMINAL_S / statistics.median(inside)


#: The process's one speed sampler; ``run.py`` starts it after the imports.
SAMPLER = SpeedSampler()


#: Outputs of the current code that every run is checked against.
EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))


@dataclass
class Outcome:
    """One timed unit of work and what its checks found."""

    seconds: float
    attempted: int
    failed: int
    #: Logical records processed (a batch counts its length, others 1).
    records: int
    kind: str = "run"
    #: Reference seconds per host second while the work ran.
    scale: float = 1.0
    alloc_ops: int = 0
    trace_bytes: int = 0

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def report_digest(reports: object) -> str:
    """Content digest of a report dict (canonical JSON)."""
    text = json.dumps(reports, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def logical_records(result: object) -> int:
    """Logical records a live profile processed: batches count their length."""
    processor = result.session.processor  # type: ignore[attr-defined]
    return (processor.events_processed - processor.batches_dispatched
            + processor.batch_records)


def proc_status_mb(pid: int, field: str) -> float:
    """One ``kB`` field (``VmRSS``, ``VmHWM``) of ``/proc/<pid>/status`` in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


class CounterReset:
    """Restores the simulator's process-wide id counters (see module doc).

    Every ``itertools.count`` held as a module global of a ``repro.*``
    module is found by scanning, so the reset follows renames and new
    counters without listing them.  A counter's start value is read the
    first time its module is seen, before any simulation has run.
    """

    def __init__(self) -> None:
        self._start: dict[tuple[str, str], int] = {}
        self._scan()

    def _scan(self) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, itertools.count) and (name, attr) not in self._start:
                    match = re.match(r"count\((-?\d+)", repr(value))
                    if match:
                        self._start[(name, attr)] = int(match.group(1))

    def __call__(self) -> None:
        self._scan()
        for (name, attr), start in self._start.items():
            setattr(sys.modules[name], attr, itertools.count(start))


def _root(tracer) -> object:
    return tracer.span("op") if tracer is not None else nullcontext()


class Workload:
    """Base: sequential operations until the time is up (at least one)."""

    name = ""

    def __init__(self, workdir: Path, reset: CounterReset) -> None:
        self.workdir = workdir
        self.reset = reset
        #: JSON-shaped outputs of the last set-up round; operations are
        #: checked against it.
        self.reference: dict = {}

    @property
    def pinned(self) -> bool:
        """True when the set-up reference equals the one in ``expected.json``."""
        return self.reference == EXPECTED[self.name]

    def setup(self) -> None:
        """One set-up round; the last round's references are used."""

    def run_op(self, tracer=None) -> Outcome:
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> tuple[list[Outcome], float]:
        """Timed operations and their summed reference seconds."""
        deadline = perf_counter() + seconds
        outcomes: list[Outcome] = []
        while not outcomes or perf_counter() < deadline:
            started = perf_counter()
            outcome = self.run_op(tracer)
            outcome.scale = SAMPLER.scale(started, perf_counter())
            outcomes.append(outcome)
        return outcomes, sum(o.ref_seconds for o in outcomes)

    def records_per_s(self, outcomes: list[Outcome], elapsed: float) -> float:
        return statistics.median(o.records for o in outcomes) / statistics.median(
            o.ref_seconds for o in outcomes)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process running the workload, in MB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extra_metrics(self, outcomes: list[Outcome], elapsed: float) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures printed with the others."""
        return {}

    def bare_seconds(self) -> float:
        """Seconds of the same simulation with no profiling session."""
        return 0.0

    def layer_extras(self) -> dict[str, float]:
        """Per-layer figures read from outside the traced process."""
        return {}

    def close(self) -> int:
        """Release resources; returns the number of failures found doing so."""
        return 0


def _bare_training_seconds(workload: Workload, model_name: str) -> float:
    """Median reference seconds of one training iteration with no session."""
    times = []
    for _ in range(3):
        workload.reset()
        started = perf_counter()
        runtime = create_runtime(REGISTRY.create("devices", "a100"))
        engine = ExecutionEngine(FrameworkContext(runtime))
        model = REGISTRY.create("models", model_name)
        engine.prepare(model)
        engine.run_training(model, iterations=1)
        ended = perf_counter()
        times.append((ended - started) * SAMPLER.scale(started, ended))
    return statistics.median(times)


class LiveWorkload(Workload):
    """One live training iteration under a PASTA session per operation."""

    def __init__(self, workdir: Path, reset: CounterReset, *,
                 name: str, model: str, tools: tuple[str, ...], fine_grained: bool) -> None:
        super().__init__(workdir, reset)
        self.name = name
        self.model = model
        self.tools = tools
        self.fine_grained = fine_grained

    def _run(self):
        result = api.run(self.model, mode="train", iterations=1,
                         fine_grained=self.fine_grained, tools=list(self.tools))
        return result, result.reports()

    @staticmethod
    def _outputs(result, reports) -> dict:
        return {"reports": report_digest(reports), "records": logical_records(result)}

    def setup(self) -> None:
        self.reset()
        self.reference = self._outputs(*self._run())

    def run_op(self, tracer=None) -> Outcome:
        self.reset()
        with _root(tracer):
            started = perf_counter()
            result, reports = self._run()
            seconds = perf_counter() - started
        outputs = self._outputs(result, reports)
        ok = self.pinned and outputs == self.reference
        return Outcome(seconds, attempted=1, failed=0 if ok else 1, records=outputs["records"],
                       alloc_ops=result.summary.allocation_events)

    def bare_seconds(self) -> float:
        return _bare_training_seconds(self, self.model)


def _trace_payload_bytes(trace_dir: Path) -> int:
    """Bytes the recording wrote: traces plus their indexes, minus headers.

    The trace header stamps the wall-clock creation time, whose printed
    length varies by a byte or so; leaving the header out makes the count
    repeat exactly.  The header length comes from the seek index.
    """
    total = 0
    for path in sorted(trace_dir.iterdir()):
        total += path.stat().st_size
        if path.name.endswith(".idx.json"):
            header = json.loads(path.read_text(encoding="utf-8")).get("header") or {}
            total -= int(header.get("length", 0))
    return total


def _cell_key(job: ProfileSpec) -> str:
    """A campaign cell's name, independent of ``repro.__version__``."""
    return f"{job.label()}/{job.analysis_model}"


class CampaignReplayWorkload(Workload):
    """A replay-mode campaign: one recording, one replay per cell."""

    name = "campaign_replay_gpt2"
    #: 2 tool sets x 2 analysis models, all of one fine-grained workload.
    TOOLSETS = (FINE_TOOLS, ("access_histogram", "memory_characteristics"))
    ANALYSIS_MODELS = ("gpu_resident", "cpu_side")

    def __init__(self, seed: int, workdir: Path, reset: CounterReset) -> None:
        super().__init__(workdir, reset)
        spec = CampaignSpec(
            name="perfbench-replay", models=["gpt2"], modes=["train"],
            tools=[list(tools) for tools in self.TOOLSETS],
            analysis_models=list(self.ANALYSIS_MODELS), fine_grained=True,
        )
        self.jobs = spec.expand()
        random.Random(seed).shuffle(self.jobs)

    def setup(self) -> None:
        cells = {}
        for job in self.jobs:
            self.reset()
            record = execute_payload(job.to_dict())
            cells[_cell_key(job)] = report_digest(record["reports"])
        # The recording attaches no tools; its event stream is the one every
        # replay re-drives.
        self.reset()
        bare = self.jobs[0].replace(tools=(), knobs=(), analysis_model="gpu_resident")
        self.reference = {"cells": cells, "records": logical_records(api.run(bare))}

    def run_op(self, tracer=None) -> Outcome:
        root = self.workdir / "campaign"
        shutil.rmtree(root, ignore_errors=True)
        scheduler = CampaignScheduler(
            cache=ResultCache(root / "cache"), store=ResultStore(root / "store.jsonl"),
            trace_dir=root / "traces", execution="replay",
        )
        self.reset()
        with _root(tracer):
            started = perf_counter()
            result = scheduler.run(self.jobs, name="perfbench-replay")
            seconds = perf_counter() - started
        pinned = self.pinned
        failed = 0
        alloc_ops = 0
        for outcome in result.outcomes:
            record = outcome.record or {}
            ok = (pinned and outcome.status == "ok" and record.get("execution") == "replay"
                  and report_digest(record.get("reports"))
                  == self.reference["cells"].get(_cell_key(outcome.job)))
            failed += 0 if ok else 1
            alloc_ops = int((record.get("summary") or {}).get("allocation_events", 0))
        return Outcome(
            seconds, attempted=len(self.jobs), failed=failed,
            records=self.reference["records"] * (1 + len(self.jobs)),
            alloc_ops=alloc_ops, trace_bytes=_trace_payload_bytes(root / "traces"),
        )

    def extra_metrics(self, outcomes, elapsed):
        trace_mb = statistics.median(o.trace_bytes for o in outcomes) / 1e6
        return {"trace_mb": (trace_mb, "MB")}

    def bare_seconds(self) -> float:
        return _bare_training_seconds(self, "gpt2")


@dataclass(frozen=True)
class MixEntry:
    kind: str
    payload: dict


#: The warm serve mix: three profile specs and one 4-cell campaign.
SERVE_MIX = (
    MixEntry("profile", ProfileSpec(model="alexnet", tools=("kernel_frequency",)).to_dict()),
    MixEntry("profile", ProfileSpec(model="resnet18",
                                    tools=("hotness", "memory_characteristics")).to_dict()),
    MixEntry("profile", ProfileSpec(model="resnet34",
                                    tools=("kernel_frequency", "memory_timeline")).to_dict()),
    MixEntry("campaign", CampaignSpec(name="perfbench-warm", models=["alexnet", "resnet18"],
                                      tools=["kernel_frequency", "hotness"]).to_dict()),
)
#: Copies of each mix entry in one seeded cycle of the closed loop, so
#: three profile round trips go out for every campaign round trip.
SERVE_MIX_COPIES = 10


class _Daemon:
    """A ``pasta serve --port 0`` subprocess over its own data dir."""

    def __init__(self, root: Path, data_dir: Path) -> None:
        self.data_dir = data_dir
        shutil.rmtree(data_dir, ignore_errors=True)
        data_dir.parent.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._stderr = open(data_dir.parent / f"{data_dir.name}.stderr", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.commands", "serve", "--port", "0",
             "--data-dir", str(data_dir), "--workers", "2"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
            stdin=subprocess.DEVNULL,
        )
        self.url = self._read_boot_line()

    def _read_boot_line(self) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=DAEMON_TIMEOUT_S):
                self.stop()
                raise RuntimeError("pasta serve printed no boot line")
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        match = re.match(r"pasta serve listening on (http://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"unexpected pasta serve boot line: {line!r}")
        return match.group(1)

    def stop(self) -> bool:
        """SIGINT, then wait; True when the daemon exited 0 in time."""
        clean = False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                clean = self.proc.wait(timeout=DAEMON_TIMEOUT_S) == 0
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return clean


def _dir_bytes(path: Path, skip: tuple[str, ...] = ()) -> int:
    return sum(p.stat().st_size for p in path.rglob("*")
               if p.is_file() and p.name not in skip)


class ServeWarmWorkload(Workload):
    """A closed loop of warm (cache-hit) submissions to a daemon subprocess."""

    name = "serve_warm"

    def __init__(self, seed: int, workdir: Path, reset: CounterReset, root: Path) -> None:
        super().__init__(workdir, reset)
        self.root = root
        order = [i for i in range(len(SERVE_MIX)) for _ in range(SERVE_MIX_COPIES)]
        random.Random(seed).shuffle(order)
        self.order = order
        self.daemon: Optional[_Daemon] = None
        self.rounds = 0
        self.failures = 0
        self.journal_bytes_per_sub = 0.0

    def setup(self) -> None:
        if self.daemon is not None:
            self.failures += 0 if self.daemon.stop() else 1
        self.rounds += 1
        self.daemon = _Daemon(self.root, self.workdir / f"serve-{self.rounds}")
        client = connect(self.daemon.url)
        results = []
        records = []
        for entry in SERVE_MIX:
            result = client.submit(entry.payload, kind=entry.kind).result(timeout=300)
            results.append(self._outputs(entry, result))
            if entry.kind == "profile":
                specs = [ProfileSpec.from_dict(entry.payload)]
            else:
                specs = CampaignSpec.from_dict(entry.payload).expand()
            records.append(self._local_records(specs))
        self.reference = {"results": results, "records": records}

    def _local_records(self, specs: list[ProfileSpec]) -> int:
        """Logical records behind a result, from a local run of each spec."""
        total = 0
        for spec in specs:
            self.reset()
            total += logical_records(api.run(spec))
        return total

    @staticmethod
    def _outputs(entry: MixEntry, result) -> dict:
        """What a result is checked on: profile reports, campaign cells."""
        if entry.kind == "profile":
            return {"reports": report_digest(result.reports())}
        return {"cells": [[str(c.get("label")), str(c.get("status"))] for c in result.cells]}

    def _round_trip(self, client, index: int, tracer) -> Outcome:
        entry = SERVE_MIX[index]
        ok = False
        started = perf_counter()
        try:
            with _root(tracer):
                result = client.submit(entry.payload, kind=entry.kind).result(timeout=60)
            seconds = perf_counter() - started
            if entry.kind == "profile":
                hit = result.cache_hit
            else:
                hit = (bool(result.status.get("cache_hit")) and result.failed == 0
                       and result.executed == 0 and result.cached == result.total)
            ok = (self.pinned and hit
                  and self._outputs(entry, result) == self.reference["results"][index])
        except (ServeError, OSError) as error:
            seconds = perf_counter() - started
            print(f"serve round trip failed: {error}", file=sys.stderr)
        return Outcome(seconds, attempted=1, failed=0 if ok else 1,
                       records=self.reference["records"][index] if ok else 0, kind=entry.kind)

    def measure(self, seconds: float, tracer=None) -> tuple[list[Outcome], float]:
        """``SERVE_RTS_PER_SECOND * seconds`` round trips (at least
        ``MIN_ROUND_TRIPS``) from ``SERVE_CLIENTS`` closed-loop threads;
        returns them and the host seconds they took."""
        assert self.daemon is not None, "setup() starts the daemon"
        url = self.daemon.url
        journal = self.daemon.data_dir / "jobs.jsonl"
        journal_before = journal.stat().st_size
        target = max(MIN_ROUND_TRIPS, int(seconds * SERVE_RTS_PER_SECOND))
        tickets = itertools.count()
        outcomes: list[Outcome] = []

        def client_loop(client_index: int) -> None:
            client = connect(url, namespace=f"bench-{client_index}")
            while (ticket := next(tickets)) < target:
                index = self.order[ticket % len(self.order)]
                outcomes.append(self._round_trip(client, index, tracer))

        threads = [threading.Thread(target=client_loop, args=(i,), daemon=True)
                   for i in range(SERVE_CLIENTS)]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=2 * DAEMON_TIMEOUT_S)
        elapsed = perf_counter() - started
        if any(thread.is_alive() for thread in threads) or len(outcomes) != target:
            raise RuntimeError("serve client threads did not finish")
        self.journal_bytes_per_sub = (journal.stat().st_size - journal_before) / len(outcomes)
        return outcomes, elapsed

    def records_per_s(self, outcomes, elapsed):
        return sum(o.records for o in outcomes) / elapsed

    def peak_rss_mb(self) -> float:
        """Daemon RSS at the end of the run.  The run is a fixed number of
        round trips, so the daemon's job table has the same size every run."""
        assert self.daemon is not None
        return proc_status_mb(self.daemon.proc.pid, "VmRSS")

    def extra_metrics(self, outcomes, elapsed):
        latencies = sorted(o.seconds for o in outcomes)
        p99 = statistics.quantiles(latencies, n=100)[98]
        return {
            "rps": (len(outcomes) / elapsed, "round trips/s"),
            "p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "p99_ms": (p99 * 1000, "ms"),
            "round_trips": (len(latencies), "count"),
            "daemon_rss_mb": (self.peak_rss_mb(), "MB"),
        }

    def layer_extras(self) -> dict[str, float]:
        assert self.daemon is not None
        health = connect(self.daemon.url).health()
        return {
            "serve.journal_bytes_per_sub": self.journal_bytes_per_sub,
            "serve.cache_bytes": _dir_bytes(self.daemon.data_dir, skip=("jobs.jsonl",)),
            "serve.jobs_retained": int(health.get("jobs", 0)),
        }

    def close(self) -> int:
        if self.daemon is not None and not self.daemon.stop():
            self.failures += 1
        self.daemon = None
        return self.failures


WORKLOADS = ("live_fine_gpt2", "live_coarse_megatron", "campaign_replay_gpt2", "serve_warm")


def make_workload(name: str, seed: int, workdir: Path, root: Path,
                  reset: CounterReset) -> Workload:
    """Build a workload by name."""
    if name == "live_fine_gpt2":
        return LiveWorkload(workdir, reset, name=name, model="gpt2",
                            tools=FINE_TOOLS, fine_grained=True)
    if name == "live_coarse_megatron":
        return LiveWorkload(workdir, reset, name=name, model="megatron_gpt2_345m",
                            tools=COARSE_TOOLS, fine_grained=False)
    if name == "campaign_replay_gpt2":
        return CampaignReplayWorkload(seed, workdir, reset)
    if name == "serve_warm":
        return ServeWarmWorkload(seed, workdir, reset, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
