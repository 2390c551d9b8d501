"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wl  # noqa: E402

wl.SAMPLER.start()

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Per-layer counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = (
    "gpusim.launches", "vendors.callbacks", "handler.events_emitted",
    "processor.events", "processor.records", "dispatch.deliveries",
    "dlframework.alloc_ops", "campaign.cells", "replay.trace_bytes",
    "replay.events_written", "serve.connects_per_rt",
)


def _run(workload: str, trace: int) -> dict:
    """The smallest run: ``--seconds 1`` (every run does at least one operation)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_results() -> dict[str, dict]:
    return {}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_named_metric(workload, trace, traced_results):
    result = _run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace:
        traced_results[workload] = result
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload, traced_results):
    first = traced_results.get(workload) or _run(workload, 1)
    second = _run(workload, 1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def _alter_reference(workload: wl.Workload) -> None:
    if isinstance(workload, wl.LiveWorkload):
        workload.reference["reports"] = "0" * 64
    elif isinstance(workload, wl.CampaignReplayWorkload):
        first = next(iter(workload.reference["cells"]))
        workload.reference["cells"][first] = "0" * 64
    else:
        workload.reference["results"][0] = {"reports": "0" * 64}


def _error_rate(workload: wl.Workload) -> float:
    outcomes, _ = workload.measure(0.1)
    return sum(o.failed for o in outcomes) / sum(o.attempted for o in outcomes)


@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_altered_reference_drives_error_rate_above_zero(workload_name, tmp_path):
    workload = wl.make_workload(workload_name, 3, tmp_path, ROOT, wl.CounterReset())
    try:
        workload.setup()
        _alter_reference(workload)
        assert _error_rate(workload) > 0
    finally:
        assert workload.close() == 0


def test_altered_pinned_records_drive_error_rate_above_zero(tmp_path, monkeypatch):
    """A change that alters the set-up reference as well is still caught."""
    name = "live_coarse_megatron"
    monkeypatch.setitem(wl.EXPECTED, name, dict(wl.EXPECTED[name], records=1))
    workload = wl.make_workload(name, 3, tmp_path, ROOT, wl.CounterReset())
    workload.setup()
    assert _error_rate(workload) == 1.0
