"""A finished profile run is freed by reference counting alone.

Nothing in a session, its runtime or its tools may sit in a reference cycle:
a cycle keeps the whole run alive until CPython's cyclic collector happens
to run, and on fine-grained workloads that collector runs rarely, so peak
memory grows with every run still waiting for it.  Each case profiles with
the cyclic collector disabled and checks that dropping the result frees
every session, runtime and tool at once.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import api

CASES = {
    "fine_grained": dict(
        model="alexnet", batch_size=2, fine_grained=True,
        tools=["access_histogram", "hotness", "inefficiency_locator"],
    ),
    "coarse": dict(
        model="resnet18", batch_size=2,
        tools=["kernel_frequency", "memory_timeline", "memory_characteristics"],
    ),
    "record_to": dict(
        model="alexnet", batch_size=2, fine_grained=True, tools=["access_histogram"],
    ),
    "tp_world_size_2": dict(
        model="megatron_gpt2_345m", mode="train", iterations=1, batch_size=2,
        parallelism={"strategy": "tp", "world_size": 2}, tools=["kernel_frequency"],
    ),
    "tp_record_to": dict(
        model="megatron_gpt2_345m", mode="train", iterations=1, batch_size=2,
        parallelism={"strategy": "tp", "world_size": 2}, tools=["kernel_frequency"],
    ),
}


def _weak_run_parts(result) -> dict[str, weakref.ref]:
    sessions = getattr(result, "sessions", None) or [result.session]
    refs: dict[str, weakref.ref] = {}
    for rank, session in enumerate(sessions):
        refs[f"session{rank}"] = weakref.ref(session)
        refs[f"runtime{rank}"] = weakref.ref(session.runtime)
        for tool in session.tools:
            refs[f"tool{rank}.{tool.tool_name}"] = weakref.ref(tool)
    return refs


@pytest.mark.parametrize("case", list(CASES))
def test_dropping_the_result_frees_the_run(case, tmp_path):
    kwargs = dict(CASES[case])
    if case.endswith("record_to"):
        kwargs["record_to"] = tmp_path / "run.pastatrace"
    gc.collect()
    gc.disable()
    try:
        result = api.run(kwargs.pop("model"), **kwargs)
        refs = _weak_run_parts(result)
        assert len(refs) >= 3
        del result
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
    finally:
        gc.enable()
    assert alive == []
