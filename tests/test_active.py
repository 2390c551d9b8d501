"""The one process-wide active-handle mechanism behind telemetry, the
campaign progress bus and the fault-injection harness."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import faults, progress
from repro.campaign.faults import FaultInjector, FaultPlan
from repro.campaign.progress import ProgressWriter
from repro.obs import telemetry
from repro.obs.telemetry import Telemetry

#: name -> (holder, make a handle, activate, active, scope)
KINDS = {
    "telemetry": (
        telemetry.ACTIVE_TELEMETRY, lambda path: Telemetry(),
        telemetry.activate, telemetry.active, telemetry.activated,
    ),
    "progress": (
        progress.ACTIVE_PROGRESS, ProgressWriter,
        progress.activate_progress, progress.active_progress, progress.progress_scope,
    ),
    "faults": (
        faults.ACTIVE_FAULTS, lambda path: FaultInjector(FaultPlan()),
        faults.activate_faults, faults.active_faults, faults.faults_scope,
    ),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    holder = KINDS[request.param][0]
    holder.reset()
    yield KINDS[request.param]
    holder.reset()


def test_handle_is_shared_with_pool_threads_and_restored_after_a_raise(kind, tmp_path):
    holder, make, activate, active, scope = kind
    outer = make(tmp_path / "outer")
    assert activate(outer) is outer
    # A plain module global, not a ContextVar: pool workers see it.
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(active).result() is outer is holder.get()

    inner = make(tmp_path / "inner")
    with pytest.raises(RuntimeError, match="boom"):
        with scope(inner):
            assert active() is inner
            raise RuntimeError("boom")
    assert active() is outer
    if hasattr(outer, "close"):
        outer.close()
