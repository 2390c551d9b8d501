"""A ratchet on process-global id counters.

A module-level ``itertools.count`` numbers something across the whole
process, so what it hands out depends on what ran earlier.  The seven
simulator counters below still do that and wait to move into per-world id
spaces (ROADMAP item 1, which shrinks this list); ``obs.spans._span_ids``
only labels telemetry spans.  A new process-global counter fails this test.
"""

from __future__ import annotations

import importlib
import itertools
import pkgutil

import repro

KNOWN_COUNTERS = {
    "repro.gpusim.kernel._launch_ids",
    "repro.gpusim.device._device_ids",
    "repro.gpusim.memory._object_ids",
    "repro.dlframework.tensor._tensor_ids",
    "repro.dlframework.allocator._block_ids",
    "repro.dlframework.allocator._segment_seqs",
    "repro.dlframework.callbacks._op_ids",
    "repro.obs.spans._span_ids",
}


def test_module_level_id_counters_are_exactly_the_known_ones():
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    found = {
        f"{name}.{attr}"
        for name in names
        for attr, value in vars(importlib.import_module(name)).items()
        if isinstance(value, itertools.count)
    }
    assert found == KNOWN_COUNTERS
