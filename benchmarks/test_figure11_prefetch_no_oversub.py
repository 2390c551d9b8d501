"""Figure 11: object- vs tensor-level UVM prefetch without memory oversubscription.

Both prefetch granularities should beat the no-prefetch baseline when device
memory is plentiful (the paper reports 26-39% average speedups).
"""

from __future__ import annotations

import pytest

from conftest import bench_batch_size, model_label, print_header, print_row
from repro.gpusim.device import A100, RTX3060
from repro.tools import UvmPrefetchExecutor
from repro.tools.uvm_prefetch import record_uvm_schedule

DEVICES = {"3060": RTX3060, "A100": A100}


@pytest.fixture(scope="module")
def schedules(paper_models):
    return {
        name: record_uvm_schedule(name, device="rtx3060", batch_size=bench_batch_size())[0]
        for name in paper_models
    }


def test_figure11_prefetch_no_oversubscription(benchmark, schedules):
    def evaluate():
        results = {}
        for device_tag, spec in DEVICES.items():
            executor = UvmPrefetchExecutor(spec, oversubscription_factor=1.0)
            for name, schedule in schedules.items():
                results[(device_tag, name)] = executor.normalized_times(schedule)
        return results

    results = benchmark(evaluate)

    print_header("Figure 11 — execution time normalised to no prefetch (no oversubscription)")
    print_row("model", "device", "object-level", "tensor-level", widths=(10, 8, 14, 14))
    object_norm, tensor_norm = [], []
    for (device_tag, name), norm in results.items():
        print_row(model_label(name), device_tag, norm["object_level"], norm["tensor_level"],
                  widths=(10, 8, 14, 14))
        object_norm.append(norm["object_level"])
        tensor_norm.append(norm["tensor_level"])
    print(f"\naverage speedup: object-level {1 - sum(object_norm) / len(object_norm):.0%}, "
          f"tensor-level {1 - sum(tensor_norm) / len(tensor_norm):.0%} "
          f"(paper: 30-39% object, 26-30% tensor)")

    assert sum(object_norm) / len(object_norm) < 1.0
    assert sum(tensor_norm) / len(tensor_norm) < 1.0
    for (device_tag, name), norm in results.items():
        assert norm["object_level"] < 1.05, (device_tag, name)
        assert norm["tensor_level"] < 1.05, (device_tag, name)
