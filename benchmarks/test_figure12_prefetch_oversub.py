"""Figure 12: object- vs tensor-level UVM prefetch under 3x memory oversubscription.

Under oversubscription, aggressive object-level prefetching migrates tensors
that are never accessed, evicts hot pages and thrashes; tensor-level
prefetching stays close to the no-prefetch baseline.
"""

from __future__ import annotations

import pytest

from conftest import bench_batch_size, model_label, print_header, print_row
from repro.gpusim.device import A100, RTX3060
from repro.tools import UvmPrefetchExecutor
from repro.tools.uvm_prefetch import record_uvm_schedule

DEVICES = {"3060": RTX3060, "A100": A100}
OVERSUBSCRIPTION_FACTOR = 3.0


@pytest.fixture(scope="module")
def schedules(paper_models):
    return {
        name: record_uvm_schedule(name, device="rtx3060", batch_size=bench_batch_size())[0]
        for name in paper_models
    }


def test_figure12_prefetch_oversubscription(benchmark, schedules):
    def evaluate():
        results = {}
        for device_tag, spec in DEVICES.items():
            executor = UvmPrefetchExecutor(spec, oversubscription_factor=OVERSUBSCRIPTION_FACTOR)
            for name, schedule in schedules.items():
                results[(device_tag, name)] = executor.normalized_times(schedule)
        return results

    results = benchmark(evaluate)

    print_header(f"Figure 12 — execution time normalised to no prefetch "
                 f"(oversubscription factor {OVERSUBSCRIPTION_FACTOR:.0f})")
    print_row("model", "device", "object-level", "tensor-level", widths=(10, 8, 14, 14))
    object_slowdowns = {tag: [] for tag in DEVICES}
    tensor_norms = {tag: [] for tag in DEVICES}
    for (device_tag, name), norm in results.items():
        print_row(model_label(name), device_tag, norm["object_level"], norm["tensor_level"],
                  widths=(10, 8, 14, 14))
        object_slowdowns[device_tag].append(norm["object_level"])
        tensor_norms[device_tag].append(norm["tensor_level"])
    for device_tag in DEVICES:
        avg_obj = sum(object_slowdowns[device_tag]) / len(object_slowdowns[device_tag])
        avg_ten = sum(tensor_norms[device_tag]) / len(tensor_norms[device_tag])
        print(f"\n{device_tag}: average object-level {avg_obj:.2f}x, tensor-level {avg_ten:.2f}x "
              f"(paper: object-level slowdowns 2.35x on 3060, 2.91x on A100)")

    # Shape assertions: on average object-level prefetch is now a slowdown and
    # tensor-level stays close to the baseline; object-level is always the
    # worse of the two granularities.
    for device_tag in DEVICES:
        avg_obj = sum(object_slowdowns[device_tag]) / len(object_slowdowns[device_tag])
        avg_ten = sum(tensor_norms[device_tag]) / len(tensor_norms[device_tag])
        assert avg_obj > 1.0
        assert avg_ten < avg_obj
        assert avg_ten < 1.3
    for (device_tag, name), norm in results.items():
        assert norm["tensor_level"] <= norm["object_level"] * 1.05, (device_tag, name)
