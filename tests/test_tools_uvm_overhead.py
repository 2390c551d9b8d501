"""Tests for the UVM prefetching tool and the overhead-comparison tool."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ToolError
from repro.core.events import KernelArgumentInfo, KernelLaunchEvent, MemoryAllocEvent
from repro.core.serialization import stable_json_dumps
from repro.gpusim.device import A100, RTX3060
from repro.tools import (
    ANALYSIS_VARIANTS,
    AddressRange,
    KernelScheduleEntry,
    OverheadComparison,
    PrefetchPolicy,
    UvmPrefetchAdvisor,
    UvmPrefetchExecutor,
    WorkloadProfile,
)
from repro import api
from repro.tools.uvm_prefetch import record_uvm_schedule

MB = 1024 * 1024


class TestUvmPrefetchAdvisor:
    def test_schedule_records_object_and_tensor_ranges(self):
        advisor = UvmPrefetchAdvisor()
        advisor.handle_event(MemoryAllocEvent(address=0x10_000000, size=20 * MB, object_id=1))
        args = (
            KernelArgumentInfo(address=0x10_000000 + 4 * MB, size=2 * MB,
                               referenced_bytes=2 * MB, access_count=100),
            KernelArgumentInfo(address=0x10_000000 + 10 * MB, size=1 * MB,
                               referenced_bytes=0, access_count=0),
        )
        advisor.handle_event(KernelLaunchEvent(kernel_name="k", launch_id=1, arguments=args,
                                               duration_ns=1000))
        assert len(advisor.schedule) == 1
        entry = advisor.schedule[0]
        # Only the referenced tensor appears; its containing object is 20 MB.
        assert len(entry.tensor_ranges) == 1
        assert entry.tensor_ranges[0].size == 2 * MB
        assert entry.object_ranges[0].size == 20 * MB
        assert advisor.managed_footprint_bytes() == 20 * MB

    def test_unknown_object_falls_back_to_argument_range(self):
        advisor = UvmPrefetchAdvisor()
        args = (KernelArgumentInfo(address=0x50_000000, size=MB, referenced_bytes=MB, access_count=1),)
        advisor.handle_event(KernelLaunchEvent(kernel_name="k", launch_id=1, arguments=args))
        assert advisor.schedule[0].object_ranges[0].size == MB

    def test_report(self):
        advisor = UvmPrefetchAdvisor()
        report = advisor.report()
        assert report["kernels"] == 0


def synthetic_schedule(num_objects=5, tensors_per_object=4, object_size=40 * MB,
                       tensor_size=2 * MB):
    """A pool-allocator-like schedule: each driver object holds several tensors,
    and consecutive kernels walk through the tensors of one object before moving
    to the next (so object-level prefetch of one segment benefits several
    upcoming kernels)."""
    schedule = []
    launch_id = 0
    for obj in range(num_objects):
        base = 0x10_000000 + obj * 2 * object_size
        for t in range(tensors_per_object):
            tensor_addr = base + t * (object_size // tensors_per_object)
            schedule.append(KernelScheduleEntry(
                launch_id=launch_id, kernel_name=f"k{launch_id}", duration_ns=200_000,
                tensor_ranges=[AddressRange(tensor_addr, tensor_size)],
                object_ranges=[AddressRange(base, object_size)],
            ))
            launch_id += 1
    # Re-touch the first object's tensors at the end (temporal reuse).
    base = 0x10_000000
    for t in range(tensors_per_object):
        tensor_addr = base + t * (object_size // tensors_per_object)
        schedule.append(KernelScheduleEntry(
            launch_id=launch_id, kernel_name=f"reuse{t}", duration_ns=200_000,
            tensor_ranges=[AddressRange(tensor_addr, tensor_size)],
            object_ranges=[AddressRange(base, object_size)],
        ))
        launch_id += 1
    return schedule


class TestUvmPrefetchExecutor:
    def test_invalid_oversubscription_rejected(self):
        with pytest.raises(ToolError):
            UvmPrefetchExecutor(RTX3060, oversubscription_factor=0)

    def test_no_oversubscription_prefetch_beats_baseline(self):
        executor = UvmPrefetchExecutor(RTX3060, oversubscription_factor=1.0)
        norm = executor.normalized_times(synthetic_schedule())
        assert norm["object_level"] < 1.0
        assert norm["tensor_level"] < 1.0

    def test_oversubscription_object_level_thrashes(self):
        executor = UvmPrefetchExecutor(RTX3060, oversubscription_factor=3.0)
        results = executor.compare_policies(synthetic_schedule())
        baseline = results[PrefetchPolicy.NONE]
        object_level = results[PrefetchPolicy.OBJECT_LEVEL]
        tensor_level = results[PrefetchPolicy.TENSOR_LEVEL]
        assert object_level.execution_time_ns > baseline.execution_time_ns
        assert tensor_level.execution_time_ns < object_level.execution_time_ns
        assert object_level.stats.pages_evicted > tensor_level.stats.pages_evicted

    def test_empty_schedule(self):
        executor = UvmPrefetchExecutor(RTX3060)
        result = executor.execute([], PrefetchPolicy.NONE)
        assert result.execution_time_ns == 0.0

    def test_normalized_to_baseline_is_one(self):
        executor = UvmPrefetchExecutor(RTX3060)
        results = executor.compare_policies(synthetic_schedule(num_objects=2, tensors_per_object=3))
        baseline = results[PrefetchPolicy.NONE]
        assert baseline.normalized_to(baseline) == pytest.approx(1.0)

    def test_recorded_model_schedule_round_trips(self):
        schedule, advisor, _result = record_uvm_schedule("resnet18", device="rtx3060",
                                                         batch_size=2)
        assert len(schedule) > 50
        executor = UvmPrefetchExecutor(RTX3060, oversubscription_factor=1.0)
        norm = executor.normalized_times(schedule)
        assert norm["none"] == pytest.approx(1.0)
        assert norm["tensor_level"] <= 1.0


#: Digests of ``compare_policies`` on RTX 3060 (every ``UvmRunResult`` field
#: of all three policies), by schedule and oversubscription factor.  The
#: other tests here assert only orderings; these catch any drift in the UVM
#: model's or the executor's numbers.
COMPARE_POLICIES_DIGESTS = {
    ("synthetic", 1.0): "7a1252b386897910",
    ("synthetic", 3.0): "e187871cd9c4a435",
    ("alexnet", 1.0): "4af90ca1d1360340",
    ("alexnet", 3.0): "32b8e976a0363dba",
}


@pytest.fixture(scope="module")
def alexnet_schedule():
    return record_uvm_schedule("alexnet", device="rtx3060", batch_size=2)[0]


@pytest.mark.parametrize("schedule_name, factor", sorted(COMPARE_POLICIES_DIGESTS))
def test_compare_policies_matches_the_pinned_digest(schedule_name, factor, request):
    if schedule_name == "synthetic":
        schedule = synthetic_schedule()
    else:
        schedule = request.getfixturevalue("alexnet_schedule")
    results = UvmPrefetchExecutor(RTX3060, oversubscription_factor=factor).compare_policies(schedule)
    digest = hashlib.sha256(stable_json_dumps(results).encode()).hexdigest()[:16]
    assert digest == COMPARE_POLICIES_DIGESTS[(schedule_name, factor)]


class TestOverheadComparisonTool:
    def test_workload_profile_records_launches(self):
        profile = WorkloadProfile()
        api.run("alexnet", device="a100", tools=[profile], batch_size=4)
        assert len(profile.launches) > 10
        assert profile.total_accesses() > 0
        assert profile.total_execution_ns() > 0

    def test_variant_ordering_matches_figure9(self):
        profile = WorkloadProfile()
        api.run("resnet18", device="a100", tools=[profile], batch_size=2)
        comparison = OverheadComparison()
        rows = comparison.evaluate(profile.launches, A100)
        assert set(rows) == {name for name, _m, _b in ANALYSIS_VARIANTS}
        assert (rows["CS-GPU"].normalized_overhead
                < rows["CS-CPU"].normalized_overhead
                < rows["NVBIT-CPU"].normalized_overhead)

    def test_speedups_are_orders_of_magnitude(self):
        profile = WorkloadProfile()
        api.run("resnet18", device="a100", tools=[profile], batch_size=2)
        speedups = OverheadComparison().speedup_of_gpu_analysis(profile.launches, A100)
        assert speedups["CS-CPU"] > 50
        assert speedups["NVBIT-CPU"] > speedups["CS-CPU"]

    def test_a100_benefits_more_than_3060(self):
        profile = WorkloadProfile()
        api.run("resnet18", device="a100", tools=[profile], batch_size=2)
        comparison = OverheadComparison()
        a100 = comparison.speedup_of_gpu_analysis(profile.launches, A100)
        r3060 = comparison.speedup_of_gpu_analysis(profile.launches, RTX3060)
        assert a100["CS-CPU"] > r3060["CS-CPU"]

    def test_breakdown_shapes_match_figure10(self):
        profile = WorkloadProfile()
        api.run("resnet18", device="a100", tools=[profile], batch_size=2)
        rows = OverheadComparison().evaluate(profile.launches, A100)
        assert rows["CS-GPU"].fractions["collection"] > 0.5
        assert rows["CS-CPU"].fractions["analysis"] > 0.5
        assert rows["NVBIT-CPU"].fractions["analysis"] > 0.5
