"""Tensor-aware UVM prefetching tool (Section V-C1, Figures 11 and 12).

The tool has two halves:

* :class:`UvmPrefetchAdvisor` — a PASTA tool that records, for every kernel
  launch, which memory **objects** (driver-level pool segments) and which
  **tensors** (sub-ranges inside those segments) the kernel actually
  references.  This cross-layer correlation — low-level kernel/memory events
  combined with the framework's tensor boundaries — is exactly what vendor
  tools cannot provide and what PASTA's unified event model makes trivial.
* :class:`UvmPrefetchExecutor` — replays the recorded kernel schedule against
  the UVM simulator under a chosen prefetch policy (none / object-level /
  tensor-level) and memory budget, reporting execution time and paging
  statistics.  Comparing the three policies with and without oversubscription
  reproduces Figures 11 and 12.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.errors import ToolError
from repro.core.events import EventCategory, KernelLaunchEvent, MemoryAllocEvent, TensorAllocEvent
from repro.core.serialization import json_sanitize
from repro.core.tool import PastaTool
from repro.gpusim.device import DeviceSpec, GpuDevice
from repro.gpusim.uvm import UvmConfig, UvmManager, UvmStats

if TYPE_CHECKING:
    from repro.api.runner import ProfileResult


class PrefetchPolicy(str, Enum):
    """UVM prefetching strategies compared in the paper."""

    NONE = "none"                  #: on-demand, page-fault-driven migration only
    OBJECT_LEVEL = "object_level"  #: prefetch whole driver-level memory objects
    TENSOR_LEVEL = "tensor_level"  #: prefetch only the tensor ranges kernels reference


@dataclass(frozen=True)
class AddressRange:
    """A half-open address range ``[address, address + size)``."""

    address: int
    size: int

    @property
    def end(self) -> int:
        return self.address + self.size


@dataclass
class KernelScheduleEntry:
    """One kernel launch in the recorded workload schedule."""

    launch_id: int
    kernel_name: str
    duration_ns: int
    #: Ranges the kernel actually references (tensor granularity).
    tensor_ranges: list[AddressRange] = field(default_factory=list)
    #: Whole driver-level objects containing those ranges (object granularity).
    object_ranges: list[AddressRange] = field(default_factory=list)


class UvmPrefetchAdvisor(PastaTool):
    """Records the kernel schedule and the object/tensor ranges each kernel uses."""

    tool_name = "uvm_prefetch_advisor"
    subscribed_categories = frozenset(
        {
            EventCategory.KERNEL_LAUNCH,
            EventCategory.MEMORY_ALLOC,
            EventCategory.TENSOR_ALLOC,
        }
    )

    def __init__(self) -> None:
        super().__init__()
        #: Sorted driver-object base addresses (for containment lookups).
        self._object_addresses: list[int] = []
        self._objects_by_address: dict[int, AddressRange] = {}
        self.schedule: list[KernelScheduleEntry] = []
        self.tensor_count = 0

    # ------------------------------------------------------------------ #
    # event hooks
    # ------------------------------------------------------------------ #
    def on_memory_alloc(self, event: MemoryAllocEvent) -> None:
        rng = AddressRange(event.address, event.size)
        bisect.insort(self._object_addresses, event.address)
        self._objects_by_address[event.address] = rng

    def on_tensor_alloc(self, event: TensorAllocEvent) -> None:
        self.tensor_count += 1

    def on_kernel_launch(self, event: KernelLaunchEvent) -> None:
        tensor_ranges: list[AddressRange] = []
        object_ranges: dict[int, AddressRange] = {}
        for arg in event.arguments:
            if arg.referenced_bytes <= 0:
                continue
            tensor_ranges.append(AddressRange(arg.address, arg.referenced_bytes))
            obj = self._containing_object(arg.address)
            if obj is not None:
                object_ranges[obj.address] = obj
            else:
                object_ranges[arg.address] = AddressRange(arg.address, arg.size)
        self.schedule.append(
            KernelScheduleEntry(
                launch_id=event.launch_id,
                kernel_name=event.kernel_name,
                duration_ns=event.duration_ns,
                tensor_ranges=tensor_ranges,
                object_ranges=list(object_ranges.values()),
            )
        )

    def _containing_object(self, address: int) -> Optional[AddressRange]:
        idx = bisect.bisect_right(self._object_addresses, address) - 1
        if idx < 0:
            return None
        base = self._object_addresses[idx]
        rng = self._objects_by_address[base]
        if rng.address <= address < rng.end:
            return rng
        return None

    # ------------------------------------------------------------------ #
    # derived results
    # ------------------------------------------------------------------ #
    def managed_footprint_bytes(self) -> int:
        """Total bytes of driver objects referenced anywhere in the schedule."""
        seen: dict[int, int] = {}
        for entry in self.schedule:
            for rng in entry.object_ranges:
                seen[rng.address] = rng.size
        return sum(seen.values())

    def report(self) -> dict[str, object]:
        return json_sanitize({
            "tool": self.tool_name,
            "kernels": len(self.schedule),
            "tensors": self.tensor_count,
            "driver_objects": len(self._objects_by_address),
            "managed_footprint_bytes": self.managed_footprint_bytes(),
        })


def record_uvm_schedule(
    model_name: str,
    device: Union[str, DeviceSpec] = "rtx3060",
    mode: str = "inference",
    iterations: int = 1,
    batch_size: Optional[int] = None,
) -> tuple[list[KernelScheduleEntry], UvmPrefetchAdvisor, ProfileResult]:
    """Profile a model with the UVM prefetch advisor and return its schedule.

    The schedule (kernel launches with their object- and tensor-level address
    ranges) is what :class:`UvmPrefetchExecutor` replays under different
    prefetch policies for Figures 11 and 12.
    """
    from repro import api  # lazily: the api layer sits above the tools

    advisor = UvmPrefetchAdvisor()
    result = api.run(model_name, device=device, mode=mode, iterations=iterations,
                     tools=[advisor], batch_size=batch_size)
    return advisor.schedule, advisor, result


@dataclass
class UvmRunResult:
    """Outcome of replaying one schedule under one prefetch policy."""

    policy: PrefetchPolicy
    execution_time_ns: float
    kernel_time_ns: float
    uvm_overhead_ns: float
    stats: UvmStats
    oversubscription_factor: float

    def normalized_to(self, baseline: "UvmRunResult") -> float:
        """Execution time normalised to a baseline run (Figures 11/12 y-axis)."""
        if baseline.execution_time_ns <= 0:
            return float("inf")
        return self.execution_time_ns / baseline.execution_time_ns


class UvmPrefetchExecutor:
    """Replays a kernel schedule against the UVM simulator under a policy."""

    def __init__(
        self,
        device_spec: DeviceSpec,
        oversubscription_factor: float = 1.0,
        uvm_config: Optional[UvmConfig] = None,
        prefetch_call_overhead_ns: float = 5_000.0,
    ) -> None:
        if oversubscription_factor <= 0:
            raise ToolError("oversubscription factor must be positive")
        self.device_spec = device_spec
        self.oversubscription_factor = oversubscription_factor
        self.uvm_config = uvm_config or UvmConfig()
        #: Host-side latency of issuing one cudaMemPrefetchAsync call.
        self.prefetch_call_overhead_ns = prefetch_call_overhead_ns

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _capacity_for(self, schedule: Sequence[KernelScheduleEntry]) -> int:
        footprint = 0
        seen: dict[int, int] = {}
        for entry in schedule:
            for rng in entry.object_ranges:
                seen[rng.address] = rng.size
        footprint = sum(seen.values())
        if footprint == 0:
            footprint = self.uvm_config.page_bytes
        if self.oversubscription_factor <= 1.0:
            # No oversubscription: everything fits, with headroom.
            return max(footprint * 2, self.uvm_config.page_bytes)
        return max(int(footprint / self.oversubscription_factor), self.uvm_config.page_bytes)

    def execute(
        self, schedule: Sequence[KernelScheduleEntry], policy: PrefetchPolicy
    ) -> UvmRunResult:
        """Replay ``schedule`` under ``policy`` and return timing + paging stats."""
        device = GpuDevice(spec=self.device_spec)
        capacity = self._capacity_for(schedule)
        uvm = UvmManager(device, device_capacity_bytes=capacity, config=self.uvm_config)
        registered: set[int] = set()
        for entry in schedule:
            for rng in entry.object_ranges:
                if rng.address not in registered:
                    uvm.register_region(rng.address, rng.size)
                    registered.add(rng.address)

        kernel_time = 0.0
        uvm_overhead = 0.0
        for entry in schedule:
            if policy is PrefetchPolicy.OBJECT_LEVEL:
                for rng in entry.object_ranges:
                    uvm_overhead += self.prefetch_call_overhead_ns
                    uvm_overhead += uvm.prefetch_range(rng.address, rng.size)
            elif policy is PrefetchPolicy.TENSOR_LEVEL:
                for rng in entry.tensor_ranges:
                    uvm_overhead += self.prefetch_call_overhead_ns
                    uvm_overhead += uvm.prefetch_range(rng.address, rng.size)
            # Kernel execution touches the referenced ranges; anything still
            # non-resident faults on demand.
            for rng in entry.tensor_ranges:
                uvm_overhead += uvm.access_range(rng.address, rng.size)
            kernel_time += entry.duration_ns
        return UvmRunResult(
            policy=policy,
            execution_time_ns=kernel_time + uvm_overhead,
            kernel_time_ns=kernel_time,
            uvm_overhead_ns=uvm_overhead,
            stats=uvm.stats,
            oversubscription_factor=uvm.oversubscription_factor,
        )

    def compare_policies(
        self, schedule: Sequence[KernelScheduleEntry]
    ) -> dict[PrefetchPolicy, UvmRunResult]:
        """Run all three policies over the same schedule."""
        return {policy: self.execute(schedule, policy) for policy in PrefetchPolicy}

    def normalized_times(
        self, schedule: Sequence[KernelScheduleEntry]
    ) -> dict[str, float]:
        """Execution time of each policy normalised to the no-prefetch baseline."""
        results = self.compare_policies(schedule)
        baseline = results[PrefetchPolicy.NONE]
        return {
            policy.value: result.normalized_to(baseline)
            for policy, result in results.items()
        }
