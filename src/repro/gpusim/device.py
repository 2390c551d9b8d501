"""Simulated GPU device specifications and device instances.

The paper evaluates PASTA on three machines (Table III): an NVIDIA A100
(80 GB), an NVIDIA GeForce RTX 3060, and an AMD MI300X.  This module models the
device-level properties that PASTA's analyses and overhead model depend on:

* memory capacity (drives UVM oversubscription behaviour, Figures 11/12),
* compute/bandwidth throughput (drives the analysis cost model, Figures 9/10),
* vendor identity (drives which profiling backend is available), and
* a monotonically advancing device clock used to timestamp runtime events.

The devices are intentionally simple: they do not model SM scheduling cycle by
cycle.  PASTA consumes *events* (kernel launches, memory operations, per-thread
accesses), so the simulation only needs to produce a faithful event stream and
a self-consistent timing model.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import DeviceError

#: Bytes in one mebibyte / gibibyte, used throughout the simulator.
MiB = 1024 * 1024
GiB = 1024 * MiB


class Vendor(str, Enum):
    """GPU vendor, selecting the runtime API family and profiling backends."""

    NVIDIA = "nvidia"
    AMD = "amd"

    @property
    def runtime_name(self) -> str:
        """Name of the host runtime API family ("cuda" or "hip")."""
        return "cuda" if self is Vendor.NVIDIA else "hip"


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a GPU model.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"NVIDIA A100 80GB"``.
    vendor:
        :class:`Vendor` of the device.
    memory_bytes:
        Device (HBM/GDDR) capacity in bytes.
    sm_count:
        Number of streaming multiprocessors / compute units.
    threads_per_sm:
        Maximum resident threads per SM; together with ``sm_count`` this bounds
        the parallelism available to PASTA's GPU-resident analysis threads.
    core_clock_mhz:
        Nominal core clock; used by the analysis cost model.
    memory_bandwidth_gbs:
        Peak memory bandwidth in GB/s.
    pcie_bandwidth_gbs:
        Host-device interconnect bandwidth in GB/s; drives trace-transfer and
        UVM migration costs.
    compute_capability:
        Architecture tag (e.g. ``"sm_80"`` or ``"gfx942"``).
    """

    name: str
    vendor: Vendor
    memory_bytes: int
    sm_count: int
    threads_per_sm: int
    core_clock_mhz: int
    memory_bandwidth_gbs: float
    pcie_bandwidth_gbs: float
    compute_capability: str

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise DeviceError(f"device {self.name!r} must have positive memory")
        if self.sm_count <= 0 or self.threads_per_sm <= 0:
            raise DeviceError(f"device {self.name!r} must have positive compute resources")

    @property
    def max_resident_threads(self) -> int:
        """Upper bound on concurrently resident device threads."""
        return self.sm_count * self.threads_per_sm

    def with_memory_limit(self, memory_bytes: int) -> "DeviceSpec":
        """Return a copy with reduced memory capacity.

        The paper limits device memory by pre-allocating a slab to control the
        UVM oversubscription factor (Section V-A); this helper models the same
        effect directly.
        """
        if memory_bytes <= 0:
            raise DeviceError("memory limit must be positive")
        if memory_bytes > self.memory_bytes:
            raise DeviceError(
                f"memory limit {memory_bytes} exceeds device capacity {self.memory_bytes}"
            )
        return dataclasses.replace(self, memory_bytes=memory_bytes)


#: Specifications mirroring Table III of the paper.
A100 = DeviceSpec(
    name="NVIDIA A100 80GB",
    vendor=Vendor.NVIDIA,
    memory_bytes=80 * GiB,
    sm_count=108,
    threads_per_sm=2048,
    core_clock_mhz=1410,
    memory_bandwidth_gbs=2039.0,
    pcie_bandwidth_gbs=32.0,
    compute_capability="sm_80",
)

RTX3060 = DeviceSpec(
    name="NVIDIA GeForce RTX 3060",
    vendor=Vendor.NVIDIA,
    memory_bytes=12 * GiB,
    sm_count=28,
    threads_per_sm=1536,
    core_clock_mhz=1777,
    memory_bandwidth_gbs=360.0,
    pcie_bandwidth_gbs=16.0,
    compute_capability="sm_86",
)

MI300X = DeviceSpec(
    name="AMD Instinct MI300X",
    vendor=Vendor.AMD,
    memory_bytes=192 * GiB,
    sm_count=304,
    threads_per_sm=2048,
    core_clock_mhz=2100,
    memory_bandwidth_gbs=5300.0,
    pcie_bandwidth_gbs=64.0,
    compute_capability="gfx942",
)

#: Built-in specs seeded into the ``devices`` registry namespace.
BUILTIN_DEVICE_SPECS: dict[str, DeviceSpec] = {
    "a100": A100,
    "rtx3060": RTX3060,
    "mi300x": MI300X,
}

#: Short-name aliases accepted alongside the canonical names above.
DEVICE_ALIASES: dict[str, str] = {"3060": "rtx3060"}

def get_device_spec(name: str) -> DeviceSpec:
    """Look up a :class:`DeviceSpec` by short name in the device registry.

    Built-ins (case-insensitive): ``"a100"``, ``"rtx3060"``/``"3060"``,
    ``"mi300x"``; plugins may register more (see
    :mod:`repro.core.registry`).
    """
    # Imported lazily: the registry seeds itself from this module, so a
    # module-level import would be cyclic.  create() (not get()) so the
    # namespace's DeviceSpec product check runs on plugin entries.
    from repro.core.registry import REGISTRY

    return REGISTRY.create("devices", name)  # type: ignore[return-value]


_device_ids = itertools.count(0)


@dataclass
class GpuDevice:
    """A live device instance with a clock and bookkeeping counters.

    A :class:`GpuDevice` is the unit that runtimes (:mod:`repro.gpusim.runtime`)
    and the UVM manager operate on.  Time is tracked in nanoseconds on a simple
    monotonically advancing clock; analyses that time events read
    :attr:`clock_ns` rather than wall-clock time, making every run
    deterministic.
    """

    spec: DeviceSpec
    index: int = field(default_factory=lambda: next(_device_ids))
    clock_ns: int = 0
    #: Bytes of device memory reserved by the profiler itself (the paper notes
    #: PASTA needs ~4 MB of device memory for profiling buffers).
    profiler_reserved_bytes: int = 0

    def advance(self, nanoseconds: int) -> int:
        """Advance the device clock by ``nanoseconds`` and return the new time."""
        if nanoseconds < 0:
            raise DeviceError("cannot advance the clock backwards")
        self.clock_ns += int(nanoseconds)
        return self.clock_ns

    def now(self) -> int:
        """Current device time in nanoseconds."""
        return self.clock_ns

    @property
    def vendor(self) -> Vendor:
        """Vendor of the underlying device spec."""
        return self.spec.vendor

    @property
    def usable_memory_bytes(self) -> int:
        """Device memory available to applications (capacity minus profiler reservation)."""
        return self.spec.memory_bytes - self.profiler_reserved_bytes

    def reserve_profiler_memory(self, nbytes: int) -> None:
        """Reserve ``nbytes`` of device memory for profiling buffers."""
        if nbytes < 0:
            raise DeviceError("profiler reservation must be non-negative")
        if nbytes > self.spec.memory_bytes:
            raise DeviceError("profiler reservation exceeds device capacity")
        self.profiler_reserved_bytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GpuDevice(index={self.index}, spec={self.spec.name!r}, clock_ns={self.clock_ns})"
