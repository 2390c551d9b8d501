"""Simulated CUDA / HIP runtime API facades.

The runtime is the surface that both the DL framework substrate and the
profiling backends interact with:

* the framework substrate calls ``malloc`` / ``free`` / ``launch_kernel`` /
  ``memcpy`` / ``synchronize`` exactly as PyTorch's backend would call
  ``cudaMalloc`` / ``cudaLaunchKernel`` / ... , and
* vendor profiling backends (:mod:`repro.vendors`) subscribe to the runtime's
  callback hooks, mirroring how Compute Sanitizer / NVBit / ROCProfiler are
  notified of driver and runtime API activity on real hardware.

``CudaRuntime`` and ``HipRuntime`` share an implementation
(:class:`AcceleratorRuntime`); they differ only in vendor identity and the API
naming reported in events, which is exactly the difference PASTA's event
handler has to normalise away.

Every allocation is ordinary device memory and all work runs on the device's
one default stream; nothing pages.  The UVM prefetching study replays a
profiled kernel schedule against :class:`~repro.gpusim.uvm.UvmManager`
instead (see :mod:`repro.tools.uvm_prefetch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.errors import DeviceError
from repro.gpusim.device import DeviceSpec, GpuDevice, Vendor
from repro.gpusim.kernel import GridConfig, KernelArgument, KernelLaunch
from repro.gpusim.memory import DeviceMemoryAllocator, MemoryObject
from repro.gpusim.stream import DEFAULT_STREAM_ID, StreamManager


class MemcpyKind(str, Enum):
    """Direction of an explicit memory copy."""

    HOST_TO_DEVICE = "host_to_device"
    DEVICE_TO_HOST = "device_to_host"
    DEVICE_TO_DEVICE = "device_to_device"
    HOST_TO_HOST = "host_to_host"


@dataclass(frozen=True)
class MemcpyRecord:
    """Metadata of one memory-copy operation."""

    size: int
    kind: MemcpyKind
    src_address: int = 0
    dst_address: int = 0
    stream_id: int = DEFAULT_STREAM_ID
    start_time_ns: int = 0
    duration_ns: int = 0


@dataclass(frozen=True)
class MemsetRecord:
    """Metadata of one memory-set operation."""

    address: int
    size: int
    value: int = 0
    stream_id: int = DEFAULT_STREAM_ID
    start_time_ns: int = 0
    duration_ns: int = 0


@dataclass(frozen=True)
class SyncRecord:
    """Metadata of one synchronisation call."""

    scope: str  # "stream" or "device"
    stream_id: Optional[int] = None
    time_ns: int = 0


class RuntimeCallbacks:
    """The callbacks a runtime delivers to its subscribers, as no-ops.

    Profiling backends subclass this and override what they observe.
    """

    def on_memory_alloc(self, runtime: "AcceleratorRuntime", obj: MemoryObject) -> None:
        pass

    def on_memory_free(self, runtime: "AcceleratorRuntime", obj: MemoryObject) -> None:
        pass

    def on_memcpy(self, runtime: "AcceleratorRuntime", record: MemcpyRecord) -> None:
        pass

    def on_memset(self, runtime: "AcceleratorRuntime", record: MemsetRecord) -> None:
        pass

    def on_kernel_launch_begin(self, runtime: "AcceleratorRuntime", launch: KernelLaunch) -> None:
        pass

    def on_kernel_launch_end(self, runtime: "AcceleratorRuntime", launch: KernelLaunch) -> None:
        pass

    def on_synchronize(self, runtime: "AcceleratorRuntime", record: SyncRecord) -> None:
        pass

    def on_runtime_api(self, runtime: "AcceleratorRuntime", api_name: str) -> None:
        pass


class AcceleratorRuntime:
    """Shared implementation of the CUDA/HIP-style runtime API on the device ``spec``."""

    #: API-name prefix used in emitted runtime-API events ("cuda" or "hip").
    api_prefix = "cuda"

    def __init__(self, spec: DeviceSpec) -> None:
        self.device = GpuDevice(spec=spec)
        self.allocator = DeviceMemoryAllocator(self.device)
        self.streams = StreamManager(self.device)
        self._subscribers: list[RuntimeCallbacks] = []
        self.kernel_launches: list[KernelLaunch] = []
        self.memcpy_records: list[MemcpyRecord] = []
        self.api_call_counts: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # subscription
    # ------------------------------------------------------------------ #
    @property
    def vendor(self) -> Vendor:
        """Vendor of the underlying device."""
        return self.device.vendor

    def subscribe(self, subscriber: RuntimeCallbacks) -> None:
        """Register a profiling backend to receive runtime callbacks."""
        if subscriber not in self._subscribers:
            self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: RuntimeCallbacks) -> None:
        """Remove a previously registered subscriber."""
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)

    def _notify(self, method: str, *args: object) -> None:
        for subscriber in list(self._subscribers):
            getattr(subscriber, method)(self, *args)

    def _count_api(self, name: str) -> None:
        full = f"{self.api_prefix}{name}"
        self.api_call_counts[full] = self.api_call_counts.get(full, 0) + 1
        self._notify("on_runtime_api", full)

    # ------------------------------------------------------------------ #
    # memory management
    # ------------------------------------------------------------------ #
    def malloc(self, nbytes: int, tag: str = "") -> MemoryObject:
        """``cudaMalloc`` / ``hipMalloc``: allocate device memory."""
        self._count_api("Malloc")
        obj = self.allocator.allocate(nbytes, tag=tag)
        self._notify("on_memory_alloc", obj)
        return obj

    def free(self, obj: MemoryObject) -> None:
        """``cudaFree`` / ``hipFree``."""
        self._count_api("Free")
        self.allocator.free(obj)
        self._notify("on_memory_free", obj)

    def memcpy(
        self,
        size: int,
        kind: MemcpyKind,
        src_address: int = 0,
        dst_address: int = 0,
        stream_id: int = DEFAULT_STREAM_ID,
    ) -> MemcpyRecord:
        """``cudaMemcpy(Async)``: account a copy and notify subscribers."""
        self._count_api("Memcpy")
        duration = self._transfer_duration_ns(size, kind)
        stream = self.streams.get_stream(stream_id)
        start, _end = stream.enqueue(self.device.now(), duration)
        record = MemcpyRecord(
            size=size,
            kind=kind,
            src_address=src_address,
            dst_address=dst_address,
            stream_id=stream_id,
            start_time_ns=start,
            duration_ns=duration,
        )
        self.memcpy_records.append(record)
        self._notify("on_memcpy", record)
        return record

    def memset(
        self,
        address: int,
        size: int,
        value: int = 0,
        stream_id: int = DEFAULT_STREAM_ID,
    ) -> MemsetRecord:
        """``cudaMemset(Async)``."""
        self._count_api("Memset")
        duration = self._transfer_duration_ns(size, MemcpyKind.DEVICE_TO_DEVICE)
        stream = self.streams.get_stream(stream_id)
        start, _end = stream.enqueue(self.device.now(), duration)
        record = MemsetRecord(
            address=address,
            size=size,
            value=value,
            stream_id=stream_id,
            start_time_ns=start,
            duration_ns=duration,
        )
        self._notify("on_memset", record)
        return record

    def _transfer_duration_ns(self, size: int, kind: MemcpyKind) -> int:
        if size <= 0:
            return 0
        if kind is MemcpyKind.DEVICE_TO_DEVICE:
            bandwidth = self.device.spec.memory_bandwidth_gbs * 1e9
        else:
            bandwidth = self.device.spec.pcie_bandwidth_gbs * 1e9
        return int(size / bandwidth * 1e9)

    # ------------------------------------------------------------------ #
    # kernels and synchronisation
    # ------------------------------------------------------------------ #
    def launch_kernel(
        self,
        kernel_name: str,
        grid_config: GridConfig,
        arguments: Sequence[KernelArgument] = (),
        duration_ns: int = 10_000,
        stream_id: int = DEFAULT_STREAM_ID,
        op_context: str = "",
    ) -> KernelLaunch:
        """``cudaLaunchKernel`` / ``hipLaunchKernel``.

        Builds a :class:`KernelLaunch`, places it on the stream timeline,
        notifies subscribers at launch begin and end, and records it.
        """
        self._count_api("LaunchKernel")
        stream = self.streams.get_stream(stream_id)
        start, _end = stream.enqueue(self.device.now(), duration_ns)
        launch = KernelLaunch(
            kernel_name=kernel_name,
            grid_config=grid_config,
            arguments=tuple(arguments),
            device_index=self.device.index,
            stream_id=stream_id,
            duration_ns=duration_ns,
            start_time_ns=start,
            op_context=op_context,
        )
        self._notify("on_kernel_launch_begin", launch)
        self.kernel_launches.append(launch)
        self._notify("on_kernel_launch_end", launch)
        return launch

    def synchronize(self, stream_id: Optional[int] = None) -> int:
        """``cudaStreamSynchronize`` / ``cudaDeviceSynchronize``."""
        if stream_id is None:
            self._count_api("DeviceSynchronize")
            now = self.streams.synchronize_device()
            record = SyncRecord(scope="device", stream_id=None, time_ns=now)
        else:
            self._count_api("StreamSynchronize")
            now = self.streams.synchronize_stream(stream_id)
            record = SyncRecord(scope="stream", stream_id=stream_id, time_ns=now)
        self._notify("on_synchronize", record)
        return now

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def total_kernel_time_ns(self) -> int:
        """Sum of kernel durations (the uninstrumented execution-time proxy)."""
        return sum(launch.duration_ns for launch in self.kernel_launches)

    def peak_memory_bytes(self) -> int:
        """Peak device-resident bytes observed by the driver allocator."""
        return self.allocator.peak_bytes


class CudaRuntime(AcceleratorRuntime):
    """NVIDIA CUDA runtime facade."""

    api_prefix = "cuda"

    def __init__(self, spec: DeviceSpec) -> None:
        if spec.vendor is not Vendor.NVIDIA:
            raise DeviceError(f"CudaRuntime requires an NVIDIA device, got {spec.name!r}")
        super().__init__(spec)


class HipRuntime(AcceleratorRuntime):
    """AMD HIP runtime facade."""

    api_prefix = "hip"

    def __init__(self, spec: DeviceSpec) -> None:
        if spec.vendor is not Vendor.AMD:
            raise DeviceError(f"HipRuntime requires an AMD device, got {spec.name!r}")
        super().__init__(spec)


def create_runtime(spec: DeviceSpec) -> AcceleratorRuntime:
    """Instantiate the vendor-appropriate runtime for ``spec``."""
    if spec.vendor is Vendor.NVIDIA:
        return CudaRuntime(spec)
    return HipRuntime(spec)
