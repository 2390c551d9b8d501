"""Tests for the CUDA/HIP runtime facades and their callback hooks."""

from __future__ import annotations

import pytest

from repro.errors import DeviceError
from repro.gpusim.device import A100, MI300X, MiB
from repro.gpusim.kernel import GridConfig
from repro.gpusim.runtime import (
    CudaRuntime,
    HipRuntime,
    MemcpyKind,
    RuntimeCallbacks,
    create_runtime,
)


class RecordingSubscriber(RuntimeCallbacks):
    """Collects every callback it receives, for assertions."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, object]] = []

    def on_memory_alloc(self, runtime, obj):
        self.calls.append(("alloc", obj))

    def on_memory_free(self, runtime, obj):
        self.calls.append(("free", obj))

    def on_memcpy(self, runtime, record):
        self.calls.append(("memcpy", record))

    def on_memset(self, runtime, record):
        self.calls.append(("memset", record))

    def on_kernel_launch_begin(self, runtime, launch):
        self.calls.append(("launch_begin", launch))

    def on_kernel_launch_end(self, runtime, launch):
        self.calls.append(("launch_end", launch))

    def on_synchronize(self, runtime, record):
        self.calls.append(("sync", record))

    def on_runtime_api(self, runtime, api_name):
        self.calls.append(("api", api_name))

    def names(self) -> list[str]:
        return [name for name, _payload in self.calls]


class TestRuntimeConstruction:
    def test_create_runtime_selects_vendor_class(self):
        assert isinstance(create_runtime(A100), CudaRuntime)
        assert isinstance(create_runtime(MI300X), HipRuntime)

    def test_vendor_mismatch_rejected(self):
        with pytest.raises(DeviceError):
            CudaRuntime(MI300X)
        with pytest.raises(DeviceError):
            HipRuntime(A100)

    def test_api_prefix(self):
        assert create_runtime(A100).api_prefix == "cuda"
        assert create_runtime(MI300X).api_prefix == "hip"


class TestMemoryApis:
    def test_malloc_free_roundtrip(self, a100_runtime):
        obj = a100_runtime.malloc(1 * MiB, tag="weights")
        assert obj.live and obj.tag == "weights"
        a100_runtime.free(obj)
        assert not obj.live

    def test_api_call_counting(self, a100_runtime):
        a100_runtime.malloc(4096)
        a100_runtime.malloc(4096)
        a100_runtime.synchronize()
        assert a100_runtime.api_call_counts["cudaMalloc"] == 2
        assert a100_runtime.api_call_counts["cudaDeviceSynchronize"] == 1

    def test_hip_api_names(self, mi300x_runtime):
        mi300x_runtime.malloc(4096)
        assert "hipMalloc" in mi300x_runtime.api_call_counts

    def test_memcpy_durations_scale_with_size(self, a100_runtime):
        small = a100_runtime.memcpy(1 * MiB, MemcpyKind.HOST_TO_DEVICE)
        large = a100_runtime.memcpy(64 * MiB, MemcpyKind.HOST_TO_DEVICE)
        assert large.duration_ns > small.duration_ns

    def test_device_to_device_copy_is_faster_than_pcie(self, a100_runtime):
        h2d = a100_runtime.memcpy(64 * MiB, MemcpyKind.HOST_TO_DEVICE)
        d2d = a100_runtime.memcpy(64 * MiB, MemcpyKind.DEVICE_TO_DEVICE)
        assert d2d.duration_ns < h2d.duration_ns


class TestKernelLaunch:
    def test_launch_records_and_orders_on_stream(self, a100_runtime):
        launch1 = a100_runtime.launch_kernel("k1", GridConfig.for_elements(1024), duration_ns=100)
        launch2 = a100_runtime.launch_kernel("k2", GridConfig.for_elements(1024), duration_ns=100)
        assert launch2.start_time_ns >= launch1.end_time_ns
        assert a100_runtime.kernel_launches == [launch1, launch2]
        assert a100_runtime.total_kernel_time_ns() == 200

    def test_synchronize_advances_past_kernel_completion(self, a100_runtime):
        a100_runtime.launch_kernel("k", GridConfig.for_elements(64), duration_ns=123_456)
        now = a100_runtime.synchronize()
        assert now >= 123_456


class TestSubscribers:
    def test_all_callbacks_fire(self, a100_runtime):
        sub = RecordingSubscriber()
        a100_runtime.subscribe(sub)
        obj = a100_runtime.malloc(4096)
        a100_runtime.memcpy(4096, MemcpyKind.HOST_TO_DEVICE)
        a100_runtime.memset(obj.address, 4096)
        a100_runtime.launch_kernel("k", GridConfig.for_elements(128))
        a100_runtime.synchronize()
        a100_runtime.free(obj)
        names = sub.names()
        for expected in ("alloc", "memcpy", "memset", "launch_begin", "launch_end", "sync", "free", "api"):
            assert expected in names

    def test_unsubscribe_stops_callbacks(self, a100_runtime):
        sub = RecordingSubscriber()
        a100_runtime.subscribe(sub)
        a100_runtime.malloc(4096)
        count = len(sub.calls)
        a100_runtime.unsubscribe(sub)
        a100_runtime.malloc(4096)
        assert len(sub.calls) == count

    def test_duplicate_subscription_is_idempotent(self, a100_runtime):
        sub = RecordingSubscriber()
        a100_runtime.subscribe(sub)
        a100_runtime.subscribe(sub)
        a100_runtime.malloc(4096)
        # One alloc -> one "api" + one "alloc" callback, not two of each.
        assert sub.names().count("alloc") == 1
