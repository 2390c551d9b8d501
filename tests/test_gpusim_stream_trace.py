"""Tests for streams/events and the trace-buffer accounting."""

from __future__ import annotations

import pytest

from repro.errors import StreamError
from repro.gpusim.device import A100, GpuDevice
from repro.gpusim.stream import DEFAULT_STREAM_ID, StreamManager
from repro.gpusim.trace import (
    AnalysisModel,
    TraceBuffer,
    TRACE_RECORD_BYTES,
)


@pytest.fixture
def streams() -> StreamManager:
    return StreamManager(GpuDevice(spec=A100))


class TestStreams:
    def test_default_stream_exists(self, streams):
        assert streams.get_stream().stream_id == DEFAULT_STREAM_ID

    def test_work_in_one_stream_is_ordered(self, streams):
        stream = streams.get_stream()
        s1, e1 = stream.enqueue(0, 100)
        s2, e2 = stream.enqueue(0, 50)
        assert s2 == e1
        assert e2 == e1 + 50

    def test_negative_duration_rejected(self, streams):
        with pytest.raises(StreamError):
            streams.get_stream().enqueue(0, -1)

    def test_stream_synchronize_advances_clock(self, streams):
        stream = streams.get_stream()
        stream.enqueue(0, 5_000)
        now = streams.synchronize_stream()
        assert now >= 5_000
        assert streams.device.now() == now


class TestTraceBuffer:
    def test_cpu_side_model_flushes_when_full(self):
        buffer = TraceBuffer(capacity_bytes=10 * TRACE_RECORD_BYTES)
        stats = buffer.collect(total_records=35, model=AnalysisModel.CPU_SIDE)
        assert stats.flush_rounds == 4
        assert stats.transferred_bytes == 35 * TRACE_RECORD_BYTES

    def test_gpu_resident_model_never_flushes(self):
        buffer = TraceBuffer(capacity_bytes=10 * TRACE_RECORD_BYTES)
        stats = buffer.collect(total_records=1_000_000, model=AnalysisModel.GPU_RESIDENT)
        assert stats.flush_rounds == 0
        # Only the reduced result map crosses PCIe.
        assert stats.transferred_bytes <= 64 * 1024

    def test_zero_records(self):
        stats = TraceBuffer().collect(0, AnalysisModel.CPU_SIDE)
        assert stats.flush_rounds == 0
        assert stats.transferred_bytes == 0

    def test_small_trace_transfers_less_than_result_map(self):
        stats = TraceBuffer().collect(10, AnalysisModel.GPU_RESIDENT)
        assert stats.transferred_bytes == 10 * TRACE_RECORD_BYTES
