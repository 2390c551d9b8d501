"""Tests for the trace record & replay subsystem (repro.replay)."""

from __future__ import annotations

import gc
import gzip
import hashlib
import json
import re
import shutil
import struct
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.api.runner as api_runner
from repro import api
from repro.api import ParallelismSpec, ProfileSpec
from repro.campaign import (
    CampaignScheduler,
    CampaignSpec,
    FaultInjector,
    FaultPlan,
    FaultRule,
    ResultCache,
    faults_scope,
)
from repro.campaign import scheduler as scheduler_module
from repro.core.events import (
    EventCategory,
    InstructionBatch,
    InstructionEvent,
    KernelArgumentInfo,
    KernelLaunchEvent,
    KernelMemoryProfile,
    MemcpyEvent,
    MemoryAccessBatch,
    MemoryAccessEvent,
    MemoryAllocEvent,
    MemoryFreeEvent,
    MemsetEvent,
    OperatorEndEvent,
    OperatorStartEvent,
    PastaEvent,
    RegionEvent,
    RuntimeApiEvent,
    SynchronizationEvent,
    TensorAllocEvent,
    TensorFreeEvent,
)
from repro.core.serialization import json_roundtrip, json_sanitize, stable_json_dumps
from repro.core.session import PastaSession, collect_reports
from repro.dlframework.engine import ExecutionEngine
from repro.errors import PastaError, TraceError, TraceFormatError, TraceSchemaError
from repro.gpusim.instruction import InstructionKind
from repro.replay import (
    TRACE_FORMAT_VERSION,
    MemoryTrace,
    TraceHeader,
    TraceReader,
    TraceWriter,
    current_schemas,
    decode_event,
    encode_event,
    index_path_for,
    replay_trace,
)
from repro.replay.format import decode_chunk, dumps_record, encode_chunk
from repro.replay.replayer import TraceAddressResolver
from repro.tools import (
    KernelFrequencyTool,
    MemoryCharacteristicsTool,
    MemoryTimelineTool,
    TimeSeriesHotnessTool,
)
from repro.api import (
    record_workload_trace,
    replay_payload,
    workload_signature,
)

ALL_EVENT_CLASSES = [
    PastaEvent,
    RuntimeApiEvent,
    KernelLaunchEvent,
    MemoryAllocEvent,
    MemoryFreeEvent,
    MemcpyEvent,
    MemsetEvent,
    SynchronizationEvent,
    MemoryAccessEvent,
    InstructionEvent,
    MemoryAccessBatch,
    InstructionBatch,
    KernelMemoryProfile,
    OperatorStartEvent,
    OperatorEndEvent,
    TensorAllocEvent,
    TensorFreeEvent,
    RegionEvent,
]


def events_equal(a, b) -> bool:
    """Field-level equality through the codec (events compare by identity)."""
    return type(a) is type(b) and encode_event(a) == encode_event(b)


def event_lists_equal(xs, ys) -> bool:
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(events_equal(x, y) for x, y in zip(xs, ys))


def fine_grained_event_count(category_counts) -> int:
    """Logical fine-grained event total, whichever shape the trace used."""
    return sum(
        category_counts.get(key, 0)
        for key in ("memory_access", "instruction",
                    "memory_access_batch", "instruction_batch")
    )


def sample_events() -> list[PastaEvent]:
    """One representative, fully-populated instance of every event class."""
    return [
        PastaEvent(category=EventCategory.RUNTIME_API, device_index=1,
                   timestamp_ns=10, source="nvbit"),
        RuntimeApiEvent(api_name="cudaMalloc", device_index=0, timestamp_ns=11),
        KernelLaunchEvent(
            kernel_name="gemm", launch_id=7, grid=(4, 2, 1), block=(128, 1, 1),
            stream_id=3, duration_ns=5000, memory_footprint_bytes=1 << 20,
            working_set_bytes=1 << 18, total_memory_accesses=4096,
            op_context="linear", grid_index=6,
            arguments=(
                KernelArgumentInfo(address=0x1000, size=512, referenced_bytes=256,
                                   access_count=64, label="weight"),
                KernelArgumentInfo(address=0x4000, size=1024, referenced_bytes=512,
                                   access_count=16),
            ),
            source="compute_sanitizer", timestamp_ns=12,
        ),
        MemoryAllocEvent(address=0x1000, size=4096, object_id=5,
                         memory_kind="device", tag="weights", timestamp_ns=13),
        MemoryFreeEvent(address=0x1000, size=4096, object_id=5, timestamp_ns=14),
        MemcpyEvent(size=2048, direction="device_to_host", duration_ns=900,
                    stream_id=2, timestamp_ns=15),
        MemsetEvent(address=0x2000, size=128, value=7, timestamp_ns=16),
        SynchronizationEvent(scope="stream", stream_id=4, timestamp_ns=17),
        SynchronizationEvent(scope="device", stream_id=None, timestamp_ns=18),
        MemoryAccessEvent(address=0x1040, size=8, is_write=True, kernel_launch_id=7,
                          thread_index=33, block_index=2, timestamp_ns=19),
        InstructionEvent(kind=InstructionKind.BARRIER, kernel_launch_id=7,
                         thread_index=12, block_index=1, timestamp_ns=20),
        MemoryAccessBatch(
            kernel_launch_id=7,
            addresses=(0x1040, 0x1080, 0x4000), sizes=(4, 4, 8),
            write_flags=(False, True, False), thread_indices=(0, 1, 2),
            block_indices=(0, 0, 1), source="compute_sanitizer", timestamp_ns=20,
        ),
        InstructionBatch(
            kernel_launch_id=7,
            kinds=(InstructionKind.BLOCK_ENTRY, InstructionKind.BARRIER,
                   InstructionKind.BLOCK_EXIT),
            thread_indices=(0, 12, 0), block_indices=(0, 1, 0),
            source="compute_sanitizer", timestamp_ns=20,
        ),
        KernelMemoryProfile(
            kernel_name="gemm", launch_id=7, op_context="linear",
            object_access_counts={5: 64, 9: 16},
            object_referenced_bytes={5: 256, 9: 512},
            footprint_bytes=1 << 20, working_set_bytes=1 << 18,
            total_accesses=80, timestamp_ns=21,
        ),
        OperatorStartEvent(op_id=3, name="linear", scope="layer1", sequence=8,
                           python_stack=("model.py:10", "ops.py:40"), timestamp_ns=22),
        OperatorEndEvent(op_id=3, name="linear", scope="layer1", sequence=8,
                         kernel_count=2, timestamp_ns=23),
        TensorAllocEvent(tensor_id=77, tensor_name="act", address=0x8000, nbytes=2048,
                         pool_allocated_bytes=1 << 22, pool_reserved_bytes=1 << 23,
                         event_index=41, timestamp_ns=24),
        TensorFreeEvent(tensor_id=77, tensor_name="act", address=0x8000, nbytes=2048,
                        pool_allocated_bytes=1 << 21, pool_reserved_bytes=1 << 23,
                        event_index=42, timestamp_ns=25),
        RegionEvent(label="layer", starting=True, source="annotation", timestamp_ns=26),
        RegionEvent(label="layer", starting=False, source="annotation", timestamp_ns=27),
    ]


DEFAULT_TOOLSET = lambda: [  # noqa: E731 - fresh instances per call
    KernelFrequencyTool(),
    MemoryCharacteristicsTool(),
    MemoryTimelineTool(),
    TimeSeriesHotnessTool(),
]


def make_header(**overrides) -> TraceHeader:
    from repro.gpusim.device import A100

    defaults = dict(
        device_spec=A100,
        analysis_model="gpu_resident",
        backend="compute_sanitizer",
        instrumentation="compute_sanitizer",
    )
    defaults.update(overrides)
    return TraceHeader.for_recording(**defaults)


# --------------------------------------------------------------------------- #
# codec round-trips
# --------------------------------------------------------------------------- #
class TestEventCodecs:
    def test_every_event_class_has_a_sample(self):
        assert {type(e) for e in sample_events()} == set(ALL_EVENT_CLASSES)

    @pytest.mark.parametrize("event", sample_events(), ids=lambda e: type(e).__name__)
    def test_round_trip_equality(self, event):
        assert events_equal(decode_event(encode_event(event)), event)

    @pytest.mark.parametrize("event", sample_events(), ids=lambda e: type(e).__name__)
    def test_codec_output_survives_json_sanitize(self, event):
        encoded = encode_event(event)
        assert json_sanitize(encoded) == encoded
        assert json_roundtrip(encoded) == encoded
        assert events_equal(decode_event(json_roundtrip(encoded)), event)

    def test_decoded_types_are_rich(self):
        launch = next(e for e in sample_events() if isinstance(e, KernelLaunchEvent))
        decoded = decode_event(encode_event(launch))
        assert isinstance(decoded.grid, tuple)
        assert all(isinstance(a, KernelArgumentInfo) for a in decoded.arguments)
        profile = next(e for e in sample_events() if isinstance(e, KernelMemoryProfile))
        decoded_profile = decode_event(encode_event(profile))
        assert all(isinstance(k, int) for k in decoded_profile.object_access_counts)
        instr = next(e for e in sample_events() if isinstance(e, InstructionEvent))
        assert decode_event(encode_event(instr)).kind is InstructionKind.BARRIER

    def test_unknown_tag_raises(self):
        with pytest.raises(TraceFormatError):
            decode_event({"type": "NoSuchEvent"})

    def test_schemas_cover_all_builtin_events(self):
        schemas = current_schemas()
        assert {cls.__name__ for cls in ALL_EVENT_CLASSES} <= set(schemas)

    def test_batch_schemas_match_release_1_6_0(self):
        # Batch columns are numpy arrays in memory but JSON lists on the
        # wire; the fingerprint follows the wire form, so traces recorded
        # by 1.6.0 still pass the strict schema check.
        schemas = current_schemas()
        assert schemas["MemoryAccessBatch"] == "953c8e554ed50127"
        assert schemas["InstructionBatch"] == "a529fb7563492837"

    def test_release_1_6_0_batch_line_decodes_to_arrays(self):
        line = (
            '{"addresses":[4160,4224,16384],"block_indices":[0,0,1],'
            '"category":"memory_access_batch","device_index":1,'
            '"kernel_launch_id":7,"sizes":[4,4,8],"source":"compute_sanitizer",'
            '"thread_indices":[0,1,2],"timestamp_ns":20,'
            '"type":"MemoryAccessBatch","write_flags":[false,true,false]}'
        )
        batch = decode_event(json.loads(line))
        assert isinstance(batch, MemoryAccessBatch)
        for name in ("addresses", "sizes", "thread_indices", "block_indices"):
            column = getattr(batch, name)
            assert isinstance(column, np.ndarray) and column.dtype == np.int64, name
        assert batch.write_flags.dtype == np.bool_
        assert batch.addresses.tolist() == [0x1040, 0x1080, 0x4000]
        assert batch.write_flags.tolist() == [False, True, False]
        assert dumps_record(encode_event(batch)) == line

    @settings(max_examples=50, deadline=None)
    @given(
        kernel_name=st.text(max_size=20),
        launch_id=st.integers(min_value=0, max_value=1 << 40),
        grid=st.tuples(*[st.integers(min_value=1, max_value=1024)] * 3),
        block=st.tuples(*[st.integers(min_value=1, max_value=1024)] * 3),
        duration_ns=st.integers(min_value=0, max_value=1 << 50),
        grid_index=st.integers(min_value=0, max_value=1 << 20),
        args=st.lists(
            st.tuples(st.integers(min_value=0, max_value=1 << 48),
                      st.integers(min_value=1, max_value=1 << 30),
                      st.integers(min_value=0, max_value=1 << 30),
                      st.integers(min_value=0, max_value=1 << 20),
                      st.text(max_size=8)),
            max_size=4,
        ),
    )
    def test_kernel_launch_round_trip_property(self, kernel_name, launch_id, grid,
                                               block, duration_ns, grid_index, args):
        event = KernelLaunchEvent(
            kernel_name=kernel_name, launch_id=launch_id, grid=grid, block=block,
            duration_ns=duration_ns, grid_index=grid_index,
            arguments=tuple(KernelArgumentInfo(*a) for a in args),
        )
        assert events_equal(decode_event(json_roundtrip(encode_event(event))), event)

    @settings(max_examples=50, deadline=None)
    @given(
        object_id=st.integers(min_value=0, max_value=1 << 40),
        address=st.integers(min_value=0, max_value=1 << 48),
        size=st.integers(min_value=1, max_value=1 << 34),
        kind=st.sampled_from(["device", "managed", "pinned"]),
    )
    def test_memory_alloc_round_trip_property(self, object_id, address, size, kind):
        event = MemoryAllocEvent(address=address, size=size, object_id=object_id,
                                 memory_kind=kind)
        assert events_equal(decode_event(json_roundtrip(encode_event(event))), event)


# --------------------------------------------------------------------------- #
# container writer/reader
# --------------------------------------------------------------------------- #
class TestContainer:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        events = sample_events()
        with TraceWriter(path, make_header(), chunk_events=4) as writer:
            for event in events:
                writer.write(event)
            footer = writer.close()
        assert footer.event_count == len(events)
        assert footer.chunk_count == (len(events) + 3) // 4
        reader = TraceReader(path)
        assert event_lists_equal(reader.events(), events)
        assert reader.footer.digest == footer.digest
        assert reader.header.repro_version == repro.__version__
        assert reader.verify()

    def test_reader_without_index_streams_fine(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        events = sample_events()
        with TraceWriter(path, make_header(), chunk_events=3) as writer:
            for event in events:
                writer.write(event)
        index_path_for(path).unlink()
        reader = TraceReader(path)
        assert not reader.indexed
        assert event_lists_equal(reader.events(), events)
        assert reader.footer.event_count == len(events)
        assert reader.verify()

    def test_chunk_random_access(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        events = sample_events()
        with TraceWriter(path, make_header(), chunk_events=5) as writer:
            for event in events:
                writer.write(event)
        reader = TraceReader(path)
        assert reader.chunk_count == (len(events) + 4) // 5
        assert event_lists_equal(reader.read_chunk(1), events[5:10])
        with pytest.raises(TraceError):
            reader.read_chunk(99)

    def test_category_slicing(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        with TraceWriter(path, make_header(), chunk_events=2) as writer:
            for event in sample_events():
                writer.write(event)
        reader = TraceReader(path)
        launches = list(reader.events(categories=[EventCategory.KERNEL_LAUNCH]))
        assert [type(e) for e in launches] == [KernelLaunchEvent]
        both = list(reader.events(categories=["kernel_launch", "memcpy"]))
        assert {type(e) for e in both} == {KernelLaunchEvent, MemcpyEvent}
        with pytest.raises(TraceError):
            list(reader.events(categories=["nonsense"]))

    def test_grid_window_slicing(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        events = [
            KernelLaunchEvent(kernel_name=f"k{i}", launch_id=100 + i, grid_index=i)
            for i in range(6)
        ]
        events.append(MemoryAccessEvent(address=64, kernel_launch_id=102))
        events.append(MemoryAccessEvent(address=64, kernel_launch_id=105))
        events.append(MemcpyEvent(size=10))
        with TraceWriter(path, make_header()) as writer:
            for event in events:
                writer.write(event)
        got = list(TraceReader(path).events(start_grid_id=1, end_grid_id=2))
        names = [e.kernel_name for e in got if isinstance(e, KernelLaunchEvent)]
        assert names == ["k1", "k2"]
        accesses = [e for e in got if isinstance(e, MemoryAccessEvent)]
        assert [a.kernel_launch_id for a in accesses] == [102]
        # non-kernel bookkeeping events pass through
        assert any(isinstance(e, MemcpyEvent) for e in got)

    def test_grid_window_keeps_fine_grained_preceding_their_launch(self, tmp_path):
        # Backends emit a kernel's device-side events before the canonical
        # launch-end event, so the window filter must not depend on stream
        # order (regression: all fine-grained events were dropped).
        path = tmp_path / "t.pastatrace"
        events = []
        for i in range(4):
            events.append(MemoryAccessEvent(address=64 * i, kernel_launch_id=200 + i))
            events.append(InstructionEvent(kind=InstructionKind.BARRIER,
                                           kernel_launch_id=200 + i))
            events.append(KernelLaunchEvent(kernel_name=f"k{i}", launch_id=200 + i,
                                            grid_index=i))
        with TraceWriter(path, make_header()) as writer:
            for event in events:
                writer.write(event)
        got = list(TraceReader(path).events(start_grid_id=1, end_grid_id=2))
        launches = [e for e in got if isinstance(e, KernelLaunchEvent)]
        assert [e.kernel_name for e in launches] == ["k1", "k2"]
        accesses = [e for e in got if isinstance(e, MemoryAccessEvent)]
        assert [a.kernel_launch_id for a in accesses] == [201, 202]
        barriers = [e for e in got if isinstance(e, InstructionEvent)]
        assert [b.kernel_launch_id for b in barriers] == [201, 202]

    def test_grid_window_slice_of_fine_grained_recording(self, tmp_path):
        trace = tmp_path / "fine.pastatrace"
        api.run("alexnet", device="a100", tools=(), fine_grained=True,
                     batch_size=2, record_to=trace)
        out = tmp_path / "window.pastatrace"
        TraceReader(trace).slice_to(out, start_grid_id=0, end_grid_id=3)
        counts = TraceReader(out).footer.category_counts
        assert counts.get("kernel_launch") == 4
        assert fine_grained_event_count(counts) > 0

    def test_region_slicing(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        events = [
            MemcpyEvent(size=1),
            RegionEvent(label="hot", starting=True),
            MemcpyEvent(size=2),
            RegionEvent(label="hot", starting=False),
            MemcpyEvent(size=3),
        ]
        with TraceWriter(path, make_header()) as writer:
            for event in events:
                writer.write(event)
        got = list(TraceReader(path).events(region="hot"))
        sizes = [e.size for e in got if isinstance(e, MemcpyEvent)]
        assert sizes == [2]
        assert sum(isinstance(e, RegionEvent) for e in got) == 2

    def test_slice_to_writes_replayable_trace(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        with TraceWriter(path, make_header(), chunk_events=3) as writer:
            for event in sample_events():
                writer.write(event)
        out = tmp_path / "sliced.pastatrace"
        reader = TraceReader(path)
        footer = reader.slice_to(out, categories=["kernel_launch", "memory_alloc"])
        sliced = TraceReader(out)
        assert footer.event_count == 2
        assert sliced.verify()
        assert sliced.header.workload["sliced_from"] == str(path)
        assert {type(e) for e in sliced.events()} == {KernelLaunchEvent, MemoryAllocEvent}

    def test_detects_corruption(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        with TraceWriter(path, make_header(), chunk_events=2) as writer:
            writer.write(MemcpyEvent(size=1))
            writer.write(MemcpyEvent(size=2))
        index = json.loads(index_path_for(path).read_text())
        chunk = index["chunks"][0]
        # Splice in a forged chunk (one event altered) between the original
        # header and footer: the footer digest must no longer match.
        raw = path.read_bytes()
        header_bytes = raw[:chunk["offset"]]
        footer_bytes = raw[chunk["offset"] + chunk["length"]:]
        forged_chunk = encode_chunk([MemcpyEvent(size=1), MemcpyEvent(size=999)])
        path.write_bytes(header_bytes + gzip.compress(forged_chunk, mtime=0) + footer_bytes)
        index_path_for(path).unlink()
        assert not TraceReader(path).verify()

    def test_failed_slice_leaves_an_incomplete_trace(self, tmp_path):
        trace = tmp_path / "alexnet.pastatrace"
        api.run("alexnet", device="a100", tools=(), batch_size=2, record_to=trace)
        chunk = json.loads(index_path_for(trace).read_text())["chunks"][0]
        raw = bytearray(trace.read_bytes())
        middle = chunk["offset"] + chunk["length"] // 2
        for i in range(middle, middle + 16):
            raw[i] ^= 0xFF
        trace.write_bytes(bytes(raw))
        out = tmp_path / "sliced.pastatrace"
        # Which check trips (inflate or the member CRC) depends on the bytes,
        # and those on the process-wide device numbering.
        with pytest.raises((zlib.error, TraceFormatError)) as failure:
            TraceReader(trace).slice_to(out)
        # The writer saw the slice fail, so the output must not claim to be
        # a complete (empty) trace.
        sliced = TraceReader(out)
        assert sliced.footer.complete is False
        assert sliced.footer.abort_reason == (
            f"{type(failure.value).__name__}: {failure.value}")
        with pytest.raises(TraceError, match="incomplete"):
            list(sliced.events())

    def test_a_torn_trace_write_is_never_finished_later(self, tmp_path):
        trace = tmp_path / "alexnet.pastatrace"
        run = dict(device="a100", tools=("kernel_frequency",), batch_size=2)
        api.run("alexnet", **run, record_to=trace)
        # Hit 0 is the header member, hits 1..n the chunks: tear the last chunk.
        chunks = TraceReader(trace).footer.chunk_count
        plan = FaultPlan(rules=(
            FaultRule(site="trace.write", kind="torn_write", after=chunks),))
        with faults_scope(FaultInjector(plan)):
            with pytest.raises(TraceError, match="injected torn write"):
                api.run("alexnet", **run, record_to=trace)
        size = trace.stat().st_size
        gc.collect()  # a dropped writer must not write a footer from __del__
        assert trace.stat().st_size == size
        assert not index_path_for(trace).exists()
        with pytest.raises(TraceFormatError, match=re.escape(str(trace))):
            TraceReader(trace).footer

    def test_an_event_without_a_codec_fails_the_recording_like_a_torn_write(self, tmp_path):
        class Unregistered(MemcpyEvent):
            pass

        path = tmp_path / "t.pastatrace"
        writer = TraceWriter(path, make_header(), chunk_events=2)
        writer.write(MemcpyEvent(size=1))
        with pytest.raises(TraceFormatError, match="no codec registered"):
            writer.write(Unregistered(size=2))  # fills the chunk: encoded here
        assert writer.closed
        assert not index_path_for(path).exists()
        with pytest.raises(TraceFormatError, match="no footer"):
            TraceReader(path).footer

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        header = make_header()
        header.schemas = dict(header.schemas, KernelLaunchEvent="deadbeefdeadbeef")
        with TraceWriter(path, header) as writer:
            writer.write(MemcpyEvent(size=1))
        with pytest.raises(TraceSchemaError):
            TraceReader(path)
        reader = TraceReader(path, strict_schema=False)
        assert reader.footer.event_count == 1

    def test_unknown_event_type_in_schemas_raises(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        header = make_header()
        header.schemas = dict(header.schemas, FutureEvent="0123456789abcdef")
        with TraceWriter(path, header) as writer:
            writer.write(MemcpyEvent(size=1))
        with pytest.raises(TraceSchemaError):
            TraceReader(path)

    def test_newer_format_version_raises(self, tmp_path):
        path = tmp_path / "t.pastatrace"
        header = make_header()
        header.format_version = TRACE_FORMAT_VERSION + 1
        with TraceWriter(path, header) as writer:
            writer.write(MemcpyEvent(size=1))
        with pytest.raises(TraceFormatError):
            TraceReader(path)

    def test_non_trace_file_raises(self, tmp_path):
        path = tmp_path / "bogus.pastatrace"
        path.write_bytes(gzip.compress(b'{"hello": "world"}\n'))
        with pytest.raises(TraceFormatError):
            TraceReader(path)
        with pytest.raises(TraceError):
            TraceReader(tmp_path / "missing.pastatrace")

    def test_writer_rejects_use_after_close(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.pastatrace", make_header())
        writer.close()
        with pytest.raises(TraceError):
            writer.write(MemcpyEvent(size=1))


# --------------------------------------------------------------------------- #
# version-2 chunk columns
# --------------------------------------------------------------------------- #
#: Column values at the edges of each wire dtype, and the dtype each must
#: narrow to: the smallest unsigned dtype holding the range, else int64.
COLUMN_EDGES = {
    "zero": ([0], "|u1"),
    "u1_max": ([0, 255], "|u1"),
    "u2_min": ([255, 256], "<u2"),
    "u2_max": ([65535], "<u2"),
    "u4_min": ([65536, 0], "<u4"),
    "u4_max": ([2**32 - 1], "<u4"),
    "i8_min": ([2**32, 1], "<i8"),
    "i8_max": ([2**63 - 1, 0, 7], "<i8"),
    "negative": ([5, -1], "<i8"),
}


def wire_record(event) -> dict:
    """The text-section line a version-2 chunk holds for ``event`` alone."""
    payload = encode_chunk([event])
    _, count, text_length = struct.unpack_from("<4sII", payload)
    assert count == 1
    return json.loads(payload[12:12 + text_length].split(b"\n")[1])


def assert_batches_equal(decoded, original):
    assert type(decoded) is type(original)
    for name, dtype in type(original).COLUMN_DTYPES.items():
        column = getattr(decoded, name)
        assert isinstance(column, np.ndarray) and column.dtype == dtype, name
        np.testing.assert_array_equal(column, getattr(original, name), err_msg=name)
    assert encode_event(decoded) == encode_event(original)


def edge_batches(values) -> list[PastaEvent]:
    flags = [i % 3 == 1 for i in range(len(values))]
    kinds = [InstructionKind.BLOCK_ENTRY, InstructionKind.BARRIER][: len(values)]
    kinds += [InstructionKind.BLOCK_EXIT] * (len(values) - len(kinds))
    return [
        MemoryAccessBatch(kernel_launch_id=9, addresses=values, sizes=values,
                          write_flags=flags, thread_indices=values,
                          block_indices=values, device_index=1, timestamp_ns=5),
        InstructionBatch(kernel_launch_id=9, kinds=tuple(kinds), thread_indices=values,
                         block_indices=values, source="nvbit"),
    ]


class TestChunkColumns:
    @pytest.mark.parametrize("edge", sorted(COLUMN_EDGES))
    def test_columns_narrow_to_the_smallest_dtype_holding_their_range(self, edge):
        values, wire = COLUMN_EDGES[edge]
        for batch in edge_batches(values):
            record = wire_record(batch)
            for name in batch.COLUMN_DTYPES:
                expected = "bits" if name == "write_flags" else wire
                assert record[name] == [expected, len(values)], name

    @pytest.mark.parametrize("edge", sorted(COLUMN_EDGES))
    def test_narrowing_is_lossless_through_a_trace_file(self, edge, tmp_path):
        values, _ = COLUMN_EDGES[edge]
        originals = edge_batches(values)
        path = tmp_path / "edges.pastatrace"
        with TraceWriter(path, make_header(), chunk_events=1) as writer:
            for batch in originals:
                writer.write(batch)
        decoded = list(TraceReader(path).events())
        assert len(decoded) == len(originals)
        for got, original in zip(decoded, originals):
            assert_batches_equal(got, original)
        assert decoded[1].kinds == originals[1].kinds

    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 15, 17])
    def test_packed_write_flags_of_any_length_round_trip(self, length, tmp_path):
        rng = np.random.default_rng(length)
        originals = [
            MemoryAccessBatch(
                kernel_launch_id=length,
                addresses=rng.integers(0, 1 << 40, length),
                sizes=np.full(length, 4), write_flags=rng.random(length) < 0.5,
                thread_indices=np.arange(length), block_indices=np.zeros(length, int),
            ),
            MemcpyEvent(size=length),  # a coarse event between two batches
            MemoryAccessBatch(write_flags=np.ones(length, bool), addresses=np.arange(length),
                              sizes=np.ones(length, int), thread_indices=np.arange(length),
                              block_indices=np.arange(length)),
        ]
        path = tmp_path / "flags.pastatrace"
        with TraceWriter(path, make_header()) as writer:
            for event in originals:
                writer.write(event)
        decoded = list(TraceReader(path).events())
        assert_batches_equal(decoded[0], originals[0])
        assert events_equal(decoded[1], originals[1])
        assert_batches_equal(decoded[2], originals[2])

    def test_empty_batches_round_trip(self, tmp_path):
        originals = [MemoryAccessBatch(kernel_launch_id=4), InstructionBatch(kernel_launch_id=4)]
        path = tmp_path / "empty.pastatrace"
        with TraceWriter(path, make_header()) as writer:
            for batch in originals:
                writer.write(batch)
        decoded = list(TraceReader(path).events())
        for got, original in zip(decoded, originals):
            assert len(got) == 0
            assert_batches_equal(got, original)
        assert decoded[1].kinds == ()

    def test_a_chunk_that_disagrees_with_its_prefix_is_refused(self):
        payload = encode_chunk(sample_events())
        with pytest.raises(TraceFormatError, match="announces"):
            decode_chunk(payload + b"\0")
        with pytest.raises(TraceFormatError, match="PTC2"):
            decode_chunk(b"XXXX" + payload[4:])

    @pytest.mark.parametrize("forged", ['["|u1",-3]', '["<f8",3]', '["|u1","3"]'])
    def test_a_bad_column_descriptor_is_refused(self, forged):
        payload = encode_chunk(edge_batches([1, 2, 3])[:1])
        _, count, text_length = struct.unpack_from("<4sII", payload)
        text = payload[12:12 + text_length].replace(b'["|u1",3]', forged.encode(), 1)
        forged_payload = (struct.pack("<4sII", b"PTC2", count, len(text)) + text
                          + payload[12 + text_length:])
        with pytest.raises(TraceFormatError, match="addresses"):
            decode_chunk(forged_payload)


# --------------------------------------------------------------------------- #
# format version 1 (release 1.6.0) stays readable
# --------------------------------------------------------------------------- #
#: A version-1 trace and its index, written by release 1.6.0: the
#: ``start_grid_id=0, end_grid_id=2`` slice of a fine-grained alexnet
#: batch-2 recording on an A100 (both batch classes, 146 events).
V1_FIXTURE = Path(__file__).parent / "data" / "alexnet_fine_v1.pastatrace"

V1_FIXTURE_TOOLS = ["kernel_frequency", "memory_characteristics", "hotness",
                    "inefficiency_locator", "memory_timeline", "access_histogram"]

#: Digest of the fixture's replayed reports under ``V1_FIXTURE_TOOLS``,
#: taken with release 1.6.0.
V1_FIXTURE_REPORT_DIGEST = "d3b100af225d7c96"


def report_digest(result) -> str:
    return hashlib.sha256(stable_json_dumps(result.reports()).encode()).hexdigest()[:16]


class TestFormatVersion1:
    def test_fixture_verifies_and_replays_to_the_release_reports(self):
        reader = TraceReader(V1_FIXTURE)
        assert reader.header.format_version == 1
        assert reader.indexed and reader.verify()
        counts = reader.footer.category_counts
        assert counts["memory_access_batch"] == 3 and counts["instruction_batch"] == 6
        result = api.replay(V1_FIXTURE, tools=V1_FIXTURE_TOOLS)
        assert report_digest(result) == V1_FIXTURE_REPORT_DIGEST

    def test_fixture_reads_the_same_without_its_index(self, tmp_path):
        bare = tmp_path / V1_FIXTURE.name
        shutil.copyfile(V1_FIXTURE, bare)
        reader = TraceReader(bare)
        assert not reader.indexed and reader.verify()
        assert event_lists_equal(reader.events(), TraceReader(V1_FIXTURE).events())

    def test_a_slice_of_a_v1_trace_is_written_as_v2(self, tmp_path):
        out = tmp_path / "v2.pastatrace"
        TraceReader(V1_FIXTURE).slice_to(out)
        reader = TraceReader(out)
        assert reader.header.format_version == TRACE_FORMAT_VERSION == 2
        assert reader.verify()
        assert event_lists_equal(reader.events(), TraceReader(V1_FIXTURE).events())
        result = api.replay(out, tools=V1_FIXTURE_TOOLS)
        assert report_digest(result) == V1_FIXTURE_REPORT_DIGEST


# --------------------------------------------------------------------------- #
# address resolution
# --------------------------------------------------------------------------- #
class TestTraceAddressResolver:
    def test_resolves_within_allocations(self):
        resolver = TraceAddressResolver()
        resolver.observe(MemoryAllocEvent(address=0x1000, size=0x100, object_id=1))
        resolver.observe(MemoryAllocEvent(address=0x3000, size=0x80, object_id=2))
        assert resolver.resolve(0x1000) == (1, 0x100)
        assert resolver.resolve(0x10FF) == (1, 0x100)
        assert resolver.resolve(0x1100) is None
        assert resolver.resolve(0x3040) == (2, 0x80)
        assert resolver.resolve(0x0) is None

    def test_freed_objects_still_resolve_and_reuse_wins(self):
        resolver = TraceAddressResolver()
        resolver.observe(MemoryAllocEvent(address=0x1000, size=0x100, object_id=1))
        resolver.observe(MemoryFreeEvent(address=0x1000, size=0x100, object_id=1))
        assert resolver.resolve(0x1010) == (1, 0x100)
        resolver.observe(MemoryAllocEvent(address=0x1000, size=0x200, object_id=9))
        assert resolver.resolve(0x1010) == (9, 0x200)


# --------------------------------------------------------------------------- #
# session recording + replay parity (the acceptance criterion)
# --------------------------------------------------------------------------- #
class TestRecordReplayParity:
    def test_replay_reports_equal_live_session(self, tmp_path):
        trace = tmp_path / "alexnet.pastatrace"
        live = api.run("alexnet", device="a100", tools=DEFAULT_TOOLSET(),
                            batch_size=2, record_to=trace)
        replayed = replay_trace(trace, tools=DEFAULT_TOOLSET())
        assert json_roundtrip(replayed.reports()) == json_roundtrip(live.reports())
        assert replayed.events_replayed == TraceReader(trace).footer.event_count > 0

    def test_replay_parity_on_amd_backend(self, tmp_path):
        trace = tmp_path / "amd.pastatrace"
        live = api.run("alexnet", device="mi300x",
                            tools=[KernelFrequencyTool(), MemoryCharacteristicsTool()],
                            batch_size=2, record_to=trace)
        replayed = replay_trace(
            trace, tools=[KernelFrequencyTool(), MemoryCharacteristicsTool()]
        )
        assert json_roundtrip(replayed.reports()) == json_roundtrip(live.reports())
        assert TraceReader(trace).header.backend == "rocprofiler"

    def test_replay_parity_fine_grained(self, tmp_path):
        trace = tmp_path / "fine.pastatrace"
        live = api.run("alexnet", device="a100", tools=[KernelFrequencyTool()],
                            fine_grained=True, batch_size=2, record_to=trace)
        counts = TraceReader(trace).footer.category_counts
        assert fine_grained_event_count(counts) > 0
        replayed = replay_trace(trace, tools=[KernelFrequencyTool()])
        assert json_roundtrip(replayed.reports()) == json_roundtrip(live.reports())

    def test_replay_with_other_analysis_model_changes_overhead(self, tmp_path):
        trace = tmp_path / "t.pastatrace"
        api.run("alexnet", device="a100", tools=(), batch_size=2, record_to=trace)
        gpu = replay_trace(trace).reports()["overhead"]
        cpu = replay_trace(trace, analysis_model="cpu_side").reports()["overhead"]
        assert gpu["analysis_model"] == "gpu_resident"
        assert cpu["analysis_model"] == "cpu_side"
        assert cpu["normalized_overhead"] > gpu["normalized_overhead"]
        assert cpu["kernels"] == gpu["kernels"] > 0

    def test_replay_range_filter_matches_live(self, tmp_path):
        from repro.core.annotations import RangeFilter

        trace = tmp_path / "t.pastatrace"
        window = RangeFilter()
        window.set_grid_window(0, 4)
        live = api.run("alexnet", device="a100", tools=[KernelFrequencyTool()],
                            batch_size=2, range_filter=window, record_to=trace)
        # The tap records upstream of the range filter, so the full stream is
        # on disk and any window can be re-applied offline.
        replay_window = RangeFilter()
        replay_window.set_grid_window(0, 4)
        replayed = replay_trace(trace, tools=[KernelFrequencyTool()],
                                range_filter=replay_window)
        assert json_roundtrip(replayed.reports()) == json_roundtrip(live.reports())

    def test_fine_grained_tool_on_coarse_trace_raises(self, tmp_path):
        class FineTool(KernelFrequencyTool):
            tool_name = "needs_fine"
            requires_fine_grained = True

        trace = tmp_path / "coarse.pastatrace"
        api.run("alexnet", device="a100", tools=(), batch_size=2, record_to=trace)
        with pytest.raises(TraceError, match="fine-grained"):
            replay_trace(trace, tools=[FineTool()])
        # A fine-grained recording accepts the same tool.
        fine = tmp_path / "fine.pastatrace"
        api.run("alexnet", device="a100", tools=(), fine_grained=True,
                     batch_size=2, record_to=fine)
        assert replay_trace(fine, tools=[FineTool()]).events_replayed > 0

    def test_crashed_recording_is_marked_incomplete(self, tmp_path, a100_runtime):
        # The session only taps the writer; the writer's owner (this test
        # here, the runner in a profile) aborts it when the body raises.
        trace = tmp_path / "t.pastatrace"
        with pytest.raises(RuntimeError):
            with TraceWriter(trace, make_header()) as writer:
                session = PastaSession(a100_runtime, trace_writer=writer)
                with session:
                    session.begin_region("r")
                    raise RuntimeError("workload died")
        reader = TraceReader(trace)
        assert reader.footer.complete is False
        assert "workload died" in reader.footer.abort_reason
        assert reader.verify()  # what was written is internally consistent
        with pytest.raises(TraceError, match="incomplete"):
            list(reader.events())
        with pytest.raises(TraceError, match="incomplete"):
            replay_trace(trace)
        partial = TraceReader(trace, allow_incomplete=True)
        assert [e.label for e in partial.events()] == ["r"]

    def test_tool_failure_mid_run_leaves_an_incomplete_trace(self, tmp_path):
        class ExplodingTool(KernelFrequencyTool):
            tool_name = "exploding"

            def on_kernel_launch(self, event):
                super().on_kernel_launch(event)
                if self.total_launches == 3:
                    raise RuntimeError("tool died mid-run")

        trace = tmp_path / "t.pastatrace"
        spec = api.ProfileSpec(model="alexnet", batch_size=2)
        with pytest.raises(RuntimeError, match="tool died"):
            api.execute(spec, extra_tools=[ExplodingTool()], record_to=trace)
        partial = TraceReader(trace, allow_incomplete=True)
        assert partial.footer.complete is False
        assert partial.footer.abort_reason == "RuntimeError: tool died mid-run"
        assert partial.footer.category_counts["kernel_launch"] == 3
        assert partial.verify()
        with pytest.raises(TraceError, match="incomplete"):
            list(TraceReader(trace).events())

    def test_session_trace_lifecycle(self, tmp_path, a100_runtime):
        trace = tmp_path / "t.pastatrace"
        with TraceWriter(trace, make_header(workload={"note": "unit"})) as writer:
            session = PastaSession(a100_runtime, tools=[KernelFrequencyTool()],
                                   trace_writer=writer)
            assert session.trace_path == trace
            with session:
                assert session.is_recording
                session.begin_region("r")
                session.end_region("r")
        assert not session.is_recording
        reader = TraceReader(trace)
        assert reader.header.workload == {"note": "unit"}
        assert reader.footer.category_counts == {"region_start": 1, "region_stop": 1}
        assert reader.verify()


# --------------------------------------------------------------------------- #
# reports() duplicate-name regression (satellite)
# --------------------------------------------------------------------------- #
class TestDuplicateToolNames:
    def test_session_rejects_duplicate_tool_names(self, a100_runtime):
        with pytest.raises(PastaError, match="distinct tool_name"):
            PastaSession(a100_runtime,
                         tools=[KernelFrequencyTool(), KernelFrequencyTool()])

    def test_collect_reports_rejects_duplicates(self):
        with pytest.raises(PastaError, match="distinct tool_name"):
            collect_reports([KernelFrequencyTool(), KernelFrequencyTool()])

    def test_collect_reports_rejects_overhead_collision(self):
        from repro.core.overhead import OverheadAccountant
        from repro.gpusim.device import A100

        class Impostor(KernelFrequencyTool):
            tool_name = "overhead"

        accountant = OverheadAccountant(device_spec=A100)
        with pytest.raises(PastaError, match="overhead"):
            collect_reports([Impostor()], accountant)
        # Without an accountant the name is legal.
        assert "overhead" in collect_reports([Impostor()], None)

    def test_replayer_rejects_duplicates_before_replaying(self, tmp_path):
        trace = tmp_path / "t.pastatrace"
        with TraceWriter(trace, make_header()) as writer:
            writer.write(MemcpyEvent(size=1))
        with pytest.raises(PastaError, match="distinct tool_name"):
            replay_trace(trace, tools=[KernelFrequencyTool(), KernelFrequencyTool()])


# --------------------------------------------------------------------------- #
# spec-driven record/replay helpers
# --------------------------------------------------------------------------- #
class TestJobTraceHelpers:
    def test_workload_signature_ignores_analysis_fields(self):
        base = {"model": "alexnet", "device": "a100", "mode": "inference",
                "iterations": 1, "batch_size": 2, "backend": None,
                "fine_grained": False}
        a = workload_signature({**base, "tools": ["kernel_frequency"],
                                    "analysis_model": "gpu_resident"})
        b = workload_signature({**base, "tools": ["hotness", "memory_timeline"],
                                    "analysis_model": "cpu_side",
                                    "knobs": {"start_grid_id": 0}})
        assert a == b
        c = workload_signature({**base, "device": "rtx3060"})
        assert c != a

    def test_execute_payload_can_emit_a_trace(self, tmp_path):
        from repro.api import execute_payload

        trace = tmp_path / "job.pastatrace"
        payload = {"model": "alexnet", "batch_size": 2, "tools": ["kernel_frequency"]}
        record = execute_payload(payload, record_to=trace)
        assert record["execution"] == "simulate"
        replayed = replay_trace(trace, tools=[KernelFrequencyTool()])
        assert json_roundtrip(replayed.reports()) == record["reports"]

    def test_record_then_replay_payload(self, tmp_path):
        trace = tmp_path / "job.pastatrace"
        payload = {"model": "alexnet", "device": "a100", "batch_size": 2,
                   "tools": ["kernel_frequency"], "analysis_model": "gpu_resident"}
        summary = record_workload_trace(payload, trace)
        assert summary["model"] == "alexnet" and summary["kernel_launches"] > 0
        record = replay_payload(payload, trace, summary)
        assert record["status"] == "ok"
        assert record["execution"] == "replay"
        assert record["summary"] == summary
        assert "kernel_frequency" in record["reports"]
        assert "overhead" in record["reports"]


# --------------------------------------------------------------------------- #
# in-memory recordings: replayed as they are, saved only on request
# --------------------------------------------------------------------------- #
class TestMemoryTrace:
    SPECS = {
        "resnet18_fine": ProfileSpec(
            model="resnet18", mode="train", batch_size=2, fine_grained=True,
            tools=("access_histogram", "memory_characteristics", "kernel_frequency"),
        ),
        "megatron_tp2": ProfileSpec(
            model="megatron_gpt2_345m", mode="train", batch_size=1,
            tools=("kernel_frequency", "memory_characteristics"),
            parallelism=ParallelismSpec("tp", world_size=2),
        ),
    }

    @pytest.fixture(scope="class", params=sorted(SPECS))
    def recorded(self, request, tmp_path_factory):
        spec = self.SPECS[request.param]
        trace = MemoryTrace()
        live = stable_json_dumps(api.execute(spec, record_to=trace).reports())
        path = tmp_path_factory.mktemp("memory") / f"{request.param}.pastatrace"
        trace.save(path)  # before any replay could touch the events
        return spec, trace, path, live

    def test_replay_matches_the_saved_file_and_the_live_run(self, recorded):
        spec, trace, path, live = recorded
        from_memory = stable_json_dumps(api.replay(trace, spec).reports())
        assert from_memory == stable_json_dumps(api.replay(path, spec).reports())
        assert from_memory == live

    def test_replaying_twice_gives_the_same_bytes(self, recorded):
        spec, trace, _, _ = recorded
        first = stable_json_dumps(api.replay(trace, spec).reports())
        assert stable_json_dumps(api.replay(trace, spec).reports()) == first

    def test_saved_trace_verifies_and_decodes_to_the_same_events(self, recorded):
        _, trace, path, _ = recorded
        reader = TraceReader(path)
        assert reader.verify()
        assert reader.footer.complete
        decoded = [encode_event(event) for event in reader.events()]
        assert decoded == [encode_event(event) for event in trace.events()]
        assert len(decoded) > 0


class _ProgressLog:
    """A progress bus that keeps every record in memory."""

    enabled = True

    def __init__(self):
        self.records = []

    def emit(self, kind, **fields):
        self.records.append({"type": kind, **fields})


# --------------------------------------------------------------------------- #
# campaign replay execution mode (the acceptance criterion)
# --------------------------------------------------------------------------- #
class TestCampaignReplayMode:
    #: One workload, two tool sets: a replay-mode group of two jobs.
    GRID = dict(name="grid", models=["alexnet"], devices=["a100"], batch_size=2,
                tools=["kernel_frequency", "hotness"])
    def _counting_execute(self, monkeypatch):
        calls = {"n": 0}
        original = api_runner.execute

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(api_runner, "execute", counting)
        return calls

    def test_replay_mode_simulates_each_workload_once(self, monkeypatch):
        calls = self._counting_execute(monkeypatch)
        spec = CampaignSpec(
            name="replay-acceptance",
            models=["alexnet"],
            devices=["a100"],
            tools=["kernel_frequency", "memory_characteristics", "hotness"],
            analysis_models=["gpu_resident", "cpu_side"],
            batch_size=2,
            execution="replay",
        )
        assert spec.job_count() == 6  # >= 3 tool configs of one workload
        result = CampaignScheduler().run(spec)
        assert result.execution == "replay"
        assert result.failed == 0
        assert result.executed == 6
        assert calls["n"] == 1  # the simulation ran exactly once
        assert result.workloads_recorded == 1
        for record in result.records():
            assert record["execution"] == "replay"
            assert record["reports"]["overhead"]["kernels"] > 0

    def test_replay_records_match_simulate_records(self, monkeypatch):
        # Tools whose reports embed the runtime's device index (e.g.
        # memory_timeline) are excluded: that label comes from a global
        # per-process runtime counter, so it differs between any two separate
        # simulations regardless of execution mode.
        spec = CampaignSpec(
            name="parity", models=["alexnet"], devices=["a100"], batch_size=2,
            tools=["kernel_frequency"], analysis_models=["gpu_resident", "cpu_side"],
        )
        simulate = CampaignScheduler().run(spec)
        spec.execution = "replay"
        replayed = CampaignScheduler().run(spec)
        assert simulate.failed == replayed.failed == 0
        for sim, rep in zip(simulate.records(), replayed.records()):
            assert sim["job"] == rep["job"]
            assert sim["summary"] == rep["summary"]
            assert sim["reports"] == rep["reports"]

    def test_replay_mode_groups_distinct_workloads(self, monkeypatch):
        calls = self._counting_execute(monkeypatch)
        spec = CampaignSpec(
            name="two-workloads", models=["alexnet"], devices=["a100", "rtx3060"],
            tools=["kernel_frequency", "memory_timeline"], batch_size=2,
            execution="replay",
        )
        result = CampaignScheduler().run(spec)
        assert result.failed == 0
        assert result.total == 4
        assert calls["n"] == 2  # one simulation per device
        assert result.workloads_recorded == 2

    def test_replay_mode_respects_cache(self, tmp_path, monkeypatch):
        from repro.campaign import ResultCache

        calls = self._counting_execute(monkeypatch)
        spec = CampaignSpec(
            name="cached-replay", models=["alexnet"], devices=["a100"],
            tools=["kernel_frequency", "hotness"], batch_size=2, execution="replay",
        )
        cache = ResultCache(tmp_path / "cache")
        first = CampaignScheduler(cache=cache).run(spec)
        assert first.executed == 2 and calls["n"] == 1
        second = CampaignScheduler(cache=cache).run(spec)
        assert second.cached == 2 and second.executed == 0
        assert calls["n"] == 1  # nothing re-simulated on the second run
        assert second.workloads_recorded == 0

    def test_replay_mode_keeps_traces_in_trace_dir(self, tmp_path):
        spec = CampaignSpec(
            name="keep-traces", models=["alexnet"], devices=["a100"],
            tools=["kernel_frequency"], batch_size=2, execution="replay",
        )
        result = CampaignScheduler(trace_dir=tmp_path / "traces").run(spec)
        assert result.failed == 0
        traces = sorted((tmp_path / "traces").glob("*.pastatrace"))
        assert len(traces) == 1
        assert TraceReader(traces[0]).verify()

    def test_recording_failure_fails_whole_group(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("simulator exploded")

        monkeypatch.setattr(api_runner, "execute", broken)
        spec = CampaignSpec(
            name="broken", models=["alexnet"], devices=["a100"],
            tools=["kernel_frequency", "hotness"], execution="replay",
        )
        result = CampaignScheduler().run(spec)
        assert result.failed == result.total == 2
        assert all("workload recording failed" in o.error for o in result.failures())

    def test_unknown_tool_fails_only_its_own_job(self):
        jobs = CampaignSpec(
            name="bad-tool", models=["alexnet"], devices=["a100"], batch_size=2,
            tools=["no_such_tool", "kernel_frequency"], execution="replay",
        )
        result = CampaignScheduler().run(jobs)
        assert result.total == 2
        assert result.failed == 1
        assert result.executed == 1
        assert "no_such_tool" in result.failures()[0].error

    def test_recovered_recording_reports_like_simulate_mode(self, tmp_path, monkeypatch):
        simulated = CampaignScheduler().run(CampaignSpec(**self.GRID))
        original = api_runner.execute
        calls = {"n": 0}

        def fails_once(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient simulator failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(api_runner, "execute", fails_once)
        cache, progress = ResultCache(tmp_path / "cache"), _ProgressLog()
        replayed = CampaignScheduler(retries=1, cache=cache, progress=progress).run(
            CampaignSpec(**self.GRID, execution="replay"))
        assert replayed.failed == 0 and replayed.workloads_recorded == 1
        for outcome, reference in zip(replayed.outcomes, simulated.outcomes):
            assert outcome.record["summary"] == reference.record["summary"]
            assert cache.get(outcome.digest)["summary"] == reference.record["summary"]
            assert outcome.attempts == 2
            assert [entry["attempt"] for entry in outcome.errors] == [1]
            assert "transient simulator failure" in outcome.errors[0]["error"]
        retried = [r for r in progress.records if r.get("event") == "retried"]
        assert sorted(r["index"] for r in retried) == [0, 1]

    def test_retried_recording_starts_from_an_empty_trace(self, monkeypatch):
        simulated = CampaignScheduler().run(CampaignSpec(**self.GRID))
        original = ExecutionEngine.run_inference
        calls = {"n": 0}

        def runs_then_fails_once(engine, *args, **kwargs):
            summary = original(engine, *args, **kwargs)  # every event is recorded
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("failed after the events were recorded")
            return summary

        monkeypatch.setattr(ExecutionEngine, "run_inference", runs_then_fails_once)
        replayed = CampaignScheduler(retries=1).run(CampaignSpec(**self.GRID, execution="replay"))
        assert replayed.failed == 0 and calls["n"] == 2
        for outcome, reference in zip(replayed.outcomes, simulated.outcomes):
            assert outcome.attempts == 2
            assert outcome.record["summary"] == reference.record["summary"]
        # A retry that kept the failed attempt's events would double counts.
        kernel_frequency = replayed.outcomes[0].record["reports"]["kernel_frequency"]
        assert kernel_frequency == simulated.outcomes[0].record["reports"]["kernel_frequency"]

    def test_exhausted_recording_reports_the_backoff_it_slept_once(self, monkeypatch):
        naps = []
        monkeypatch.setattr(scheduler_module, "_sleep", naps.append)

        def broken(*args, **kwargs):
            raise RuntimeError("simulator exploded")

        monkeypatch.setattr(api_runner, "execute", broken)
        result = CampaignScheduler(retries=2, backoff_s=0.5).run(
            CampaignSpec(**self.GRID, execution="replay"))
        assert result.failed == result.total == 2
        assert len(naps) == 2 and sum(naps) >= 1.0
        for outcome in result.outcomes:
            assert outcome.attempts == 3 and len(outcome.errors) == 3
        assert result.outcomes[0].backoff_s == pytest.approx(sum(naps))
        assert result.summary()["backoff_s"] == pytest.approx(sum(naps), abs=1e-6)
        assert result.workloads_recorded == 0

    def test_failed_simulations_are_not_counted_as_recorded(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("simulator exploded")

        monkeypatch.setattr(api_runner, "execute", broken)
        plain = ProfileSpec(model="alexnet", batch_size=2, tools=("kernel_frequency",))
        jobs = [plain, plain.with_record(tmp_path / "job.pastatrace")]
        result = CampaignScheduler(execution="replay").run(jobs)
        assert result.failed == 2
        assert result.workloads_recorded == 0

    def test_without_trace_dir_nothing_is_encoded(self, monkeypatch):
        def refuse(writer, event):
            raise AssertionError("an event was encoded")

        monkeypatch.setattr(TraceWriter, "write", refuse)
        result = CampaignScheduler().run(CampaignSpec(**self.GRID, execution="replay"))
        assert result.failed == 0 and result.workloads_recorded == 1
        assert all(r["execution"] == "replay" for r in result.records())

    def test_workload_groups_run_on_a_process_pool(self):
        spec = CampaignSpec(**{**self.GRID, "devices": ["a100", "rtx3060"]},
                            execution="replay")
        result = CampaignScheduler(jobs=2, executor="process").run(spec)
        assert result.total == 4 and result.failed == 0
        assert result.workloads_recorded == 2
        assert [r["execution"] for r in result.records()] == ["replay"] * 4

    def test_timeout_applies_to_the_whole_group(self):
        plan = FaultPlan(rules=(
            FaultRule(site="scheduler.job", kind="slow", delay_s=3.0),))
        with faults_scope(FaultInjector(plan)):
            result = CampaignScheduler(timeout_s=0.5).run(
                CampaignSpec(**self.GRID, execution="replay"))
        assert [o.status for o in result.outcomes] == ["timeout", "timeout"]
        # The abandoned group keeps its worker thread until it finishes;
        # wait for it so it cannot overlap later tests.
        for thread in threading.enumerate():
            if thread.name.startswith("pasta-campaign"):
                thread.join(timeout=60)

    def test_scheduler_validates_execution(self):
        with pytest.raises(Exception):
            CampaignScheduler(execution="teleport")
        with pytest.raises(Exception):
            CampaignSpec(name="x", models=["alexnet"], execution="teleport")

    def test_spec_execution_round_trips_through_json(self):
        spec = CampaignSpec(name="x", models=["alexnet"], execution="replay")
        clone = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.execution == "replay"
