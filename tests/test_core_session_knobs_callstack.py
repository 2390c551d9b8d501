"""Tests for the PASTA session, annotations, knobs, call stacks and overhead accounting."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import AnnotationError, PastaError, VendorError
from repro.core.annotations import RangeFilter, _active_sessions
from repro.core.callstack import build_cross_layer_stack, synthesize_cpp_frames
from repro.core.events import EventCategory, KernelLaunchEvent
from repro.core.knobs import KernelStats, KnobRegistry
from repro.core.overhead import OverheadAccountant
from repro.core.serialization import stable_json_dumps
from repro.core.session import PROFILER_RESERVED_BYTES, PastaSession
from repro.core.tool import PastaTool
from repro import api, pasta
from repro.dlframework.context import FrameworkContext
from repro.dlframework.engine import ExecutionEngine
from repro.dlframework.models import create_model
from repro.gpusim.costmodel import InstrumentationBackend
from repro.gpusim.device import A100, RTX3060, MiB
from repro.gpusim.kernel import GridConfig, KernelArgument
from repro.gpusim.runtime import create_runtime
from repro.gpusim.trace import AnalysisModel
from repro.tools import AccessHistogramTool, KernelFrequencyTool, MemoryCharacteristicsTool
from repro.vendors import ComputeSanitizerBackend, NvbitBackend


class TestSessionLifecycle:
    def test_session_attaches_and_detaches(self, a100_runtime):
        session = PastaSession(a100_runtime, tools=[KernelFrequencyTool()])
        with session:
            assert session.is_active
            assert session.backend.is_attached
            assert a100_runtime.device.profiler_reserved_bytes == PROFILER_RESERVED_BYTES
        assert not session.is_active
        assert a100_runtime.device.profiler_reserved_bytes == 0

    def test_double_start_rejected(self, a100_runtime):
        session = PastaSession(a100_runtime)
        session.start()
        with pytest.raises(PastaError):
            session.start()
        session.stop()

    def test_backend_selection_by_name(self, a100_runtime):
        session = PastaSession(a100_runtime, vendor_backend="nvbit")
        assert isinstance(session.backend, NvbitBackend)
        with pytest.raises(VendorError):
            PastaSession(create_runtime(A100), vendor_backend="vtune")

    def test_default_backend_matches_vendor(self, a100_runtime, mi300x_runtime):
        assert isinstance(PastaSession(a100_runtime).backend, ComputeSanitizerBackend)
        assert PastaSession(mi300x_runtime).backend.name == "rocprofiler"

    def test_fine_grained_request_patches_sanitizer(self, a100_runtime):
        session = PastaSession(a100_runtime, enable_fine_grained=True)
        with session:
            assert session.backend.instruction_tracing_enabled

    def test_end_to_end_profiling_collects_tool_data(self, a100_runtime):
        ctx = FrameworkContext(a100_runtime)
        engine = ExecutionEngine(ctx)
        model = create_model("resnet18")
        freq = KernelFrequencyTool()
        mem = MemoryCharacteristicsTool()
        session = PastaSession(a100_runtime, tools=[freq, mem])
        session.attach_framework(ctx)
        with session:
            engine.prepare(model)
            engine.run_inference(model, batch_size=2)
        assert freq.total_launches > 50
        assert mem.working_set_bytes > 0
        assert mem.memory_footprint_bytes > mem.working_set_bytes
        reports = session.reports()
        assert "kernel_frequency" in reports and "overhead" in reports


class TestAnnotations:
    def test_pasta_start_stop_scope_analysis(self, a100_runtime):
        ctx = FrameworkContext(a100_runtime)
        engine = ExecutionEngine(ctx)
        model = create_model("alexnet")
        freq = KernelFrequencyTool()
        session = PastaSession(a100_runtime, tools=[freq])
        session.attach_framework(ctx)
        with session:
            engine.prepare(model)
            model.eval()
            inputs = model.make_example_inputs(ctx, 2)
            # Only the classifier region is annotated for analysis.
            features = model.features(ctx, inputs)
            pooled = model.avgpool(ctx, features)
            before = freq.total_launches
            pasta.start("classifier")
            model.classifier(ctx, pooled)
            pasta.stop("classifier")
            inside = freq.total_launches - before
            model.features(ctx, inputs)   # outside any region: not analysed
            after = freq.total_launches
        assert inside > 0
        assert after == before + inside

    def test_annotations_reach_every_started_session(self):
        class RegionCounter(PastaTool):
            tool_name = "region_counter"
            subscribed_categories = frozenset(
                {EventCategory.REGION_START, EventCategory.REGION_STOP}
            )

        counters = [RegionCounter(), RegionCounter()]
        sessions = [PastaSession(create_runtime(A100), tools=[tool]) for tool in counters]
        with sessions[0]:
            with sessions[1]:
                for _ in range(2):
                    pasta.start("iter")
                    pasta.stop("iter")
                assert [tool.events_received for tool in counters] == [4, 4]
                assert [s.processor.range_filter.annotations_used for s in sessions] == [True, True]
            # Stopping one rank's session leaves the other one annotated.
            pasta.start("iter")
            pasta.stop("iter")
        assert [tool.events_received for tool in counters] == [6, 4]

    def test_a_session_started_inside_a_region_ignores_its_stop(self):
        first, second = (PastaSession(create_runtime(A100)) for _ in range(2))
        with first:
            pasta.start("iter")
            with second:
                pasta.stop("iter")  # open on the first session only
                filters = [s.processor.range_filter for s in (first, second)]
                assert [f.region_depth for f in filters] == [0, 0]
                assert [f.annotations_used for f in filters] == [True, False]
                with pytest.raises(AnnotationError, match="without a matching"):
                    pasta.stop("iter")
                pasta.start("iter")
                pasta.stop("iter")
                assert [f.annotations_used for f in filters] == [True, True]

    def test_sessions_started_and_stopped_in_threads_leave_none_active(self):
        def cycle(runtime):
            for _ in range(50):
                with PastaSession(runtime):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(cycle, create_runtime(A100)) for _ in range(8)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert _active_sessions == []

    def test_annotations_are_noops_without_a_session(self):
        # Must not raise even though no session is active.
        pasta.start("anything")
        pasta.stop("anything")

    def test_region_filter_integration(self, a100_runtime):
        session = PastaSession(a100_runtime, tools=[KernelFrequencyTool()])
        with session:
            session.begin_region("roi")
            assert session.processor.range_filter.region_depth == 1
            session.end_region("roi")
            assert session.processor.range_filter.region_depth == 0

    def test_grid_window_via_range_filter(self, a100_runtime):
        freq = KernelFrequencyTool()
        filt = RangeFilter(start_grid_id=0, end_grid_id=9)
        ctx = FrameworkContext(a100_runtime)
        engine = ExecutionEngine(ctx)
        model = create_model("alexnet")
        session = PastaSession(a100_runtime, tools=[freq], range_filter=filt)
        session.attach_framework(ctx)
        with session:
            engine.prepare(model)
            engine.run_inference(model, batch_size=2)
        assert freq.total_launches == 10


class TestRangeFiltersGateDeviceRecords:
    """A launch's device records share its range decision, live and replayed."""

    def test_grid_window_live_and_replay(self, tmp_path):
        trace = tmp_path / "window.pastatrace"
        live = api.run("alexnet", device="a100", batch_size=2, fine_grained=True,
                       tools=["access_histogram", "kernel_frequency"],
                       knobs={"start_grid_id": 0, "end_grid_id": 1}, record_to=trace)
        reports = live.reports()
        assert reports["kernel_frequency"]["total_launches"] == 2
        assert reports["access_histogram"]["instrumented_launches"] == 2
        replayed = api.replay(trace, live.spec)
        assert stable_json_dumps(replayed.reports()) == stable_json_dumps(reports)

    def test_annotation_region(self, a100_runtime):
        histogram, freq = AccessHistogramTool(), KernelFrequencyTool()
        session = PastaSession(a100_runtime, tools=[histogram, freq])
        obj = a100_runtime.malloc(1 * MiB)
        args = [KernelArgument(address=obj.address, size=obj.size, accesses_per_byte=0.01)]
        grid = GridConfig.for_elements(256)
        with session:
            a100_runtime.launch_kernel("before", grid, arguments=args)
            pasta.start("roi")
            a100_runtime.launch_kernel("inside", grid, arguments=args)
            pasta.stop("roi")
            a100_runtime.launch_kernel("after", grid, arguments=args)
        assert freq.total_launches == 2
        assert histogram.report()["instrumented_launches"] == 2
        # The rejected launch plus its three batches (entry markers,
        # accesses, exit markers).
        assert session.processor.events_filtered == 4


class TestKnobsAndCallstack:
    def test_knob_registry_selection(self):
        stats = {
            "gemm": KernelStats("gemm", invocation_count=10, total_memory_accesses=1000),
            "copy": KernelStats("copy", invocation_count=50, total_memory_accesses=10),
        }
        registry = KnobRegistry()
        assert registry.select("MAX_MEM_REFERENCED_KERNEL", stats).kernel_name == "gemm"
        assert registry.select("MAX_CALLED_KERNEL", stats).kernel_name == "copy"
        assert registry.select("MAX_CALLED_KERNEL", {}) is None
        with pytest.raises(PastaError):
            registry.select("NOT_A_KNOB", stats)

    def test_custom_knob_registration(self):
        registry = KnobRegistry()
        registry.register("SHORTEST_NAME_KERNEL", lambda s: min(s.values(), key=lambda k: len(k.kernel_name)) if s else None)
        stats = {"a": KernelStats("a"), "long_kernel": KernelStats("long_kernel")}
        assert registry.select("shortest_name_kernel", stats).kernel_name == "a"
        assert "SHORTEST_NAME_KERNEL" in registry.names()

    def test_cpp_frames_match_kernel_family(self):
        frames = synthesize_cpp_frames("ampere_sgemm_128x64_tn")
        rendered = " ".join(f.render() for f in frames)
        assert "gemm_and_bias" in rendered
        assert "__libc_start_main" in rendered

    def test_cross_layer_stack_combines_both_languages(self):
        stack = build_cross_layer_stack(
            "at::cuda::blas::gemm_and_bias",
            ("torch/nn/modules/linear.py:114 def forward()",
             "models/bert/run_bert.py:146 def test_bert()"),
        )
        languages = {frame.language for frame in stack.frames}
        assert languages == {"c++", "python"}
        text = stack.render()
        assert "linear.py" in text and "CUDABlas.cpp" in text

    def test_unknown_kernel_gets_generic_backtrace(self):
        frames = synthesize_cpp_frames("my_custom_kernel_v2")
        assert any("Dispatcher" in f.function for f in frames)


class TestOverheadAccountant:
    def test_accumulates_cost_per_kernel(self):
        accountant = OverheadAccountant(device_spec=A100)
        event = KernelLaunchEvent(kernel_name="k", duration_ns=1_000_000, total_memory_accesses=1_000_000)
        accountant.record_kernel(event)
        accountant.record_kernel(event)
        assert accountant.kernels_recorded == 2
        assert accountant.cost.execution_ns == 2_000_000
        assert accountant.normalized_overhead() > 0

    def test_cpu_side_nvbit_is_the_most_expensive(self):
        event = KernelLaunchEvent(kernel_name="k", duration_ns=1_000_000, total_memory_accesses=10_000_000)
        costs = {}
        for backend in (InstrumentationBackend.COMPUTE_SANITIZER, InstrumentationBackend.NVBIT):
            for model in (AnalysisModel.GPU_RESIDENT, AnalysisModel.CPU_SIDE):
                accountant = OverheadAccountant(device_spec=RTX3060, analysis_model=model, backend=backend)
                accountant.record_kernel(event)
                costs[(backend, model)] = accountant.cost.overhead_ns
        assert costs[(InstrumentationBackend.NVBIT, AnalysisModel.CPU_SIDE)] == max(costs.values())
        assert costs[(InstrumentationBackend.COMPUTE_SANITIZER, AnalysisModel.GPU_RESIDENT)] == min(costs.values())

    def test_report_structure(self):
        accountant = OverheadAccountant(device_spec=A100)
        report = accountant.report()
        assert report["device"] == A100.name
        assert set(report["fractions"]) == {"execution", "collection", "transfer", "analysis"}
