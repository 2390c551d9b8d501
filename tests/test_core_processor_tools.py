"""Tests for the event processor, dispatch unit, tool template and registry."""

from __future__ import annotations

import pytest

from repro.errors import AnnotationError, ToolError
from repro.core.annotations import RangeFilter
from repro.core.events import (
    EventCategory,
    KernelArgumentInfo,
    KernelLaunchEvent,
    KernelMemoryProfile,
    RegionEvent,
    TensorAllocEvent,
)
from repro.core.processor import PastaEventProcessor
from repro.core.registry import (
    PASTA_TOOL_ENV,
    create_tool,
    register_tool,
    registered_tools,
    select_tool,
)
from repro.core.tool import PastaTool


class CountingTool(PastaTool):
    """Counts events per category; subscribes to everything."""

    tool_name = "counting_tool"

    def __init__(self) -> None:
        super().__init__()
        self.by_category: dict[EventCategory, int] = {}

    def handle_event(self, event) -> None:  # type: ignore[override]
        self.by_category[event.category] = self.by_category.get(event.category, 0) + 1
        super().handle_event(event)


class KernelOnlyTool(PastaTool):
    tool_name = "kernel_only_tool"
    subscribed_categories = frozenset({EventCategory.KERNEL_LAUNCH})

    def __init__(self) -> None:
        super().__init__()
        self.kernels: list[str] = []

    def on_kernel_launch(self, event: KernelLaunchEvent) -> None:
        self.kernels.append(event.kernel_name)


def make_launch_event(grid_index=0, arguments=(), name="k", accesses=0):
    return KernelLaunchEvent(
        kernel_name=name,
        launch_id=grid_index + 1,
        grid_index=grid_index,
        total_memory_accesses=accesses,
        arguments=tuple(arguments),
    )


class TestDispatchAndSubscriptions:
    def test_events_reach_subscribed_tools_only(self):
        processor = PastaEventProcessor()
        counting, kernel_only = CountingTool(), KernelOnlyTool()
        processor.register_tool(counting)
        processor.register_tool(kernel_only)
        processor.submit(make_launch_event())
        processor.submit(TensorAllocEvent(nbytes=4))
        assert counting.by_category[EventCategory.KERNEL_LAUNCH] == 1
        assert counting.by_category[EventCategory.TENSOR_ALLOC] == 1
        assert kernel_only.kernels == ["k"]
        assert kernel_only.events_received == 1

    def test_overridden_hooks_are_called(self):
        tool = KernelOnlyTool()
        tool.handle_event(make_launch_event(name="special"))
        assert tool.kernels == ["special"]

    def test_hook_patched_after_construction_takes_effect(self):
        tool = KernelOnlyTool()
        seen: list[str] = []

        def patched(event: KernelLaunchEvent) -> None:
            seen.append(event.kernel_name)

        tool.on_kernel_launch = patched  # type: ignore[method-assign]
        tool.handle_event(make_launch_event(name="patched"))
        assert seen == ["patched"] and tool.kernels == []

    def test_unregister_tool(self):
        processor = PastaEventProcessor()
        tool = KernelOnlyTool()
        processor.register_tool(tool)
        processor.unregister_tool(tool)
        processor.submit(make_launch_event())
        assert tool.kernels == []

    def test_default_report(self):
        tool = CountingTool()
        assert tool.report()["tool"] == "counting_tool"


class TestGpuPreprocessing:
    def test_kernel_memory_profile_is_synthesised(self):
        processor = PastaEventProcessor()
        received: list[KernelMemoryProfile] = []

        class ProfileTool(PastaTool):
            tool_name = "profile_tool"
            subscribed_categories = frozenset({EventCategory.KERNEL_MEMORY_PROFILE})

            def on_kernel_memory_profile(self, event):
                received.append(event)

        processor.register_tool(ProfileTool())
        args = (
            KernelArgumentInfo(address=0x1000, size=1000, referenced_bytes=500, access_count=100),
            KernelArgumentInfo(address=0x9000, size=2000, referenced_bytes=0, access_count=0),
        )
        processor.submit(make_launch_event(arguments=args, accesses=100))
        assert len(received) == 1
        profile = received[0]
        assert profile.footprint_bytes == 3000
        assert profile.working_set_bytes == 500
        assert profile.total_accesses == 100
        # Only the referenced argument appears in the access-count map.
        assert profile.accessed_object_count == 1

    def test_address_resolver_attributes_to_objects(self):
        objects = {0x1000: (42, 4096)}
        processor = PastaEventProcessor(address_resolver=lambda addr: objects.get(addr))
        received = []

        class ProfileTool(PastaTool):
            tool_name = "profile_tool2"
            subscribed_categories = frozenset({EventCategory.KERNEL_MEMORY_PROFILE})

            def on_kernel_memory_profile(self, event):
                received.append(event)

        processor.register_tool(ProfileTool())
        args = (KernelArgumentInfo(address=0x1000, size=4096, referenced_bytes=4096, access_count=10),)
        processor.submit(make_launch_event(arguments=args))
        assert list(received[0].object_access_counts) == [42]

    def test_no_profile_without_interested_tools(self):
        processor = PastaEventProcessor()
        processor.register_tool(KernelOnlyTool())
        processor.submit(make_launch_event())
        assert processor.gpu_preprocessed_kernels == 0


class TestRangeFilter:
    def test_grid_window(self):
        filt = RangeFilter()
        filt.set_grid_window(2, 4)
        assert not filt.in_range(0)
        assert filt.in_range(2)
        assert filt.in_range(4)
        assert not filt.in_range(5)

    def test_invalid_window_rejected(self):
        with pytest.raises(AnnotationError):
            RangeFilter().set_grid_window(5, 2)

    def test_from_environment(self):
        filt = RangeFilter.from_environment({"START_GRID_ID": "10", "END_GRID_ID": "20"})
        assert filt.start_grid_id == 10 and filt.end_grid_id == 20
        assert filt.in_range(15)
        assert not filt.in_range(25)

    def test_annotation_regions_gate_analysis(self):
        filt = RangeFilter()
        assert filt.in_range(0)          # no annotations used yet: everything analysed
        filt.open_region("layer")
        assert filt.in_range(1)
        filt.close_region()
        assert not filt.in_range(2)      # annotations used, currently outside a region

    def test_unbalanced_stop_raises(self):
        with pytest.raises(AnnotationError):
            RangeFilter().close_region()

    def test_processor_applies_filter_to_kernels(self):
        filt = RangeFilter()
        filt.set_grid_window(1, 2)
        processor = PastaEventProcessor(range_filter=filt)
        tool = KernelOnlyTool()
        processor.register_tool(tool)
        for index in range(4):
            processor.submit(make_launch_event(grid_index=index, name=f"k{index}"))
        assert tool.kernels == ["k1", "k2"]
        assert processor.events_filtered == 2

    def test_processor_region_events_toggle_filter(self):
        processor = PastaEventProcessor()
        tool = KernelOnlyTool()
        processor.register_tool(tool)
        processor.submit(make_launch_event(grid_index=0, name="before"))
        processor.submit(RegionEvent(label="roi", starting=True))
        processor.submit(make_launch_event(grid_index=1, name="inside"))
        processor.submit(RegionEvent(label="roi", starting=False))
        processor.submit(make_launch_event(grid_index=2, name="after"))
        # "before" was analysed (no annotations yet); "after" is filtered out.
        assert tool.kernels == ["before", "inside"]


class TestToolRegistry:
    def test_builtin_tools_are_registered(self):
        import repro.tools  # noqa: F401  (import triggers registration)

        names = registered_tools()
        assert "kernel_frequency" in names
        assert "memory_characteristics" in names
        assert "hotness" in names

    def test_create_tool_by_name(self):
        import repro.tools  # noqa: F401

        tool = create_tool("kernel_frequency")
        assert tool.tool_name == "kernel_frequency"

    def test_unknown_tool_raises(self):
        with pytest.raises(ToolError):
            create_tool("definitely_not_registered")

    def test_duplicate_registration_rejected(self):
        import repro.tools  # noqa: F401

        with pytest.raises(ToolError):
            register_tool("kernel_frequency", CountingTool)

    def test_select_tool_via_environment(self):
        import repro.tools  # noqa: F401

        tool = select_tool(env={PASTA_TOOL_ENV: "memory_characteristics"})
        assert tool.tool_name == "memory_characteristics"
        with pytest.raises(ToolError):
            select_tool(env={})
