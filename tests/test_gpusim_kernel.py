"""Tests for kernel launches, grid configs and access-trace generation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import KernelError
from repro.gpusim.instruction import InstructionKind
from repro.gpusim.kernel import (
    Dim3,
    GridConfig,
    KernelArgument,
    KernelLaunch,
    estimate_kernel_duration_ns,
)


def make_launch(args, grid=None) -> KernelLaunch:
    return KernelLaunch(
        kernel_name="test_kernel",
        grid_config=grid or GridConfig(grid=Dim3(4), block=Dim3(128)),
        arguments=tuple(args),
        duration_ns=1000,
    )


class TestDim3AndGrid:
    def test_dim3_total(self):
        assert Dim3(2, 3, 4).total == 24

    def test_dim3_rejects_zero(self):
        with pytest.raises(KernelError):
            Dim3(0)

    def test_grid_totals(self):
        cfg = GridConfig(grid=Dim3(10), block=Dim3(256))
        assert cfg.total_blocks == 10
        assert cfg.threads_per_block == 256
        assert cfg.total_threads == 2560

    def test_for_elements_ceil_division(self):
        cfg = GridConfig.for_elements(1000, threads_per_block=256)
        assert cfg.grid.x == 4
        assert cfg.total_threads >= 1000

    def test_for_elements_rejects_non_positive(self):
        with pytest.raises(KernelError):
            GridConfig.for_elements(0)


class TestKernelArgument:
    def test_referenced_bytes_and_access_count(self):
        arg = KernelArgument(address=0x1000, size=1000, accessed_fraction=0.5,
                             accesses_per_byte=1.0)
        assert arg.referenced_bytes == 500
        assert arg.access_count == 500

    def test_unreferenced_argument_has_no_accesses(self):
        arg = KernelArgument(address=0x1000, size=1000, accessed_fraction=0.0)
        assert arg.referenced_bytes == 0
        assert arg.access_count == 0

    def test_validation(self):
        with pytest.raises(KernelError):
            KernelArgument(address=0, size=-1)
        with pytest.raises(KernelError):
            KernelArgument(address=0, size=10, accessed_fraction=1.5)
        with pytest.raises(KernelError):
            KernelArgument(address=0, size=10, accesses_per_byte=-0.1)


class TestKernelLaunchMetrics:
    def test_footprint_working_set_and_accesses(self):
        args = [
            KernelArgument(address=0x1000, size=1000, accessed_fraction=1.0, accesses_per_byte=1.0),
            KernelArgument(address=0x10000, size=2000, accessed_fraction=0.5, accesses_per_byte=1.0),
            KernelArgument(address=0x20000, size=4000, accessed_fraction=0.0),
        ]
        launch = make_launch(args)
        assert launch.memory_footprint_bytes == 7000
        assert launch.working_set_bytes == 2000
        assert launch.total_memory_accesses == 2000
        assert len(launch.accessed_arguments()) == 2

    def test_working_set_never_exceeds_footprint(self):
        args = [KernelArgument(address=0x1000, size=4096, accessed_fraction=0.7)]
        launch = make_launch(args)
        assert launch.working_set_bytes <= launch.memory_footprint_bytes

    def test_launch_ids_are_unique_and_increasing(self):
        a = make_launch([])
        b = make_launch([])
        assert b.launch_id > a.launch_id


class TestTraceGeneration:
    def test_accesses_respect_budget(self):
        args = [KernelArgument(address=0x1000, size=1 << 20, accesses_per_byte=1.0)]
        launch = make_launch(args)
        columns = launch.generate_access_columns(max_records=100)
        assert len(columns.addresses) == 100
        assert len(launch.generate_instruction_batch(max_records=100).addresses) == 100

    def test_accesses_fall_inside_arguments(self):
        args = [
            KernelArgument(address=0x100000, size=4096, accesses_per_byte=1.0),
            KernelArgument(address=0x200000, size=4096, accesses_per_byte=1.0),
        ]
        launch = make_launch(args)
        addresses = launch.generate_access_columns(max_records=500).addresses.tolist()
        assert addresses
        for address in addresses:
            inside = any(a.address <= address < a.address + a.size for a in args)
            assert inside

    def test_trace_is_deterministic(self):
        args = [KernelArgument(address=0x1000, size=65536, accesses_per_byte=0.5)]
        launch = make_launch(args)
        first = launch.generate_access_columns(max_records=64)
        second = launch.generate_access_columns(max_records=64)
        for a, b in zip(first, second):
            assert a.tolist() == b.tolist()
        first_batch = launch.generate_instruction_batch(max_records=64)
        second_batch = launch.generate_instruction_batch(max_records=64)
        # Dataclass == is ambiguous on array columns: compare field by field.
        for field in dataclasses.fields(first_batch):
            assert np.array_equal(getattr(first_batch, field.name),
                                  getattr(second_batch, field.name)), field.name

    def test_no_accesses_for_empty_arguments(self):
        launch = make_launch([])
        assert len(launch.generate_access_columns().addresses) == 0
        assert launch.generate_instruction_batch().access_count == 0

    def test_write_flags_follow_argument_direction(self):
        read_only = make_launch(
            [KernelArgument(address=0x1000, size=4096, is_read=True, is_written=False,
                            accesses_per_byte=1.0)]
        )
        flags = read_only.generate_access_columns(max_records=64).write_flags.tolist()
        assert flags and not any(flags)
        write_only = make_launch(
            [KernelArgument(address=0x1000, size=4096, is_read=False, is_written=True,
                            accesses_per_byte=1.0)]
        )
        flags = write_only.generate_access_columns(max_records=64).write_flags.tolist()
        assert flags and all(flags)

    def test_instruction_stream_contains_block_markers_and_accesses(self):
        launch = make_launch(
            [KernelArgument(address=0x1000, size=4096, accesses_per_byte=1.0)],
            grid=GridConfig(grid=Dim3(2), block=Dim3(64)),
        )
        batch = launch.generate_instruction_batch(max_records=32)
        assert batch.pre_kinds == (InstructionKind.BLOCK_ENTRY,) * 2
        assert batch.post_kinds == (InstructionKind.BLOCK_EXIT,) * 2
        assert batch.access_count > 0
        assert len(batch) == 4 + batch.access_count


class TestDurationEstimate:
    def test_memory_bound_kernel(self):
        # Huge bytes, negligible flops: duration tracks bandwidth.
        ns = estimate_kernel_duration_ns(flop_count=1.0, bytes_moved=2e9,
                                         device_tflops=20.0, device_bandwidth_gbs=2000.0)
        assert ns == pytest.approx(4_000 + 1e6, rel=0.01)

    def test_compute_bound_kernel(self):
        ns = estimate_kernel_duration_ns(flop_count=2e12, bytes_moved=1.0,
                                         device_tflops=20.0, device_bandwidth_gbs=2000.0)
        assert ns == pytest.approx(4_000 + 1e8, rel=0.01)

    def test_launch_overhead_floor(self):
        assert estimate_kernel_duration_ns(0.0, 0.0) == 4_000
