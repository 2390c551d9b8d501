"""Inefficiency-location tool: knob-selected cross-layer call stacks (Figure 4).

Combines the per-kernel statistics PASTA accumulates with the knob mechanism of
Section III-F2: after a run, asking for ``MAX_MEM_REFERENCED_KERNEL`` (or any
other knob) returns the selected kernel together with its cross-layer call
stack — C/C++ frames for the ATen/cuBLAS launch path and Python frames for the
model code that triggered it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from collections import defaultdict

from repro.core.callstack import CrossLayerStack, build_cross_layer_stack
from repro.core.events import (
    EventCategory,
    InstructionBatch,
    KernelLaunchEvent,
    MemoryAccessBatch,
    OperatorStartEvent,
)
from repro.core.knobs import KernelStats, KnobRegistry
from repro.core.serialization import json_sanitize
from repro.core.tool import PastaTool


@dataclass(frozen=True)
class InefficiencyFinding:
    """The kernel selected by a knob, with its cross-layer context."""

    knob: str
    kernel_name: str
    invocation_count: int
    total_memory_accesses: int
    total_duration_ns: int
    stack: CrossLayerStack

    def render(self) -> str:
        """Human-readable rendering of the finding."""
        header = (
            f"[{self.knob}] {self.kernel_name}: "
            f"{self.invocation_count} invocations, "
            f"{self.total_memory_accesses} memory references, "
            f"{self.total_duration_ns} ns total"
        )
        return header + "\n" + self.stack.render()


class InefficiencyLocatorTool(PastaTool):
    """Accumulates per-kernel statistics and answers knob queries.

    With ``track_device_records=True`` the tool also subscribes to the
    fine-grained record stream and attributes the sampled device records to
    kernels, adding a ``sampled_device_records`` breakdown to the report.
    The fine-grained path is batch-aware: columnar batches are counted in
    O(1) instead of being unrolled.
    """

    tool_name = "inefficiency_locator"
    subscribed_categories = frozenset(
        {EventCategory.KERNEL_LAUNCH, EventCategory.OPERATOR_START}
    )

    def __init__(self, track_device_records: bool = False) -> None:
        super().__init__()
        self.track_device_records = track_device_records
        if track_device_records:
            self.subscribed_categories = self.subscribed_categories | frozenset(
                {EventCategory.MEMORY_ACCESS, EventCategory.INSTRUCTION}
            )
            self.requires_fine_grained = True
        self.kernel_stats: dict[str, KernelStats] = {}
        self.knobs = KnobRegistry()
        self._current_python_stack: tuple[str, ...] = ()
        self._current_op: str = ""
        #: launch id -> sampled records seen before the launch's canonical
        #: event arrived (backends emit device records first).
        self._pending_records: dict[int, int] = defaultdict(int)
        #: kernel name -> total sampled device records.
        self.sampled_records_by_kernel: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ #
    # event hooks
    # ------------------------------------------------------------------ #
    def on_operator_start(self, event: OperatorStartEvent) -> None:
        self._current_python_stack = event.python_stack
        self._current_op = event.name

    def on_kernel_launch(self, event: KernelLaunchEvent) -> None:
        stats = self.kernel_stats.get(event.kernel_name)
        if stats is None:
            stats = KernelStats(
                kernel_name=event.kernel_name,
                representative_python_stack=self._current_python_stack,
                representative_op=self._current_op or event.op_context,
            )
            self.kernel_stats[event.kernel_name] = stats
        stats.invocation_count += 1
        stats.total_memory_accesses += event.total_memory_accesses
        stats.total_duration_ns += event.duration_ns
        stats.max_working_set_bytes = max(stats.max_working_set_bytes, event.working_set_bytes)
        if self._pending_records:
            pending = self._pending_records.pop(event.launch_id, 0)
            if pending:
                self.sampled_records_by_kernel[event.kernel_name] += pending

    def on_memory_access_batch(self, event: MemoryAccessBatch) -> None:
        self._pending_records[event.kernel_launch_id] += len(event)

    def on_instruction_batch(self, event: InstructionBatch) -> None:
        self._pending_records[event.kernel_launch_id] += len(event)

    # ------------------------------------------------------------------ #
    # knob queries
    # ------------------------------------------------------------------ #
    def locate(self, knob: str = "MAX_MEM_REFERENCED_KERNEL") -> Optional[InefficiencyFinding]:
        """Apply a knob and return the selected kernel with its cross-layer stack."""
        selected = self.knobs.select(knob, self.kernel_stats)
        if selected is None:
            return None
        stack = build_cross_layer_stack(
            selected.kernel_name, selected.representative_python_stack
        )
        return InefficiencyFinding(
            knob=knob.upper(),
            kernel_name=selected.kernel_name,
            invocation_count=selected.invocation_count,
            total_memory_accesses=selected.total_memory_accesses,
            total_duration_ns=selected.total_duration_ns,
            stack=stack,
        )

    def report(self) -> dict[str, object]:
        findings = {}
        for knob in ("MAX_MEM_REFERENCED_KERNEL", "MAX_CALLED_KERNEL"):
            finding = self.locate(knob)
            if finding is not None:
                findings[knob] = {
                    "kernel": finding.kernel_name,
                    "invocations": finding.invocation_count,
                    "memory_references": finding.total_memory_accesses,
                }
        out: dict[str, object] = {
            "tool": self.tool_name,
            "distinct_kernels": len(self.kernel_stats),
            "findings": findings,
        }
        if self.track_device_records:
            out["sampled_device_records"] = sum(self.sampled_records_by_kernel.values())
            out["top_sampled_kernels"] = sorted(
                self.sampled_records_by_kernel.items(),
                key=lambda kv: (-kv[1], kv[0]),
            )[:5]
        return json_sanitize(out)
