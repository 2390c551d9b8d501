"""Developer guide in one file: building a custom PASTA tool.

The paper's extensibility claim is that a new analysis is "a few overridden
functions" on the tool template.  This example builds a **host-device traffic
analyzer** — a tool that does not ship with the collection — by overriding
three hooks: it attributes every explicit memory copy and every synchronisation
stall to the operator that was executing, then reports the operators that move
the most data across PCIe.

Writing fine-grained tools
--------------------------
Fine-grained (device-side) data always arrives as **columnar batches**: one
``MemoryAccessBatch`` / ``InstructionBatch`` event per kernel launch, holding
the launch's sampled records as parallel numpy arrays (int64 addresses,
sizes and indices; bool ``write_flags``).  A tool subscribes to
``EventCategory.MEMORY_ACCESS``, sets ``requires_fine_grained = True`` and
overrides **one** hook, not both:

* ``on_memory_access`` (simple): the base class unrolls each batch into this
  per-record hook in delivery order, with Python scalars for fields::

      def on_memory_access(self, event):
          self.writes += event.is_write

* ``on_memory_access_batch`` (fast): reduce the arrays with numpy, with no
  per-record events::

      def on_memory_access_batch(self, batch):
          self.writes += int(np.count_nonzero(batch.write_flags))

Either way the tool sees every record exactly once, whatever shape a trace
holds (see ``repro/tools/access_histogram.py`` for a bundled batch tool).

Run with:  python examples/custom_tool.py
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.events import (
    EventCategory,
    MemcpyEvent,
    OperatorStartEvent,
    SynchronizationEvent,
)
from repro import pasta
from repro.core.registry import register_tool
from repro.core.tool import PastaTool


class TransferAnalyzerTool(PastaTool):
    """Attributes host-device traffic and sync calls to framework operators."""

    tool_name = "transfer_analyzer"
    subscribed_categories = frozenset(
        {EventCategory.MEMCPY, EventCategory.SYNCHRONIZATION, EventCategory.OPERATOR_START}
    )

    def __init__(self) -> None:
        super().__init__()
        self._current_op = "<outside operators>"
        self.bytes_by_op: dict[str, int] = defaultdict(int)
        self.copies_by_direction: dict[str, int] = defaultdict(int)
        self.sync_calls = 0

    # -- the three overridden hooks ------------------------------------- #
    def on_operator_start(self, event: OperatorStartEvent) -> None:
        self._current_op = event.name

    def on_memcpy(self, event: MemcpyEvent) -> None:
        self.bytes_by_op[self._current_op] += event.size
        self.copies_by_direction[event.direction] += event.size

    def on_synchronization(self, event: SynchronizationEvent) -> None:
        self.sync_calls += 1

    # -- reporting ------------------------------------------------------- #
    def report(self) -> dict[str, object]:
        top = sorted(self.bytes_by_op.items(), key=lambda kv: kv[1], reverse=True)[:5]
        return {
            "tool": self.tool_name,
            "sync_calls": self.sync_calls,
            "bytes_by_direction": dict(self.copies_by_direction),
            "top_operators_by_traffic": top,
        }


def main() -> None:
    # The custom tool can be registered so it is selectable by name
    # (PASTA_TOOL=transfer_analyzer), exactly like the built-in collection.
    register_tool(TransferAnalyzerTool.tool_name, TransferAnalyzerTool, overwrite=True)

    # Once registered, the tool is selectable by name everywhere a built-in
    # is: the fluent facade, `pasta profile -t transfer_analyzer`, campaign
    # specs, and trace replay.
    result = (pasta.profile("whisper")
                   .on("a100")
                   .batch_size(4)
                   .with_tools("transfer_analyzer")
                   .run())
    report = result.report("transfer_analyzer")

    print(f"synchronisation calls observed: {report['sync_calls']}")
    print("bytes moved per direction:")
    for direction, nbytes in report["bytes_by_direction"].items():
        print(f"  {direction:>16}: {nbytes / 2**20:8.1f} MB")
    print("operators responsible for the most host-device traffic:")
    for op_name, nbytes in report["top_operators_by_traffic"]:
        print(f"  {nbytes / 2**20:8.1f} MB  {op_name}")


if __name__ == "__main__":
    main()
