"""PASTA tool collection template.

The tool collection is the third of PASTA's three modules (Figure 1): users
build custom analyses by subclassing :class:`PastaTool` and overriding the
handler methods they care about — the paper's "simply overriding functions in
the PASTA tool collection template".  Tools receive already-normalised,
already-preprocessed events from the event processor and never interact with
vendor APIs directly.

Fine-grained data always arrives as columnar batches (one
:class:`~repro.core.events.MemoryAccessBatch` / ``InstructionBatch`` per
kernel launch; the processor turns a lone per-record event into a length-1
batch).  A tool overrides one hook per kind of record, not both:

* the per-record ``on_memory_access`` / ``on_instruction`` hook — simple: the
  default ``on_memory_access_batch`` / ``on_instruction_batch``
  implementations unroll each batch into it in delivery order; or
* the batch hook — fast: it reduces the parallel columns directly and skips
  per-record event construction entirely.  The numeric columns are 1-D
  numpy arrays (int64, or bool for ``write_flags``), so the hook can use
  array operations; ``unroll()`` yields per-record events whose fields are
  Python scalars.

Hooks are looked up by name on every delivery, so a hook patched on the
instance or the class takes effect at once, and a tool holds no reference
to itself that would keep it alive past its last user.
"""

from __future__ import annotations

from typing import Optional

from repro.core.events import (
    BATCH_CATEGORY_BASES,
    EventCategory,
    InstructionBatch,
    InstructionEvent,
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

_BATCH_CATEGORIES = frozenset(BATCH_CATEGORY_BASES)


class PastaTool:
    """Base class for user-defined analysis tools.

    Subclasses set :attr:`tool_name` and override whichever ``on_*`` hooks
    their analysis needs; the default implementations are no-ops.  Tools can
    restrict which categories they receive via :attr:`subscribed_categories`
    (``None`` subscribes to everything), which lets the dispatch unit skip
    irrelevant tools cheaply.  Subscribing to a per-record fine-grained
    category implicitly subscribes to its batch form.
    """

    #: Registry name of the tool (used for PASTA_TOOL selection).
    tool_name: str = "pasta_tool"
    #: Categories the tool wants, or None for all.
    subscribed_categories: Optional[frozenset[EventCategory]] = None
    #: Whether the tool needs fine-grained (device-side) instrumentation.
    requires_fine_grained: bool = False

    def __init__(self) -> None:
        self.events_received = 0

    # ------------------------------------------------------------------ #
    # dispatch entry point (called by the event processor)
    # ------------------------------------------------------------------ #
    def wants(self, category: EventCategory) -> bool:
        """True if the tool subscribes to ``category``.

        Batch categories are implied by their per-record base category, so a
        pre-batching tool subscribed to ``MEMORY_ACCESS`` still receives
        ``MEMORY_ACCESS_BATCH`` events (and unrolls them by default).
        """
        subscribed = self.subscribed_categories
        if subscribed is None or category in subscribed:
            return True
        base = BATCH_CATEGORY_BASES.get(category)
        return base is not None and base in subscribed

    def handle_event(self, event: PastaEvent) -> None:
        """Route one event to the matching ``on_*`` hook.

        ``events_received`` counts logical (per-record) events: a batch of
        ``n`` records counts ``n``, so the tally is identical whether the
        pipeline delivered records individually or batched.
        """
        category = event.category
        if category in _BATCH_CATEGORIES:
            self.events_received += len(event)  # type: ignore[arg-type]
        else:
            self.events_received += 1
        getattr(self, _DISPATCH[category])(event)

    # ------------------------------------------------------------------ #
    # lifecycle hooks
    # ------------------------------------------------------------------ #
    def on_session_start(self) -> None:
        """Called when the owning session starts profiling."""

    def on_session_end(self) -> None:
        """Called when the owning session stops profiling."""

    def report(self) -> dict[str, object]:
        """Produce the tool's analysis report (overridden by concrete tools)."""
        return {"tool": self.tool_name, "events": self.events_received}

    # ------------------------------------------------------------------ #
    # event hooks (all optional)
    # ------------------------------------------------------------------ #
    def on_runtime_api(self, event: RuntimeApiEvent) -> None:
        """A driver/runtime API call."""

    def on_kernel_launch(self, event: KernelLaunchEvent) -> None:
        """A kernel launch (coarse-grained)."""

    def on_memory_alloc(self, event: MemoryAllocEvent) -> None:
        """A driver-level memory allocation."""

    def on_memory_free(self, event: MemoryFreeEvent) -> None:
        """A driver-level memory free."""

    def on_memcpy(self, event: MemcpyEvent) -> None:
        """An explicit memory copy."""

    def on_memset(self, event: MemsetEvent) -> None:
        """A memory-set operation."""

    def on_synchronization(self, event: SynchronizationEvent) -> None:
        """A stream/device synchronisation."""

    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        """A sampled fine-grained memory access."""

    def on_instruction(self, event: InstructionEvent) -> None:
        """A sampled fine-grained non-memory instruction."""

    def on_memory_access_batch(self, event: MemoryAccessBatch) -> None:
        """One launch's sampled memory accesses as parallel arrays.

        The default implementation unrolls the batch into per-record
        :meth:`on_memory_access` calls so pre-batching tools keep working;
        batch-aware tools override this and consume the arrays directly.
        """
        on_memory_access = self.on_memory_access
        for access in event.unroll():
            on_memory_access(access)

    def on_instruction_batch(self, event: InstructionBatch) -> None:
        """One launch's sampled non-memory instructions as parallel arrays.

        Default: unroll into per-record :meth:`on_instruction` calls.
        """
        on_instruction = self.on_instruction
        for instruction in event.unroll():
            on_instruction(instruction)

    def on_kernel_memory_profile(self, event: KernelMemoryProfile) -> None:
        """A GPU-preprocessed per-kernel memory profile."""

    def on_operator_start(self, event: OperatorStartEvent) -> None:
        """A framework operator started."""

    def on_operator_end(self, event: OperatorEndEvent) -> None:
        """A framework operator finished."""

    def on_tensor_alloc(self, event: TensorAllocEvent) -> None:
        """A framework tensor allocation."""

    def on_tensor_free(self, event: TensorFreeEvent) -> None:
        """A framework tensor reclamation."""

    def on_region(self, event: RegionEvent) -> None:
        """A user annotation boundary."""


#: Category -> hook method name, looked up on the tool at each delivery.
_DISPATCH = {
    EventCategory.RUNTIME_API: "on_runtime_api",
    EventCategory.KERNEL_LAUNCH: "on_kernel_launch",
    EventCategory.MEMORY_ALLOC: "on_memory_alloc",
    EventCategory.MEMORY_FREE: "on_memory_free",
    EventCategory.MEMCPY: "on_memcpy",
    EventCategory.MEMSET: "on_memset",
    EventCategory.SYNCHRONIZATION: "on_synchronization",
    EventCategory.MEMORY_ACCESS: "on_memory_access",
    EventCategory.INSTRUCTION: "on_instruction",
    EventCategory.MEMORY_ACCESS_BATCH: "on_memory_access_batch",
    EventCategory.INSTRUCTION_BATCH: "on_instruction_batch",
    EventCategory.KERNEL_MEMORY_PROFILE: "on_kernel_memory_profile",
    EventCategory.OPERATOR_START: "on_operator_start",
    EventCategory.OPERATOR_END: "on_operator_end",
    EventCategory.TENSOR_ALLOC: "on_tensor_alloc",
    EventCategory.TENSOR_FREE: "on_tensor_free",
    EventCategory.REGION_START: "on_region",
    EventCategory.REGION_STOP: "on_region",
}
