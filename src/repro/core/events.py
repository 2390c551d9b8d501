"""Unified PASTA event model (Table II of the paper).

Every runtime observation — whether it originates from a vendor profiling
backend, from the DL framework's callbacks, or from a user annotation — is
normalised into one of the event dataclasses below before reaching the event
processor and the tools.  The taxonomy follows Table II:

* **coarse-grained host-called API events** — driver/runtime API calls, kernel
  launches, memory copies/sets, synchronisation, resource operations;
* **fine-grained device-side operations** — per-thread memory accesses,
  barriers, block entry/exit, and the other instruction-level rows; and
* **high-level DL framework events** — operator start/end, tensor allocation
  and reclamation, plus annotation-driven region boundaries.

Fine-grained data is produced and delivered in one shape: the columnar
batch events (:class:`MemoryAccessBatch` / :class:`InstructionBatch`) that
carry one kernel launch's sampled records as parallel arrays — one event per
launch instead of one per access — mirroring the paper's collect-and-analyze
principle (Figure 2b): aggregate on the producer side, move compact
containers, never pay a per-record delivery cost.  The numeric columns are
1-D numpy arrays (int64; ``write_flags`` is bool) whoever built the batch:
``__post_init__`` coerces each one, so tools reduce them with array
operations.  ``InstructionBatch.kinds`` is a tuple of
:class:`~repro.gpusim.instruction.InstructionKind`.  The per-record events
(:class:`MemoryAccessEvent` / :class:`InstructionEvent`) remain the unit a
batch unrolls into for per-record tools, and ``unroll()`` gives their fields
as Python scalars; a lone per-record event, e.g. from a third-party trace,
enters the pipeline as a length-1 batch via ``as_batch()``.

All event classes use ``slots=True`` (compact instances, faster attribute
access) and ``eq=False`` (identity comparison; events are never compared by
value on the hot path).  Events carry no id of their own; the ids they hold
(``launch_id``, ``tensor_id``, ...) are fields, recorded and replayed like
any other.  A tool receives exactly the categories in its
:attr:`~repro.core.tool.PastaTool.subscribed_categories`: nothing between
the handler and the dispatch unit filters by category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Iterator, Mapping, Optional

import numpy as np

from repro.gpusim.instruction import InstructionKind


class EventCategory(str, Enum):
    """Categories of PASTA events, grouping the rows of Table II."""

    # Coarse-grained host-called API events.
    RUNTIME_API = "runtime_api"
    KERNEL_LAUNCH = "kernel_launch"
    MEMORY_ALLOC = "memory_alloc"
    MEMORY_FREE = "memory_free"
    MEMCPY = "memcpy"
    MEMSET = "memset"
    SYNCHRONIZATION = "synchronization"
    # Fine-grained device-side operations.
    MEMORY_ACCESS = "memory_access"
    INSTRUCTION = "instruction"
    MEMORY_ACCESS_BATCH = "memory_access_batch"
    INSTRUCTION_BATCH = "instruction_batch"
    KERNEL_MEMORY_PROFILE = "kernel_memory_profile"
    # High-level DL framework events.
    OPERATOR_START = "operator_start"
    OPERATOR_END = "operator_end"
    TENSOR_ALLOC = "tensor_alloc"
    TENSOR_FREE = "tensor_free"
    # Annotation-driven region boundaries (pasta.start()/pasta.stop()).
    REGION_START = "region_start"
    REGION_STOP = "region_stop"


#: Categories considered "coarse-grained" (preprocessed on the CPU).
COARSE_CATEGORIES = frozenset(
    {
        EventCategory.RUNTIME_API,
        EventCategory.KERNEL_LAUNCH,
        EventCategory.MEMORY_ALLOC,
        EventCategory.MEMORY_FREE,
        EventCategory.MEMCPY,
        EventCategory.MEMSET,
        EventCategory.SYNCHRONIZATION,
    }
)

#: Categories considered "fine-grained" (preprocessed on the GPU).
FINE_GRAINED_CATEGORIES = frozenset(
    {
        EventCategory.MEMORY_ACCESS,
        EventCategory.INSTRUCTION,
        EventCategory.MEMORY_ACCESS_BATCH,
        EventCategory.INSTRUCTION_BATCH,
        EventCategory.KERNEL_MEMORY_PROFILE,
    }
)

#: Categories originating from the DL framework.
FRAMEWORK_CATEGORIES = frozenset(
    {
        EventCategory.OPERATOR_START,
        EventCategory.OPERATOR_END,
        EventCategory.TENSOR_ALLOC,
        EventCategory.TENSOR_FREE,
        EventCategory.REGION_START,
        EventCategory.REGION_STOP,
    }
)

#: Batch category -> the per-record category it aggregates.  A tool that
#: subscribes to a per-record category implicitly receives its batch form
#: (the tool template unrolls batches into per-record hooks by default).
BATCH_CATEGORY_BASES = {
    EventCategory.MEMORY_ACCESS_BATCH: EventCategory.MEMORY_ACCESS,
    EventCategory.INSTRUCTION_BATCH: EventCategory.INSTRUCTION,
}


def _no_records() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _coerce_columns(batch: PastaEvent, dtypes: Mapping[str, type]) -> None:
    """Make every batch column a 1-D numpy array of its declared dtype."""
    for name, dtype in dtypes.items():
        setattr(batch, name, np.asarray(getattr(batch, name), dtype))


@dataclass(slots=True, eq=False)
class PastaEvent:
    """Base class of all normalised events."""

    category: EventCategory = EventCategory.RUNTIME_API
    device_index: int = 0
    timestamp_ns: int = 0
    #: Name of the producer ("compute_sanitizer", "nvbit", "rocprofiler",
    #: "framework", "annotation").
    source: str = ""


@dataclass(slots=True, eq=False)
class RuntimeApiEvent(PastaEvent):
    """A driver/runtime API invocation (e.g. ``cudaMalloc``, ``hipMemcpy``)."""

    api_name: str = ""

    def __post_init__(self) -> None:
        self.category = EventCategory.RUNTIME_API


@dataclass(frozen=True, slots=True)
class KernelArgumentInfo:
    """Metadata about one memory region passed to a kernel.

    Carried on :class:`KernelLaunchEvent` so the event processor's
    GPU-resident preprocessing can attribute accesses to memory objects
    without materialising raw access records.
    """

    address: int
    size: int
    referenced_bytes: int
    access_count: int
    label: str = ""


@dataclass(slots=True, eq=False)
class KernelLaunchEvent(PastaEvent):
    """A kernel launch, with the metadata the event processor extracts."""

    kernel_name: str = ""
    launch_id: int = 0
    grid: tuple[int, int, int] = (1, 1, 1)
    block: tuple[int, int, int] = (1, 1, 1)
    stream_id: int = 0
    duration_ns: int = 0
    memory_footprint_bytes: int = 0
    working_set_bytes: int = 0
    total_memory_accesses: int = 0
    #: Operator the framework attributes this launch to ('' outside operators).
    op_context: str = ""
    #: Sequential index of this launch within the run (used by the
    #: START_GRID_ID / END_GRID_ID range filter).
    grid_index: int = 0
    #: Per-argument access metadata (address, size, referenced bytes, accesses).
    arguments: tuple[KernelArgumentInfo, ...] = ()

    def __post_init__(self) -> None:
        self.category = EventCategory.KERNEL_LAUNCH

    @property
    def total_threads(self) -> int:
        """Total threads in the launch."""
        gx, gy, gz = self.grid
        bx, by, bz = self.block
        return gx * gy * gz * bx * by * bz


@dataclass(slots=True, eq=False)
class MemoryAllocEvent(PastaEvent):
    """A driver-level memory allocation (``cudaMalloc`` and variants)."""

    address: int = 0
    size: int = 0
    object_id: int = 0
    memory_kind: str = "device"
    tag: str = ""

    def __post_init__(self) -> None:
        self.category = EventCategory.MEMORY_ALLOC


@dataclass(slots=True, eq=False)
class MemoryFreeEvent(PastaEvent):
    """A driver-level memory free."""

    address: int = 0
    size: int = 0
    object_id: int = 0

    def __post_init__(self) -> None:
        self.category = EventCategory.MEMORY_FREE


@dataclass(slots=True, eq=False)
class MemcpyEvent(PastaEvent):
    """An explicit memory copy, with its normalised direction."""

    size: int = 0
    direction: str = "host_to_device"
    duration_ns: int = 0
    stream_id: int = 0

    def __post_init__(self) -> None:
        self.category = EventCategory.MEMCPY


@dataclass(slots=True, eq=False)
class MemsetEvent(PastaEvent):
    """A memory-set operation."""

    address: int = 0
    size: int = 0
    value: int = 0

    def __post_init__(self) -> None:
        self.category = EventCategory.MEMSET


@dataclass(slots=True, eq=False)
class SynchronizationEvent(PastaEvent):
    """A stream or device synchronisation."""

    scope: str = "device"
    stream_id: Optional[int] = None

    def __post_init__(self) -> None:
        self.category = EventCategory.SYNCHRONIZATION


@dataclass(slots=True, eq=False)
class MemoryAccessEvent(PastaEvent):
    """One sampled device-side memory access (fine-grained)."""

    address: int = 0
    size: int = 4
    is_write: bool = False
    kernel_launch_id: int = 0
    thread_index: int = 0
    block_index: int = 0

    def __post_init__(self) -> None:
        self.category = EventCategory.MEMORY_ACCESS

    def as_batch(self) -> MemoryAccessBatch:
        """Length-1 columnar view; :meth:`MemoryAccessBatch.unroll` inverts it."""
        return MemoryAccessBatch(
            kernel_launch_id=self.kernel_launch_id,
            addresses=(self.address,),
            sizes=(self.size,),
            write_flags=(self.is_write,),
            thread_indices=(self.thread_index,),
            block_indices=(self.block_index,),
            device_index=self.device_index,
            timestamp_ns=self.timestamp_ns,
            source=self.source,
        )


@dataclass(slots=True, eq=False)
class InstructionEvent(PastaEvent):
    """A sampled device-side non-memory instruction (barrier, block marker, ...)."""

    kind: InstructionKind = InstructionKind.OTHER
    kernel_launch_id: int = 0
    thread_index: int = 0
    block_index: int = 0

    def __post_init__(self) -> None:
        self.category = EventCategory.INSTRUCTION

    def as_batch(self) -> InstructionBatch:
        """Length-1 columnar view; :meth:`InstructionBatch.unroll` inverts it."""
        return InstructionBatch(
            kernel_launch_id=self.kernel_launch_id,
            kinds=(self.kind,),
            thread_indices=(self.thread_index,),
            block_indices=(self.block_index,),
            device_index=self.device_index,
            timestamp_ns=self.timestamp_ns,
            source=self.source,
        )


@dataclass(slots=True, eq=False)
class MemoryAccessBatch(PastaEvent):
    """One kernel launch's sampled memory accesses as parallel arrays.

    The columnar form of :class:`MemoryAccessEvent`: element ``i`` of every
    array describes one access, in the order the kernel issued them, so
    unrolling a batch yields the accesses as a per-record stream.  Each
    column is a 1-D numpy array of the dtype in :attr:`COLUMN_DTYPES`
    (any sequence passed in is coerced).
    """

    #: Column name -> numpy dtype; traces store each column as a JSON list.
    COLUMN_DTYPES: ClassVar[Mapping[str, type]] = {
        "addresses": np.int64,
        "sizes": np.int64,
        "write_flags": np.bool_,
        "thread_indices": np.int64,
        "block_indices": np.int64,
    }

    kernel_launch_id: int = 0
    addresses: np.ndarray = field(default_factory=_no_records)
    sizes: np.ndarray = field(default_factory=_no_records)
    write_flags: np.ndarray = field(default_factory=_no_records)
    thread_indices: np.ndarray = field(default_factory=_no_records)
    block_indices: np.ndarray = field(default_factory=_no_records)

    def __post_init__(self) -> None:
        self.category = EventCategory.MEMORY_ACCESS_BATCH
        _coerce_columns(self, self.COLUMN_DTYPES)

    def __len__(self) -> int:
        return len(self.addresses)

    def unroll(self) -> Iterator[MemoryAccessEvent]:
        """Per-record view: yields the equivalent :class:`MemoryAccessEvent`\\ s,
        with Python scalars for fields."""
        for address, size, is_write, thread, block in zip(
            self.addresses.tolist(), self.sizes.tolist(), self.write_flags.tolist(),
            self.thread_indices.tolist(), self.block_indices.tolist(),
        ):
            yield MemoryAccessEvent(
                address=address,
                size=size,
                is_write=is_write,
                kernel_launch_id=self.kernel_launch_id,
                thread_index=thread,
                block_index=block,
                device_index=self.device_index,
                timestamp_ns=self.timestamp_ns,
                source=self.source,
            )


@dataclass(slots=True, eq=False)
class InstructionBatch(PastaEvent):
    """One kernel launch's sampled non-memory instructions as parallel arrays.

    The columnar form of :class:`InstructionEvent` (barriers, block markers,
    device calls, ...), with the same ordering guarantee as
    :class:`MemoryAccessBatch`.  ``kinds`` is a tuple; the index columns are
    int64 numpy arrays.
    """

    #: Column name -> numpy dtype; traces store each column as a JSON list.
    COLUMN_DTYPES: ClassVar[Mapping[str, type]] = {
        "thread_indices": np.int64,
        "block_indices": np.int64,
    }

    kernel_launch_id: int = 0
    kinds: tuple[InstructionKind, ...] = ()
    thread_indices: np.ndarray = field(default_factory=_no_records)
    block_indices: np.ndarray = field(default_factory=_no_records)

    def __post_init__(self) -> None:
        self.category = EventCategory.INSTRUCTION_BATCH
        _coerce_columns(self, self.COLUMN_DTYPES)

    def __len__(self) -> int:
        return len(self.kinds)

    def unroll(self) -> Iterator[InstructionEvent]:
        """Per-record view: yields the equivalent :class:`InstructionEvent`\\ s,
        with Python scalars for fields."""
        for kind, thread, block in zip(
            self.kinds, self.thread_indices.tolist(), self.block_indices.tolist()
        ):
            yield InstructionEvent(
                kind=kind,
                kernel_launch_id=self.kernel_launch_id,
                thread_index=thread,
                block_index=block,
                device_index=self.device_index,
                timestamp_ns=self.timestamp_ns,
                source=self.source,
            )


@dataclass(slots=True, eq=False)
class KernelMemoryProfile(PastaEvent):
    """GPU-preprocessed per-kernel memory profile (the result-map of Figure 8b).

    Produced by the event processor's GPU-resident analysis: for one kernel
    launch, the map from memory-object id to access count, plus the derived
    footprint/working-set numbers.  This is the event most memory tools
    consume instead of raw access records.
    """

    kernel_name: str = ""
    launch_id: int = 0
    op_context: str = ""
    object_access_counts: dict[int, int] = field(default_factory=dict)
    #: (object_id -> referenced bytes) for objects with at least one access.
    object_referenced_bytes: dict[int, int] = field(default_factory=dict)
    footprint_bytes: int = 0
    working_set_bytes: int = 0
    total_accesses: int = 0

    def __post_init__(self) -> None:
        self.category = EventCategory.KERNEL_MEMORY_PROFILE

    @property
    def accessed_object_count(self) -> int:
        """Number of distinct memory objects the kernel referenced."""
        return sum(1 for count in self.object_access_counts.values() if count > 0)


@dataclass(slots=True, eq=False)
class OperatorStartEvent(PastaEvent):
    """A DL framework operator began executing."""

    op_id: int = 0
    name: str = ""
    scope: str = ""
    sequence: int = 0
    python_stack: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.category = EventCategory.OPERATOR_START


@dataclass(slots=True, eq=False)
class OperatorEndEvent(PastaEvent):
    """A DL framework operator finished executing."""

    op_id: int = 0
    name: str = ""
    scope: str = ""
    sequence: int = 0
    kernel_count: int = 0

    def __post_init__(self) -> None:
        self.category = EventCategory.OPERATOR_END


@dataclass(slots=True, eq=False)
class TensorAllocEvent(PastaEvent):
    """A framework tensor allocation (normalised to a positive size)."""

    tensor_id: int = 0
    tensor_name: str = ""
    address: int = 0
    nbytes: int = 0
    pool_allocated_bytes: int = 0
    pool_reserved_bytes: int = 0
    event_index: int = 0

    def __post_init__(self) -> None:
        self.category = EventCategory.TENSOR_ALLOC


@dataclass(slots=True, eq=False)
class TensorFreeEvent(PastaEvent):
    """A framework tensor reclamation (normalised to a positive size)."""

    tensor_id: int = 0
    tensor_name: str = ""
    address: int = 0
    nbytes: int = 0
    pool_allocated_bytes: int = 0
    pool_reserved_bytes: int = 0
    event_index: int = 0

    def __post_init__(self) -> None:
        self.category = EventCategory.TENSOR_FREE


@dataclass(slots=True, eq=False)
class RegionEvent(PastaEvent):
    """A user annotation boundary (``pasta.start()`` / ``pasta.stop()``)."""

    label: str = ""
    starting: bool = True

    def __post_init__(self) -> None:
        self.category = EventCategory.REGION_START if self.starting else EventCategory.REGION_STOP
