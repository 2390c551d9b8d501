"""Kernel launches and deterministic memory-access trace generation.

A *kernel* in the simulator is described by its name and a timing model; a
*kernel launch* binds a kernel to a grid configuration and a set of memory
arguments.  Each argument declares how the kernel touches it (what fraction of
the bytes are referenced, with what read/write mix and access intensity).  From
that declaration the launch can

* report its exact **memory footprint** (bytes of live arguments passed in),
* report its **working set** (bytes actually referenced — the quantity Table V
  of the paper is built on),
* report the **total number of memory-access instructions** it issues (which
  drives the profiling-overhead model of Figures 9/10), and
* generate a **deterministic, sampled set of device records** for
  fine-grained tools (hotness maps, access-count maps, ...), as numpy
  columns (:meth:`KernelLaunch.generate_access_columns`) or as one columnar
  :class:`~repro.gpusim.instruction.InstructionBatchRecord` per launch
  (:meth:`KernelLaunch.generate_instruction_batch`).  The columns stay
  numpy arrays (int64, or bool for write flags) all the way to the tools.

Trace generation is seeded from the launch id, so repeated runs of the same
workload produce identical traces — a property the test suite relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import KernelError
from repro.gpusim.instruction import InstructionBatchRecord, InstructionKind

_launch_ids = itertools.count(1)

#: Cache-line sized chunk used when striding accesses across an argument.
_ACCESS_STRIDE = 128
#: Default access width in bytes (a 4-byte word, the dominant case in SASS).
_DEFAULT_ACCESS_SIZE = 4


@dataclass(frozen=True)
class Dim3:
    """A CUDA/HIP ``dim3`` triple."""

    x: int = 1
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z) < 1:
            raise KernelError(f"dim3 components must be >= 1, got {self!r}")

    @property
    def total(self) -> int:
        """Product of the three dimensions."""
        return self.x * self.y * self.z


@dataclass(frozen=True)
class GridConfig:
    """Grid and block dimensions plus launch resources."""

    grid: Dim3 = Dim3()
    block: Dim3 = Dim3(128)
    shared_memory_bytes: int = 0

    @property
    def total_blocks(self) -> int:
        """Number of thread blocks in the grid."""
        return self.grid.total

    @property
    def threads_per_block(self) -> int:
        """Number of threads per block."""
        return self.block.total

    @property
    def total_threads(self) -> int:
        """Total threads launched."""
        return self.total_blocks * self.threads_per_block

    @staticmethod
    def for_elements(num_elements: int, threads_per_block: int = 256) -> "GridConfig":
        """Build a 1-D grid covering ``num_elements`` with the usual ceil-div pattern."""
        if num_elements <= 0:
            raise KernelError("num_elements must be positive")
        blocks = max(1, (num_elements + threads_per_block - 1) // threads_per_block)
        return GridConfig(grid=Dim3(blocks), block=Dim3(threads_per_block))


@dataclass(frozen=True)
class KernelArgument:
    """Describes how a kernel launch uses one memory region.

    Attributes
    ----------
    address / size:
        The region passed to the kernel (typically a tensor's storage or a
        whole memory object).
    accessed_fraction:
        Fraction of the region's bytes the kernel actually references in
        ``[0, 1]``.  A value of ``0`` models an argument that is passed but
        never touched — the case the paper's working-set tool is designed to
        exclude.
    is_read / is_written:
        Directions of the accesses.
    accesses_per_byte:
        Average number of access instructions issued per referenced byte;
        captures reuse (GEMM-like kernels re-read operands many times).
    label:
        Optional human-readable label (e.g. the tensor name).

    Two derived metrics are precomputed at construction and exposed as plain
    attributes: ``referenced_bytes`` (bytes actually referenced) and
    ``access_count`` (access instructions issued against the argument).
    """

    address: int
    size: int
    accessed_fraction: float = 1.0
    is_read: bool = True
    is_written: bool = False
    accesses_per_byte: float = 0.25
    label: str = ""

    def __post_init__(self) -> None:
        if self.size < 0:
            raise KernelError("argument size must be non-negative")
        if not 0.0 <= self.accessed_fraction <= 1.0:
            raise KernelError("accessed_fraction must be within [0, 1]")
        if self.accesses_per_byte < 0:
            raise KernelError("accesses_per_byte must be non-negative")
        # referenced_bytes / access_count are pure functions of the frozen
        # fields, re-read several times per launch by the handler, the
        # GPU-resident preprocessing and the tools; they are computed once
        # here as plain attributes (cheaper than property dispatch, and not
        # dataclass fields so eq/repr/init are unaffected).
        referenced = int(round(self.size * self.accessed_fraction))
        object.__setattr__(self, "referenced_bytes", referenced)
        object.__setattr__(
            self,
            "access_count",
            0 if referenced == 0 else max(1, int(round(referenced * self.accesses_per_byte))),
        )


@dataclass
class KernelLaunch:
    """One kernel launch with its grid, arguments and timing.

    The launch is the central event unit of the simulator: the runtime notifies
    profiling backends when a launch begins/ends, and analyses pull footprint,
    working-set and access information from it.
    """

    kernel_name: str
    grid_config: GridConfig
    arguments: Sequence[KernelArgument] = field(default_factory=tuple)
    device_index: int = 0
    stream_id: int = 0
    duration_ns: int = 0
    launch_id: int = field(default_factory=lambda: next(_launch_ids))
    start_time_ns: int = 0
    #: Optional operator / layer context supplied by the DL framework.
    op_context: str = ""

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #
    @property
    def end_time_ns(self) -> int:
        """Device time at which the launch completes."""
        return self.start_time_ns + self.duration_ns

    # Derived sums are cached: a launch's argument list never changes after
    # construction, and these are re-read by the backend, the handler and
    # every subscribed tool.
    @cached_property
    def memory_footprint_bytes(self) -> int:
        """Bytes of memory passed to the kernel (whether or not referenced)."""
        return sum(arg.size for arg in self.arguments)

    @cached_property
    def working_set_bytes(self) -> int:
        """Bytes of memory the kernel actually references."""
        return sum(arg.referenced_bytes for arg in self.arguments)

    @cached_property
    def total_memory_accesses(self) -> int:
        """Total number of global-memory access instructions issued."""
        return sum(arg.access_count for arg in self.arguments)

    def accessed_arguments(self) -> list[KernelArgument]:
        """Arguments with at least one referenced byte."""
        return [arg for arg in self.arguments if arg.referenced_bytes > 0]

    # ------------------------------------------------------------------ #
    # trace generation
    # ------------------------------------------------------------------ #
    def generate_access_columns(self, max_records: int = 4096) -> "AccessColumns":
        """Sample the launch's memory accesses as parallel numpy arrays.

        The total number of accesses a large kernel issues can reach hundreds
        of millions; materialising them all would be pointless for analysis
        quality and ruinous for simulation time.  Instead the simulator
        samples up to ``max_records`` accesses whose *address coverage*
        (which arguments, which regions within each argument) matches the
        declared behaviour, while :attr:`total_memory_accesses` preserves the
        true volume for overhead accounting.  The sample is drawn entirely
        with vectorised numpy operations, seeded from the launch id.
        """
        total = self.total_memory_accesses
        if total == 0:
            return _EMPTY_COLUMNS
        budget = min(total, max_records)
        rng = np.random.default_rng(self.launch_id)

        accessed = self.accessed_arguments()
        weights = np.array([arg.access_count for arg in accessed], dtype=np.float64)
        weights /= weights.sum()
        per_arg = _apportion(budget, weights)

        threads = max(1, self.grid_config.total_threads)
        blocks = max(1, self.grid_config.total_blocks)
        address_parts: list[np.ndarray] = []
        thread_parts: list[np.ndarray] = []
        block_parts: list[np.ndarray] = []
        write_parts: list[np.ndarray] = []
        for arg, count in zip(accessed, per_arg):
            if count == 0:
                continue
            span = max(_ACCESS_STRIDE, arg.referenced_bytes)
            offsets = rng.integers(0, span, size=count, dtype=np.int64)
            offsets = (offsets // _ACCESS_STRIDE) * _ACCESS_STRIDE
            thread_ids = rng.integers(0, threads, size=count, dtype=np.int64)
            block_ids = rng.integers(0, blocks, size=count, dtype=np.int64)
            write_flags = rng.random(count) < _write_probability(arg)
            address_parts.append(arg.address + offsets % max(1, arg.size))
            thread_parts.append(thread_ids)
            block_parts.append(block_ids)
            write_parts.append(write_flags)
        if not address_parts:
            return _EMPTY_COLUMNS
        return AccessColumns(
            addresses=np.concatenate(address_parts),
            thread_indices=np.concatenate(thread_parts),
            block_indices=np.concatenate(block_parts),
            write_flags=np.concatenate(write_parts),
        )

    def generate_instruction_batch(
        self,
        max_records: int = 4096,
        allowed_kinds: Optional[frozenset[InstructionKind]] = None,
    ) -> InstructionBatchRecord:
        """Generate the launch's device records as one columnar batch.

        The batch holds block-entry markers, the sampled memory accesses of
        :meth:`generate_access_columns` and block-exit markers, in that
        order, restricted to ``allowed_kinds`` when given — the backend-side
        instrumentability filter.  The access columns are those numpy arrays
        themselves (masked when only loads or only stores are allowed); the
        marker columns are int64 arrays too, and only the kinds are tuples.
        """
        marker_blocks = min(self.grid_config.total_blocks, 64)
        want_entry = allowed_kinds is None or InstructionKind.BLOCK_ENTRY in allowed_kinds
        want_exit = allowed_kinds is None or InstructionKind.BLOCK_EXIT in allowed_kinds
        want_loads = allowed_kinds is None or InstructionKind.GLOBAL_LOAD in allowed_kinds
        want_stores = allowed_kinds is None or InstructionKind.GLOBAL_STORE in allowed_kinds

        kept = _EMPTY_COLUMNS
        if want_loads or want_stores:
            kept = self.generate_access_columns(max_records=max_records)
            if len(kept.addresses) and not (want_loads and want_stores):
                mask = kept.write_flags if want_stores else ~kept.write_flags
                kept = AccessColumns(*(column[mask] for column in kept))

        marker_range = np.arange(marker_blocks, dtype=np.int64)
        marker_threads = np.zeros(marker_blocks, dtype=np.int64)
        no_markers = np.empty(0, dtype=np.int64)
        return InstructionBatchRecord(
            kernel_launch_id=self.launch_id,
            device_index=self.device_index,
            pre_kinds=(InstructionKind.BLOCK_ENTRY,) * marker_blocks if want_entry else (),
            pre_thread_indices=marker_threads if want_entry else no_markers,
            pre_block_indices=marker_range if want_entry else no_markers,
            addresses=kept.addresses,
            sizes=np.full(len(kept.addresses), _DEFAULT_ACCESS_SIZE, dtype=np.int64),
            write_flags=kept.write_flags,
            access_thread_indices=kept.thread_indices,
            access_block_indices=kept.block_indices,
            post_kinds=(InstructionKind.BLOCK_EXIT,) * marker_blocks if want_exit else (),
            post_thread_indices=marker_threads if want_exit else no_markers,
            post_block_indices=marker_range if want_exit else no_markers,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelLaunch(id={self.launch_id}, kernel={self.kernel_name!r}, "
            f"grid={self.grid_config.grid}, block={self.grid_config.block}, "
            f"args={len(self.arguments)})"
        )


class AccessColumns(NamedTuple):
    """Parallel numpy arrays describing one launch's sampled accesses."""

    addresses: np.ndarray
    thread_indices: np.ndarray
    block_indices: np.ndarray
    write_flags: np.ndarray


_EMPTY_COLUMNS = AccessColumns(
    addresses=np.empty(0, dtype=np.int64),
    thread_indices=np.empty(0, dtype=np.int64),
    block_indices=np.empty(0, dtype=np.int64),
    write_flags=np.empty(0, dtype=bool),
)


def _write_probability(arg: KernelArgument) -> float:
    """Probability that an individual access against ``arg`` is a store."""
    if arg.is_written and arg.is_read:
        return 0.5
    if arg.is_written:
        return 1.0
    return 0.0


def _apportion(total: int, weights: np.ndarray) -> list[int]:
    """Split ``total`` into integer shares proportional to ``weights``.

    Uses the largest-remainder method so the shares always sum to ``total``.
    """
    raw = weights * total
    shares = np.floor(raw).astype(int)
    remainder = total - int(shares.sum())
    if remainder > 0:
        fractional = raw - shares
        for idx in np.argsort(-fractional)[:remainder]:
            shares[idx] += 1
    return shares.tolist()


def estimate_kernel_duration_ns(
    flop_count: float,
    bytes_moved: float,
    device_tflops: float = 19.5,
    device_bandwidth_gbs: float = 2039.0,
    launch_overhead_ns: int = 4_000,
) -> int:
    """Roofline-style duration estimate for a kernel.

    The duration is the launch overhead plus the maximum of the compute time
    (``flop_count`` at ``device_tflops``) and the memory time (``bytes_moved``
    at ``device_bandwidth_gbs``).  Used by the DL framework substrate when it
    lowers operators into kernel launches.
    """
    compute_ns = flop_count / (device_tflops * 1e12) * 1e9 if device_tflops > 0 else 0.0
    memory_ns = bytes_moved / (device_bandwidth_gbs * 1e9) * 1e9 if device_bandwidth_gbs > 0 else 0.0
    return int(launch_overhead_ns + max(compute_ns, memory_ns))
