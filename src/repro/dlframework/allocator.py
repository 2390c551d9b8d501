"""PyTorch-style caching (pool) allocator for the DL framework substrate.

Contemporary DL frameworks do not call ``cudaMalloc`` per tensor.  They request
large *segments* from the driver and carve them into blocks, keeping freed
blocks cached for reuse (PyTorch's ``CUDACachingAllocator``).  Two consequences
matter for the paper:

* A single driver-level memory object contains many tensors with different
  lifetimes — the object/tensor granularity mismatch behind the UVM prefetch
  study (Section V-C1, Figures 11/12).  Segments are plain ``malloc`` device
  memory; the study reads the object and tensor ranges from the profiled
  events and replays them against the UVM model on its own.
* Memory-usage timelines must be reconstructed from framework callbacks
  (``c10::reportMemoryUsage``-style), not from ``cudaMalloc`` events, because
  most tensor allocations never reach the driver (Figures 14/15).

The allocator reproduces the behaviours analyses depend on: size rounding,
small/large pools with different segment sizes, block splitting and coalescing,
caching of freed blocks, and signed memory-usage callbacks with a logical event
index.

Internally the hot operations are designed to stay off the profiler's radar
(the allocator runs inside every simulated workload):

* blocks within a segment form a doubly-linked list, so splitting and
  coalescing are O(1) pointer updates — no ``list.index`` scans;
* free blocks are kept in a per-pool size-ordered index, so best-fit lookup
  is a binary search instead of a linear walk over every block of every
  segment; and
* :class:`Block` compares by identity (``eq=False``), so membership tests
  never trigger field-by-field dataclass comparisons.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from repro.errors import AllocatorError
from repro.dlframework.tensor import DType, Tensor
from repro.gpusim.device import MiB
from repro.gpusim.memory import MemoryObject
from repro.gpusim.runtime import AcceleratorRuntime

_block_ids = itertools.count(1)
_segment_seqs = itertools.count(1)

#: Allocation request rounding, matching PyTorch's 512-byte granularity.
ROUND_BYTES = 512
#: Requests below this size are served from the small pool.
SMALL_ALLOCATION_LIMIT = 1 * MiB


def round_size(nbytes: int, round_to: int = ROUND_BYTES) -> int:
    """Round a request up to the allocator granularity (minimum one granule)."""
    if nbytes <= 0:
        return round_to
    return ((nbytes + round_to - 1) // round_to) * round_to


@dataclass(frozen=True)
class AllocatorProfile:
    """Backend-specific allocator behaviour.

    The CUDA and HIP caching allocators share their design but differ in
    segment sizing and in how aggressively the surrounding framework fuses
    operators (which changes how many transient tensors exist at all).  The
    profile captures the allocator-side half; operator fusion lives in
    :mod:`repro.dlframework.backend`.
    """

    name: str = "cuda"
    small_segment_bytes: int = 2 * MiB
    large_segment_bytes: int = 20 * MiB
    round_bytes: int = ROUND_BYTES
    #: Large requests above this fraction of ``large_segment_bytes`` get a
    #: dedicated segment sized to the request.
    oversize_threshold: float = 1.0


CUDA_ALLOCATOR_PROFILE = AllocatorProfile(name="cuda")
#: HIP's allocator uses the same design; modelled with smaller large-pool
#: segments, which yields more driver segments and more splitting activity.
HIP_ALLOCATOR_PROFILE = AllocatorProfile(name="hip", large_segment_bytes=10 * MiB)


@dataclass(eq=False)
class Block:
    """One block inside a pool segment.

    Blocks compare by identity and link to their in-segment neighbours, so
    split/coalesce are pointer surgery rather than list manipulation.
    """

    segment: "Segment"
    offset: int
    size: int
    free: bool = True
    block_id: int = field(default_factory=lambda: next(_block_ids))
    requested_size: int = 0
    prev: Optional["Block"] = field(default=None, repr=False)
    next: Optional["Block"] = field(default=None, repr=False)

    @property
    def address(self) -> int:
        """Device address of the block's first byte."""
        return self.segment.memory_object.address + self.offset


@dataclass(eq=False)
class Segment:
    """A driver-level memory object managed by the caching allocator."""

    memory_object: MemoryObject
    pool: str  # "small" or "large"
    #: Creation order of the segment; ties in the free-block index break on
    #: it, mirroring the segment scan order of a linear best-fit search.
    seq: int = field(default_factory=lambda: next(_segment_seqs))
    #: First block (offset 0) of the intrusive block list.
    head: Optional[Block] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        """Segment capacity in bytes."""
        return self.memory_object.size

    def iter_blocks(self) -> Iterator[Block]:
        """Blocks in offset order."""
        block = self.head
        while block is not None:
            yield block
            block = block.next

    @property
    def blocks(self) -> list[Block]:
        """Blocks in offset order (materialised view of the linked list)."""
        return list(self.iter_blocks())

    def free_bytes(self) -> int:
        """Bytes currently available inside this segment."""
        return sum(b.size for b in self.iter_blocks() if b.free)


class FreeBlockIndex:
    """Size-ordered index over one pool's free blocks.

    Keys are ``(size, segment seq, offset)``, so a binary search for the
    smallest key at or above a request size lands on exactly the block a
    linear best-fit scan (segments in creation order, blocks in offset
    order, strict-improvement updates) would have chosen — same block, found
    in O(log n).

    The index requires the discipline that a block's ``size`` never changes
    while it is indexed: remove, mutate, re-add.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[int, int, int, Block]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Block]:
        return (entry[3] for entry in self._entries)

    @staticmethod
    def _key(block: Block) -> tuple[int, int, int]:
        return (block.size, block.segment.seq, block.offset)

    def add(self, block: Block) -> None:
        """Index one free block."""
        size, seq, offset = self._key(block)
        insort(self._entries, (size, seq, offset, block))

    def remove(self, block: Block) -> None:
        """Drop one indexed block (must still have its indexed size)."""
        size, seq, offset = self._key(block)
        idx = bisect_left(self._entries, (size, seq, offset))
        if idx < len(self._entries) and self._entries[idx][3] is block:
            del self._entries[idx]
            return
        raise AllocatorError(
            f"free-block index out of sync: block {block.block_id} "
            f"(size={block.size}, offset={block.offset}) is not indexed"
        )

    def best_fit(self, nbytes: int) -> Optional[Block]:
        """Smallest free block of at least ``nbytes`` (ties: oldest segment,
        lowest offset), or None."""
        idx = bisect_left(self._entries, (nbytes, -1, -1))
        if idx >= len(self._entries):
            return None
        return self._entries[idx][3]


class MemoryUsageRecord(NamedTuple):
    """One framework memory-usage callback (``c10::reportMemoryUsage`` analogue).

    ``delta_bytes`` is positive for allocations and negative for reclamations —
    the sign convention PASTA's event processor normalises (Section III-G).
    A named tuple: one record is constructed per tensor alloc/free, which
    puts construction cost on the simulation's hot path.
    """

    event_index: int
    delta_bytes: int
    allocated_bytes: int
    reserved_bytes: int
    device_index: int
    tensor_id: int
    tensor_name: str = ""
    address: int = 0
    nbytes: int = 0


#: Callback signature for memory-usage observers.
MemoryUsageCallback = Callable[[MemoryUsageRecord], None]


@dataclass
class AllocatorStats:
    """Aggregate allocator statistics."""

    allocated_bytes: int = 0
    reserved_bytes: int = 0
    peak_allocated_bytes: int = 0
    peak_reserved_bytes: int = 0
    allocation_count: int = 0
    free_count: int = 0
    segment_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    coalesce_count: int = 0


class CachingAllocator:
    """Pool-based tensor allocator sitting on a simulated runtime.

    Parameters
    ----------
    runtime:
        Runtime whose ``malloc`` provides pool segments.
    profile:
        Backend-specific sizing behaviour.
    """

    def __init__(
        self,
        runtime: AcceleratorRuntime,
        profile: AllocatorProfile = CUDA_ALLOCATOR_PROFILE,
    ) -> None:
        self.runtime = runtime
        self.profile = profile
        self.segments: list[Segment] = []
        self.stats = AllocatorStats()
        self._callbacks: list[MemoryUsageCallback] = []
        self._event_index = 0
        self._blocks_by_id: dict[int, Block] = {}
        self._free_blocks: dict[str, FreeBlockIndex] = {
            "small": FreeBlockIndex(),
            "large": FreeBlockIndex(),
        }
        #: Timeline of (event_index, allocated_bytes) pairs for usage plots.
        self.usage_timeline: list[tuple[int, int]] = []

    # ------------------------------------------------------------------ #
    # observer registration
    # ------------------------------------------------------------------ #
    def register_callback(self, callback: MemoryUsageCallback) -> None:
        """Register a memory-usage observer (PASTA's framework adapter)."""
        if callback not in self._callbacks:
            self._callbacks.append(callback)

    def unregister_callback(self, callback: MemoryUsageCallback) -> None:
        """Remove a previously registered observer."""
        if callback in self._callbacks:
            self._callbacks.remove(callback)

    def _report(self, delta: int, tensor: Tensor) -> None:
        self._event_index += 1
        record = MemoryUsageRecord(
            event_index=self._event_index,
            delta_bytes=delta,
            allocated_bytes=self.stats.allocated_bytes,
            reserved_bytes=self.stats.reserved_bytes,
            device_index=self.runtime.device.index,
            tensor_id=tensor.tensor_id,
            tensor_name=tensor.name,
            address=tensor.address,
            nbytes=tensor.nbytes,
        )
        self.usage_timeline.append((self._event_index, self.stats.allocated_bytes))
        for callback in list(self._callbacks):
            callback(record)

    # ------------------------------------------------------------------ #
    # segment management
    # ------------------------------------------------------------------ #
    def _new_segment(self, pool: str, min_bytes: int) -> Segment:
        if pool == "small":
            segment_bytes = self.profile.small_segment_bytes
        else:
            segment_bytes = max(self.profile.large_segment_bytes, round_size(min_bytes))
        obj = self.runtime.malloc(segment_bytes, tag=f"{self.profile.name}_pool_{pool}")
        segment = Segment(memory_object=obj, pool=pool)
        segment.head = Block(segment=segment, offset=0, size=obj.size, free=True)
        self._free_blocks[pool].add(segment.head)
        self.segments.append(segment)
        self.stats.reserved_bytes += obj.size
        self.stats.peak_reserved_bytes = max(self.stats.peak_reserved_bytes, self.stats.reserved_bytes)
        self.stats.segment_count += 1
        return segment

    def _pool_for(self, nbytes: int) -> str:
        return "small" if nbytes < SMALL_ALLOCATION_LIMIT else "large"

    def _split_block(self, block: Block, nbytes: int) -> Block:
        """Carve ``nbytes`` off the front of an (unindexed) free block.

        The remainder, if any, becomes a new free block linked after
        ``block`` and goes into the free index.
        """
        remainder = block.size - nbytes
        if remainder >= self.profile.round_bytes:
            tail = Block(
                segment=block.segment,
                offset=block.offset + nbytes,
                size=remainder,
                free=True,
                prev=block,
                next=block.next,
            )
            if block.next is not None:
                block.next.prev = tail
            block.next = tail
            block.size = nbytes
            self._free_blocks[block.segment.pool].add(tail)
        return block

    def _coalesce(self, block: Block) -> Block:
        """Merge a newly freed (unindexed) block with free neighbours.

        Absorbed neighbours leave both the free index and the segment's
        block list; the caller indexes the surviving block.
        """
        free_index = self._free_blocks[block.segment.pool]
        nxt = block.next
        if nxt is not None and nxt.free:
            free_index.remove(nxt)
            block.size += nxt.size
            block.next = nxt.next
            if nxt.next is not None:
                nxt.next.prev = block
            self.stats.coalesce_count += 1
        prev = block.prev
        if prev is not None and prev.free:
            free_index.remove(prev)
            prev.size += block.size
            prev.next = block.next
            if block.next is not None:
                block.next.prev = prev
            block = prev
            self.stats.coalesce_count += 1
        return block

    # ------------------------------------------------------------------ #
    # allocation API
    # ------------------------------------------------------------------ #
    def allocate_tensor(
        self,
        shape: tuple[int, ...],
        dtype: DType = DType.FLOAT32,
        name: str = "",
        is_parameter: bool = False,
        requires_grad: bool = False,
    ) -> Tensor:
        """Allocate storage for a tensor and report the allocation."""
        tensor = Tensor(
            shape=shape,
            dtype=dtype,
            name=name,
            is_parameter=is_parameter,
            requires_grad=requires_grad,
            device_index=self.runtime.device.index,
        )
        return self.materialize(tensor)

    def materialize(self, tensor: Tensor) -> Tensor:
        """Assign storage to an existing (unmaterialised) tensor."""
        nbytes = round_size(max(1, tensor.nbytes), self.profile.round_bytes)
        pool = self._pool_for(nbytes)
        free_index = self._free_blocks[pool]
        block = free_index.best_fit(nbytes)
        if block is None:
            self.stats.cache_misses += 1
            segment = self._new_segment(pool, nbytes)
            block = segment.head
            if block is None or block.size < nbytes:
                raise AllocatorError(
                    f"new segment of {0 if block is None else block.size} bytes "
                    f"cannot satisfy request of {nbytes} bytes"
                )
        else:
            self.stats.cache_hits += 1
        free_index.remove(block)
        block = self._split_block(block, nbytes)
        block.free = False
        block.requested_size = tensor.nbytes
        self._blocks_by_id[block.block_id] = block

        tensor.address = block.address
        tensor.block_id = block.block_id
        tensor.segment_object_id = block.segment.memory_object.object_id
        tensor.freed = False

        self.stats.allocated_bytes += block.size
        self.stats.peak_allocated_bytes = max(
            self.stats.peak_allocated_bytes, self.stats.allocated_bytes
        )
        self.stats.allocation_count += 1
        self._report(block.size, tensor)
        return tensor

    def free_tensor(self, tensor: Tensor) -> None:
        """Release a tensor's storage back to the pool and report the reclamation."""
        if tensor.block_id is None:
            raise AllocatorError(f"tensor {tensor.tensor_id} has no allocated storage")
        block = self._blocks_by_id.get(tensor.block_id)
        if block is None or block.free:
            raise AllocatorError(f"double free of tensor {tensor.tensor_id}")
        block.free = True
        freed_bytes = block.size
        self.stats.allocated_bytes -= freed_bytes
        self.stats.free_count += 1
        del self._blocks_by_id[block.block_id]
        merged = self._coalesce(block)
        self._free_blocks[merged.segment.pool].add(merged)
        tensor.freed = True
        self._report(-freed_bytes, tensor)
        tensor.block_id = None

    def free_tensors(self, tensors: Iterable[Tensor]) -> None:
        """Free several tensors, skipping ones already freed."""
        for tensor in tensors:
            if tensor.block_id is not None and not tensor.freed:
                self.free_tensor(tensor)

    def free_list_depth(self) -> int:
        """Number of free blocks currently indexed across all pools.

        A health indicator sampled by the telemetry layer: sustained growth
        means fragmentation (frees that never coalesce back into big blocks).
        """
        return sum(len(index) for index in self._free_blocks.values())

    def empty_cache(self) -> int:
        """Return fully-free segments to the driver; returns bytes released."""
        released = 0
        remaining: list[Segment] = []
        for segment in self.segments:
            if all(block.free for block in segment.iter_blocks()):
                for block in segment.iter_blocks():
                    self._free_blocks[segment.pool].remove(block)
                self.runtime.free(segment.memory_object)
                released += segment.size
                self.stats.reserved_bytes -= segment.size
                self.stats.segment_count -= 1
            else:
                remaining.append(segment)
        self.segments = remaining
        return released

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def event_count(self) -> int:
        """Number of allocation/reclamation events reported so far."""
        return self._event_index

    def segment_for_address(self, address: int) -> Optional[Segment]:
        """Return the pool segment containing ``address`` (or None)."""
        for segment in self.segments:
            obj = segment.memory_object
            if obj.address <= address < obj.address + obj.size:
                return segment
        return None

    def live_tensor_bytes(self) -> int:
        """Bytes currently handed out to live tensors."""
        return self.stats.allocated_bytes

    def reserved_bytes(self) -> int:
        """Bytes of driver memory reserved by the pool."""
        return self.stats.reserved_bytes

    # ------------------------------------------------------------------ #
    # invariant checking (used by the allocator stress tests)
    # ------------------------------------------------------------------ #
    def check_consistency(self) -> None:
        """Verify the block lists, free index and byte accounting agree.

        Raises :class:`~repro.errors.AllocatorError` on the first violated
        invariant; cheap enough for tests, not called on the hot path.
        """
        indexed = {"small": set(), "large": set()}
        for pool, free_index in self._free_blocks.items():
            for block in free_index:
                if not block.free:
                    raise AllocatorError(
                        f"allocated block {block.block_id} is in the {pool} free index"
                    )
                if block.segment.pool != pool:
                    raise AllocatorError(
                        f"block {block.block_id} indexed under the wrong pool"
                    )
                indexed[pool].add(id(block))
        allocated = 0
        reserved = 0
        for segment in self.segments:
            reserved += segment.size
            offset = 0
            previous: Optional[Block] = None
            for block in segment.iter_blocks():
                if block.offset != offset:
                    raise AllocatorError(
                        f"segment {segment.seq}: block {block.block_id} at offset "
                        f"{block.offset}, expected {offset}"
                    )
                if block.prev is not previous:
                    raise AllocatorError(
                        f"segment {segment.seq}: broken prev link at block {block.block_id}"
                    )
                if block.free:
                    if previous is not None and previous.free:
                        raise AllocatorError(
                            f"segment {segment.seq}: adjacent free blocks "
                            f"{previous.block_id} and {block.block_id} not coalesced"
                        )
                    if id(block) not in indexed[segment.pool]:
                        raise AllocatorError(
                            f"free block {block.block_id} missing from the free index"
                        )
                    indexed[segment.pool].discard(id(block))
                else:
                    allocated += block.size
                offset += block.size
                previous = block
            if offset != segment.size:
                raise AllocatorError(
                    f"segment {segment.seq}: blocks cover {offset} of {segment.size} bytes"
                )
        stale = {pool: blocks for pool, blocks in indexed.items() if blocks}
        if stale:
            raise AllocatorError(f"free index holds stale blocks: {stale}")
        if allocated != self.stats.allocated_bytes:
            raise AllocatorError(
                f"allocated-bytes accounting drifted: blocks say {allocated}, "
                f"stats say {self.stats.allocated_bytes}"
            )
        if reserved != self.stats.reserved_bytes:
            raise AllocatorError(
                f"reserved-bytes accounting drifted: segments say {reserved}, "
                f"stats say {self.stats.reserved_bytes}"
            )
