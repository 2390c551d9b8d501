"""Device memory objects and the driver-level allocator.

This models the memory layer that ``cudaMalloc`` / ``hipMalloc`` operate on.
Allocations are *memory objects*: a contiguous virtual address range with a
size, a device, and a liveness flag.  All of them are device memory and count
against the device's capacity; managed (UVM) memory is modelled only by
:mod:`repro.gpusim.uvm`, which the prefetching study drives on its own.
The DL framework substrate's caching allocator requests large memory objects
from this layer and sub-divides them into tensors, exactly mirroring how
PyTorch's pool allocator sits on top of ``cudaMalloc`` (Section V-C1 of the
paper).

Addresses are assigned from a growing virtual address space per device, so an
address uniquely identifies the object containing it — this is what the
working-set analysis tool relies on to map memory accesses back to objects.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from repro.errors import InvalidAddressError, OutOfMemoryError
from repro.gpusim.device import GpuDevice, MiB


class MemoryKind(str, Enum):
    """How a memory object was allocated."""

    DEVICE = "device"          #: ordinary device memory (cudaMalloc)


_object_ids = itertools.count(1)

#: Base of the simulated device virtual address space.  Chosen to resemble real
#: CUDA device pointers and to keep device addresses disjoint from 0/NULL.
_DEVICE_VA_BASE = 0x7F00_0000_0000

#: Allocation granularity of the driver-level allocator (512 B, matching the
#: minimum granularity PyTorch's caching allocator assumes from cudaMalloc).
ALLOCATION_ALIGNMENT = 512


def align_up(nbytes: int, alignment: int = ALLOCATION_ALIGNMENT) -> int:
    """Round ``nbytes`` up to a multiple of ``alignment``."""
    if nbytes <= 0:
        return alignment
    return ((nbytes + alignment - 1) // alignment) * alignment


@dataclass
class MemoryObject:
    """A contiguous device allocation.

    Attributes
    ----------
    object_id:
        Monotonic identifier, unique per process.
    address:
        Base virtual address on the owning device.
    size:
        Size in bytes (already aligned).
    kind:
        :class:`MemoryKind` of the allocation.
    device_index:
        Index of the owning :class:`~repro.gpusim.device.GpuDevice`.
    live:
        ``False`` once the object has been freed.
    tag:
        Free-form label (the DL allocator tags its pool segments).
    alloc_time_ns:
        Device clock when the object was created.
    free_time_ns:
        Device clock when it was freed (``None`` while live).
    """

    address: int
    size: int
    kind: MemoryKind
    device_index: int
    object_id: int = field(default_factory=lambda: next(_object_ids))
    live: bool = True
    tag: str = ""
    alloc_time_ns: int = 0
    free_time_ns: Optional[int] = None

    @property
    def end(self) -> int:
        """One past the last valid address of this object."""
        return self.address + self.size

    def contains(self, address: int) -> bool:
        """Return True if ``address`` falls inside this object."""
        return self.address <= address < self.end

    def overlaps(self, start: int, size: int) -> bool:
        """Return True if ``[start, start+size)`` intersects this object."""
        return start < self.end and self.address < start + size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryObject(id={self.object_id}, addr=0x{self.address:x}, "
            f"size={self.size}, kind={self.kind.value}, live={self.live})"
        )


class DeviceMemoryAllocator:
    """Driver-level bump allocator for one device.

    Virtual addresses are never reused within a run (freed ranges remain
    retired), which keeps address→object attribution unambiguous for the
    analyses while still enforcing the device's physical capacity limit for
    *live* bytes.
    """

    def __init__(self, device: GpuDevice) -> None:
        self.device = device
        self._next_address = _DEVICE_VA_BASE + device.index * (1 << 40)
        self._objects: dict[int, MemoryObject] = {}
        #: Sorted list of (address, object_id) for binary-search lookup.
        self._addr_index: list[tuple[int, int]] = []
        self._live_device_bytes = 0
        self._peak_device_bytes = 0
        self.alloc_count = 0
        self.free_count = 0

    # ------------------------------------------------------------------ #
    # allocation / deallocation
    # ------------------------------------------------------------------ #
    def allocate(self, nbytes: int, tag: str = "") -> MemoryObject:
        """Allocate ``nbytes`` (rounded up to the allocation granularity).

        Raises
        ------
        OutOfMemoryError
            If the allocation would exceed the device's usable capacity.
        """
        size = align_up(int(nbytes))
        if self._live_device_bytes + size > self.device.usable_memory_bytes:
            raise OutOfMemoryError(
                f"device {self.device.index} out of memory: requested {size} bytes, "
                f"{self.device.usable_memory_bytes - self._live_device_bytes} available"
            )
        self._live_device_bytes += size
        self._peak_device_bytes = max(self._peak_device_bytes, self._live_device_bytes)

        obj = MemoryObject(
            address=self._next_address,
            size=size,
            kind=MemoryKind.DEVICE,
            device_index=self.device.index,
            tag=tag,
            alloc_time_ns=self.device.now(),
        )
        self._next_address += size
        # Keep a 2 MiB guard gap between allocations so out-of-bounds addresses
        # never silently resolve to a neighbouring object.
        self._next_address = align_up(self._next_address + 2 * MiB, 2 * MiB)

        self._objects[obj.object_id] = obj
        bisect.insort(self._addr_index, (obj.address, obj.object_id))
        self.alloc_count += 1
        return obj

    def free(self, obj: MemoryObject) -> None:
        """Free a previously allocated object.

        Raises
        ------
        InvalidAddressError
            If the object is unknown or already freed.
        """
        stored = self._objects.get(obj.object_id)
        if stored is None:
            raise InvalidAddressError(f"free of unknown memory object {obj.object_id}")
        if not stored.live:
            raise InvalidAddressError(f"double free of memory object {obj.object_id}")
        stored.live = False
        stored.free_time_ns = self.device.now()
        self._live_device_bytes -= stored.size
        self.free_count += 1

    def free_by_address(self, address: int) -> MemoryObject:
        """Free the live object whose base address is ``address``."""
        obj = self.lookup(address)
        if obj is None or obj.address != address:
            raise InvalidAddressError(f"free of unallocated address 0x{address:x}")
        self.free(obj)
        return obj

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def lookup(self, address: int, live_only: bool = True) -> Optional[MemoryObject]:
        """Return the object containing ``address`` (or None).

        ``live_only`` controls whether freed objects are still matched; the
        working-set tool needs live objects only, while leak detectors may want
        retired ones.
        """
        idx = bisect.bisect_right(self._addr_index, (address, float("inf"))) - 1
        if idx < 0:
            return None
        _, object_id = self._addr_index[idx]
        obj = self._objects[object_id]
        if not obj.contains(address):
            return None
        if live_only and not obj.live:
            return None
        return obj

    def get(self, object_id: int) -> Optional[MemoryObject]:
        """Return an object by id, or None."""
        return self._objects.get(object_id)

    def live_objects(self) -> Iterator[MemoryObject]:
        """Iterate over currently live objects."""
        return (o for o in self._objects.values() if o.live)

    def all_objects(self) -> Iterator[MemoryObject]:
        """Iterate over every object ever allocated (live and freed)."""
        return iter(self._objects.values())

    @property
    def live_bytes(self) -> int:
        """Bytes of live device memory."""
        return self._live_device_bytes

    @property
    def peak_bytes(self) -> int:
        """Peak of :attr:`live_bytes` over the run."""
        return self._peak_device_bytes

    def footprint_bytes(self) -> int:
        """Total bytes ever allocated (live + freed), i.e. the memory footprint."""
        return sum(o.size for o in self._objects.values())
