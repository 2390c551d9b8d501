"""Instruction-level records produced by simulated kernels.

PASTA's fine-grained analyses (Table II: global/shared memory accesses, barrier
instructions, device function calls, ...) consume per-thread instruction
records.  Real hardware produces these through binary instrumentation (Compute
Sanitizer patches or NVBit SASS injection); the simulator produces them
directly from the kernel's declared memory behaviour, one columnar
:class:`InstructionBatchRecord` per kernel launch.  Its numeric columns are
numpy arrays (int64 indices and addresses, bool write flags); only the
instruction kinds are a tuple of :class:`InstructionKind`.

Only the fields that PASTA's analyses need are modelled: the instruction kind,
the issuing thread coordinates, the referenced address/size for memory
operations, and a flag for whether the access is a read or a write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class InstructionKind(str, Enum):
    """Device-side operation categories (mirrors the fine-grained rows of Table II)."""

    GLOBAL_LOAD = "global_load"
    GLOBAL_STORE = "global_store"
    SHARED_LOAD = "shared_load"
    SHARED_STORE = "shared_store"
    BARRIER = "barrier"
    BLOCK_ENTRY = "block_entry"
    BLOCK_EXIT = "block_exit"
    DEVICE_CALL = "device_call"
    DEVICE_RETURN = "device_return"
    DEVICE_MALLOC = "device_malloc"
    DEVICE_FREE = "device_free"
    GLOBAL_TO_SHARED_COPY = "global_to_shared_copy"
    PIPELINE_COMMIT = "pipeline_commit"
    PIPELINE_WAIT = "pipeline_wait"
    REMOTE_SHARED_ACCESS = "remote_shared_access"
    CLUSTER_BARRIER = "cluster_barrier"
    OTHER = "other"


def _empty_int64() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _empty_bool() -> np.ndarray:
    return np.empty(0, dtype=bool)


@dataclass(frozen=True)
class InstructionBatchRecord:
    """One kernel launch's sampled device records as parallel arrays.

    A single object per kernel launch, holding three sections in stream
    order — the instructions issued *before* the memory accesses (block-entry
    markers), the memory accesses themselves, and the instructions issued
    *after* them (block-exit markers).  Every numeric column is a 1-D numpy
    array (int64; ``write_flags`` is bool); the kinds are tuples.
    """

    kernel_launch_id: int
    device_index: int = 0
    #: Instructions preceding the access stream (e.g. BLOCK_ENTRY markers).
    pre_kinds: tuple[InstructionKind, ...] = ()
    pre_thread_indices: np.ndarray = field(default_factory=_empty_int64)
    pre_block_indices: np.ndarray = field(default_factory=_empty_int64)
    #: Sampled memory accesses (parallel arrays).
    addresses: np.ndarray = field(default_factory=_empty_int64)
    sizes: np.ndarray = field(default_factory=_empty_int64)
    write_flags: np.ndarray = field(default_factory=_empty_bool)
    access_thread_indices: np.ndarray = field(default_factory=_empty_int64)
    access_block_indices: np.ndarray = field(default_factory=_empty_int64)
    #: Instructions following the access stream (e.g. BLOCK_EXIT markers).
    post_kinds: tuple[InstructionKind, ...] = ()
    post_thread_indices: np.ndarray = field(default_factory=_empty_int64)
    post_block_indices: np.ndarray = field(default_factory=_empty_int64)

    def __len__(self) -> int:
        return len(self.pre_kinds) + len(self.addresses) + len(self.post_kinds)

    @property
    def access_count(self) -> int:
        """Number of sampled memory accesses in the batch."""
        return len(self.addresses)
