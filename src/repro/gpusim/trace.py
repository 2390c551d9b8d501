"""Device-side trace buffers and the two collect/analyze execution models.

Figure 2 of the paper contrasts two ways of consuming fine-grained device
traces:

* **Conventional (CPU-side analysis)** — instrumentation appends access records
  into a fixed-size device buffer; when the buffer fills, the kernel *stalls*
  until the host fetches and flushes it, then resumes.  Analysis happens on a
  (typically single) CPU thread after transfer.
* **PASTA (GPU-resident collect-and-analyze)** — groups of GPU analysis threads
  reduce records in place (e.g. into a per-object access-count map), so the
  kernel never stalls and only a small result buffer crosses PCIe at kernel
  completion.

This module models both.  The buffers do not store every record individually
(the volumes would be enormous); they account for record counts, buffer-full
stall rounds, transferred bytes and analysis work, which is exactly what the
overhead model (Figures 9/10) needs, while exposing the sampled records for
tools that inspect addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.gpusim.device import MiB


class AnalysisModel(str, Enum):
    """Where fine-grained analysis runs (Figure 2 / Figure 8 of the paper)."""

    GPU_RESIDENT = "gpu_resident"   #: PASTA's collect-and-analyze on the device
    CPU_SIDE = "cpu_side"           #: conventional buffer-transfer-then-analyze


#: Size of one packed access record in the device trace buffer, matching the
#: layout used by NVBit's mem_trace tool (address + metadata).
TRACE_RECORD_BYTES = 24

#: Default device trace buffer capacity (the paper notes PASTA reserves ~4 MB).
DEFAULT_TRACE_BUFFER_BYTES = 4 * MiB


@dataclass
class TraceBufferStats:
    """Accounting for one kernel launch worth of trace collection.

    Attributes
    ----------
    records:
        Number of access records produced by the kernel.
    buffer_capacity_records:
        How many records fit in the device buffer at once.
    flush_rounds:
        How many times the buffer filled and had to be drained to the host
        (CPU-side model only; the GPU-resident model never flushes mid-kernel).
    transferred_bytes:
        Bytes copied across PCIe for this launch (full trace for the CPU-side
        model, a small result map for the GPU-resident model).
    """

    records: int = 0
    buffer_capacity_records: int = DEFAULT_TRACE_BUFFER_BYTES // TRACE_RECORD_BYTES
    flush_rounds: int = 0
    transferred_bytes: int = 0


@dataclass
class TraceBuffer:
    """A device-resident trace buffer shared by one instrumented kernel launch."""

    capacity_bytes: int = DEFAULT_TRACE_BUFFER_BYTES
    record_bytes: int = TRACE_RECORD_BYTES

    @property
    def capacity_records(self) -> int:
        """Number of records the buffer can hold before it must be drained."""
        return max(1, self.capacity_bytes // self.record_bytes)

    def collect(
        self,
        total_records: int,
        model: AnalysisModel,
        result_map_bytes: int = 64 * 1024,
    ) -> TraceBufferStats:
        """Account for collecting ``total_records`` under the given model.

        For the CPU-side model every record is staged in the buffer and
        transferred; the number of flush rounds is the number of times the
        buffer fills (each one a kernel stall in Figure 2a).  For the
        GPU-resident model only the reduced result map (default 64 KiB — a
        per-object access-count table) is transferred once at kernel end.
        """
        stats = TraceBufferStats(
            records=total_records,
            buffer_capacity_records=self.capacity_records,
        )
        if total_records <= 0:
            return stats
        if model is AnalysisModel.CPU_SIDE:
            stats.flush_rounds = (total_records + self.capacity_records - 1) // self.capacity_records
            stats.transferred_bytes = total_records * self.record_bytes
        else:
            stats.flush_rounds = 0
            stats.transferred_bytes = min(result_map_bytes, total_records * self.record_bytes)
        return stats
