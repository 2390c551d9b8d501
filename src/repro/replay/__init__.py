"""Trace record & replay: persistent event streams with offline analysis.

This package turns one simulation into arbitrarily many analyses — the
record-once/analyze-many model of vendor profilers' offline workflows:

* :mod:`repro.replay.format` — the versioned on-disk trace format: per-event
  codecs with schema-version checks, and a container of gzip members (zlib
  level 1) with a provenance header, a digest-bearing footer and chunks in
  between.  A version-2 chunk holds a JSON line per event, with every batch
  column moved into a little-endian buffer in the narrowest unsigned dtype
  that holds it (int64 otherwise; bool columns packed to bits;
  ``InstructionBatch.kinds`` as codes into the chunk's kind table), and the
  reader widens the buffers back to int64/bool arrays.  The footer digest
  is the SHA-256 of the uncompressed chunk bytes.  Version 1 (release
  1.6.0) chunks, all JSON lines, stay readable;
* :mod:`repro.replay.writer` — :class:`TraceWriter`, the buffered recording
  tap that ``PastaSession(trace_writer=...)`` installs between the event
  handler and the event processor, and :class:`MemoryTrace`, the same tap
  kept in memory;
* :mod:`repro.replay.reader` — :class:`TraceReader`, a streaming reader with
  category / kernel-range / region slicing and a lightweight seek index;
* :mod:`repro.replay.replayer` — :class:`TraceReplayer`, which re-drives any
  tool set (optionally under a different analysis model or cost-model
  configuration) through a fresh event processor with no runtime attached.

The ``pasta trace`` command (``record`` / ``replay`` / ``info`` /
``slice``) lives in :mod:`repro.commands.trace`.
"""

from repro.replay.format import (
    TRACE_FORMAT_VERSION,
    TRACE_SUFFIX,
    EventCodec,
    TraceFooter,
    TraceHeader,
    current_schemas,
    decode_event,
    encode_event,
    register_event_codec,
    registered_codecs,
)
from repro.replay.reader import TraceReader
from repro.replay.replayer import ReplayResult, TraceAddressResolver, TraceReplayer, replay_trace
from repro.replay.writer import MemoryTrace, TraceWriter, index_path_for

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TRACE_SUFFIX",
    "EventCodec",
    "MemoryTrace",
    "ReplayResult",
    "TraceAddressResolver",
    "TraceFooter",
    "TraceHeader",
    "TraceReader",
    "TraceReplayer",
    "TraceWriter",
    "current_schemas",
    "decode_event",
    "encode_event",
    "index_path_for",
    "register_event_codec",
    "registered_codecs",
    "replay_trace",
]
