"""Versioned on-disk trace format: event codecs, container header and footer.

A PASTA trace file persists the normalised event stream that flows across the
handler -> processor boundary, so one simulation can feed arbitrarily many
offline analyses (the record-once/analyze-many model of vendor profilers such
as nvbit and rocprofiler).

Container layout
----------------
A trace is a sequence of **concatenated gzip members**, each compressed at
zlib level 1:

* member 0 — one JSON line: the :class:`TraceHeader` (``"kind": "header"``),
  carrying the format version, device spec, analysis model, backend,
  package version and the schema fingerprint of every registered event
  codec;
* members 1..N — **chunks**: up to ``chunk_events`` events each, laid out
  by :func:`encode_chunk` and read back by :func:`decode_chunk`;
* the final member — one JSON line: the :class:`TraceFooter`
  (``"kind": "footer"``) with event counts, per-category counts and the
  SHA-256 digest of the uncompressed chunk bytes, in order.

Because every chunk is an independent gzip member, a sidecar index of
``(offset, length)`` pairs (written by :class:`~repro.replay.writer.TraceWriter`)
allows seeking straight to any chunk or to the footer without decompressing
the whole stream.

Chunk layout (format version 2)
-------------------------------
A chunk's uncompressed bytes are three sections:

* a 12-byte prefix: the magic ``PTC2``, then the chunk's event count and the
  byte length of the text section, each a little-endian uint32;
* the text section, UTF-8 lines: line 0 is the JSON list of the
  :class:`~repro.gpusim.instruction.InstructionKind` values that kind codes
  index (the chunk's kind table), then one JSON line per event;
* the column section: the buffers of every batch column, back to back, in
  event order and, within one event, in field order.

A coarse event's line is its codec record, exactly as in version 1.  A
batch event's line holds its scalar fields the same way, and each column
field (the ``COLUMN_DTYPES``, plus ``InstructionBatch.kinds`` as codes into
the kind table) holds ``[wire dtype, length]`` in place of its values.  An
integer column is stored little-endian in the smallest unsigned dtype that
holds its range (``"|u1"``, ``"<u2"``, ``"<u4"``), and as ``"<i8"``
otherwise; a bool column is packed eight to a byte in little bit order
(``"bits"``).  Decoding widens every column with ``np.frombuffer`` back to
the int64/bool arrays (and the kinds tuple) the tools expect.

Version 1 (release 1.6.0) chunks are JSON lines, one codec record per
event, with batch columns as JSON lists; they stay readable.  In both
versions the footer digest covers the uncompressed chunk bytes.

Event codecs
------------
Every :class:`~repro.core.events.PastaEvent` dataclass is registered with a
codec derived from its resolved type hints: encoding routes through
:func:`~repro.core.serialization.json_sanitize` (so codec output is always
JSON-native and survives further sanitisation unchanged), and decoding
rebuilds enums, nested dataclasses, tuples and integer-keyed maps from the
hints.  :func:`encode_event` writes a batch event's numpy columns as JSON
lists (the version-1 line), and :func:`decode_event` hands each list to the
event's constructor, which coerces it back to an array in one call.  Each
codec carries a *schema fingerprint* — a digest of the event class's field
names and types in that JSON form — recorded in the header and checked on
read, so a trace written under a different event schema fails loudly
instead of silently misdecoding.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

import repro
from repro.core import events as _events
from repro.core.events import PastaEvent
from repro.core.serialization import json_sanitize
from repro.errors import TraceFormatError, TraceSchemaError
from repro.gpusim.device import DeviceSpec, Vendor

#: Version of the container layout written (bumped on incompatible changes);
#: version 1 traces stay readable.
TRACE_FORMAT_VERSION = 2

#: Conventional file suffix for PASTA traces.
TRACE_SUFFIX = ".pastatrace"

#: Default number of events per compressed chunk.
DEFAULT_CHUNK_EVENTS = 1024

#: zlib level of every gzip member.
COMPRESS_LEVEL = 1


# --------------------------------------------------------------------------- #
# event codecs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EventCodec:
    """Encoder/decoder for one :class:`PastaEvent` subclass."""

    tag: str
    cls: type
    #: Resolved ``{field name: type}`` hints used to rebuild rich values.
    hints: Mapping[str, Any]
    #: Digest of the event class's field names and types (schema version).
    fingerprint: str
    #: Per-field decoders/encoders specialised from the hints at registration
    #: time, so coding an event is a flat loop of direct calls rather than a
    #: reflective walk over typing generics per value.
    field_decoders: tuple[tuple[str, Any], ...] = ()
    field_encoders: tuple[tuple[str, Any], ...] = ()
    #: ``{field name: np.int64, np.bool_ or an Enum class}`` of the batch
    #: columns a version-2 chunk stores as buffers, in field order.
    columns: Mapping[str, type] = field(default_factory=dict)


_CODECS: dict[str, EventCodec] = {}
_CODECS_BY_CLS: dict[type, EventCodec] = {}


def _schema_fingerprint(cls: type) -> str:
    """Fingerprint an event dataclass's field names and wire types.

    A numpy batch column is written as a JSON list of ints or bools, so it
    fingerprints as ``tuple[int, ...]`` or ``tuple[bool, ...]``, whatever
    the in-memory array type.
    """
    hints = get_type_hints(cls)
    for name, dtype in getattr(cls, "COLUMN_DTYPES", {}).items():
        hints[name] = tuple[bool, ...] if dtype is np.bool_ else tuple[int, ...]
    shape = [(f.name, str(hints.get(f.name, ""))) for f in dataclasses.fields(cls)]
    return hashlib.sha256(json.dumps(shape, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _make_value_decoder(hint: Any):
    """Build a ``JSON-native value -> rich value`` function for one type hint."""
    if hint is np.ndarray:
        # A batch column: the event's constructor turns the list into an array.
        return lambda v: v
    origin = get_origin(hint)
    if origin is Union:
        args = [a for a in get_args(hint) if a is not type(None)]
        inner = _make_value_decoder(args[0]) if args else None
        if inner is None:
            return lambda v: v
        return lambda v: None if v is None else inner(v)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint
    if origin is tuple:
        args = get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            inner = _make_value_decoder(args[0])
            return lambda v: tuple(inner(item) for item in v)
        if args:
            inners = [_make_value_decoder(a) for a in args]
            return lambda v: tuple(f(item) for f, item in zip(inners, v))
        return tuple
    if origin is list:
        args = get_args(hint)
        inner = _make_value_decoder(args[0]) if args else (lambda v: v)
        return lambda v: [inner(item) for item in v]
    if origin is dict:
        key_hint, value_hint = get_args(hint) or (None, None)
        decode_key = _make_value_decoder(key_hint)
        decode_value = _make_value_decoder(value_hint)
        if key_hint in (int, float):
            key_cast = key_hint  # JSON object keys always arrive as strings
        else:
            key_cast = decode_key
        return lambda v: {key_cast(k): decode_value(item) for k, item in v.items()}
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        nested_hints = get_type_hints(hint)
        nested = tuple(
            (f.name, _make_value_decoder(nested_hints.get(f.name)))
            for f in dataclasses.fields(hint)
        )
        return lambda v: hint(**{name: fn(v[name]) for name, fn in nested if name in v})
    if hint is float:
        return float
    return lambda v: v


def _make_value_encoder(hint: Any):
    """Build a ``rich value -> JSON-native value`` function for one type hint.

    The inverse of :func:`_make_value_decoder`, specialised so that encoding
    skips the generic recursive walk of
    :func:`~repro.core.serialization.json_sanitize`; output is identical
    (``json_sanitize`` applied to it is the identity).
    """
    if hint is np.ndarray:
        return lambda v: v.tolist()
    origin = get_origin(hint)
    if origin is Union:
        args = [a for a in get_args(hint) if a is not type(None)]
        inner = _make_value_encoder(args[0]) if args else None
        if inner is None:
            return json_sanitize
        return lambda v: None if v is None else inner(v)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return lambda v: v.value
    if origin is tuple:
        args = get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            inner = _make_value_encoder(args[0])
            return lambda v: [inner(item) for item in v]
        if args:
            inners = [_make_value_encoder(a) for a in args]
            return lambda v: [fn(item) for fn, item in zip(inners, v)]
        return list
    if origin is list:
        args = get_args(hint)
        inner = _make_value_encoder(args[0]) if args else json_sanitize
        return lambda v: [inner(item) for item in v]
    if origin is dict:
        _key_hint, value_hint = get_args(hint) or (None, None)
        encode_value = _make_value_encoder(value_hint)
        return lambda v: {
            str(k.value if isinstance(k, Enum) else k): encode_value(item)
            for k, item in v.items()
        }
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        nested_hints = get_type_hints(hint)
        nested = tuple(
            (f.name, _make_value_encoder(nested_hints.get(f.name)))
            for f in dataclasses.fields(hint)
        )
        return lambda v: {name: fn(getattr(v, name)) for name, fn in nested}
    if hint is float:
        return float
    if hint in (int, str, bool):
        return lambda v: v
    return json_sanitize


def _buffer_columns(cls: type, hints: Mapping[str, Any]) -> dict[str, type]:
    """A batch class's ``COLUMN_DTYPES``, plus its tuple-of-enum fields
    (``InstructionBatch.kinds``), in field order; ``{}`` for other events."""
    dtypes = getattr(cls, "COLUMN_DTYPES", None)
    if not dtypes:
        return {}
    columns: dict[str, type] = {}
    for f in dataclasses.fields(cls):
        args = get_args(hints.get(f.name))
        if f.name in dtypes:
            columns[f.name] = dtypes[f.name]
        elif len(args) == 2 and args[1] is Ellipsis and isinstance(args[0], type) \
                and issubclass(args[0], Enum):
            columns[f.name] = args[0]
    return columns


def register_event_codec(cls: type, tag: Optional[str] = None) -> EventCodec:
    """Register a codec for an event dataclass (idempotent per class)."""
    if not (dataclasses.is_dataclass(cls) and issubclass(cls, PastaEvent)):
        raise TraceFormatError(f"{cls!r} is not a PastaEvent dataclass")
    existing = _CODECS_BY_CLS.get(cls)
    if existing is not None:
        return existing
    tag = tag or cls.__name__
    if tag in _CODECS:
        raise TraceFormatError(f"event codec tag {tag!r} is already registered")
    hints = get_type_hints(cls)
    codec = EventCodec(
        tag=tag,
        cls=cls,
        hints=hints,
        fingerprint=_schema_fingerprint(cls),
        field_decoders=tuple(
            (f.name, _make_value_decoder(hints.get(f.name)))
            for f in dataclasses.fields(cls)
        ),
        field_encoders=tuple(
            (f.name, _make_value_encoder(hints.get(f.name)))
            for f in dataclasses.fields(cls)
        ),
        columns=_buffer_columns(cls, hints),
    )
    _CODECS[tag] = codec
    _CODECS_BY_CLS[cls] = codec
    return codec


def registered_codecs() -> dict[str, EventCodec]:
    """All registered codecs, keyed by tag."""
    return dict(_CODECS)


def current_schemas() -> dict[str, str]:
    """``{tag: fingerprint}`` for every registered codec (goes in the header)."""
    return {tag: codec.fingerprint for tag, codec in sorted(_CODECS.items())}


def dumps_record(record: Mapping[str, object]) -> str:
    """Serialise an already-JSON-native record deterministically.

    The hot-path twin of :func:`~repro.core.serialization.stable_json_dumps`:
    codec output is JSON-native by construction, so the recursive sanitise
    pass is skipped and only the deterministic dump (sorted keys, compact
    separators, no NaN) remains.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _encoding_codec(event: PastaEvent) -> EventCodec:
    codec = _CODECS_BY_CLS.get(type(event))
    if codec is None:
        raise TraceFormatError(
            f"no codec registered for event class {type(event).__name__!r}; "
            f"register it with register_event_codec()"
        )
    return codec


def _decoding_codec(record: Mapping[str, object]) -> EventCodec:
    tag = record.get("type")
    codec = _CODECS.get(str(tag))
    if codec is None:
        raise TraceFormatError(
            f"unknown event type tag {tag!r}; known: {sorted(_CODECS)}"
        )
    return codec


def encode_event(event: PastaEvent) -> dict[str, object]:
    """Encode one event into a JSON-native record tagged with its codec."""
    codec = _encoding_codec(event)
    record: dict[str, object] = {"type": codec.tag}
    for name, encode in codec.field_encoders:
        record[name] = encode(getattr(event, name))
    return record


def decode_event(record: Mapping[str, object]) -> PastaEvent:
    """Decode one record back into its event dataclass (inverse of encode)."""
    codec = _decoding_codec(record)
    return codec.cls(**{
        name: decode(record[name])
        for name, decode in codec.field_decoders
        if name in record
    })


# --------------------------------------------------------------------------- #
# chunk layout (see the module docstring)
# --------------------------------------------------------------------------- #
#: Magic, event count and text-section length at the start of a version-2 chunk.
_CHUNK_PREFIX = struct.Struct("<4sII")
_CHUNK_MAGIC = b"PTC2"

#: Unsigned wire dtypes, narrowest first; a column outside them is int64.
_NARROW_DTYPES = tuple(np.dtype(code) for code in ("|u1", "<u2", "<u4"))
_WIRE_DTYPES = {dtype.str: dtype for dtype in (*_NARROW_DTYPES, np.dtype("<i8"))}
_PACKED_BOOLS = "bits"


def _narrow(column: np.ndarray) -> np.ndarray:
    """An int64 column in the smallest unsigned dtype that holds its range."""
    low, high = (int(column.min()), int(column.max())) if column.size else (0, 0)
    if low >= 0:
        for dtype in _NARROW_DTYPES:
            if high <= np.iinfo(dtype).max:
                return column.astype(dtype)
    return column.astype("<i8")


def encode_chunk(events: Sequence[PastaEvent]) -> bytes:
    """Lay ``events`` out as one version-2 chunk (uncompressed)."""
    kind_codes: dict[Enum, int] = {}
    lines: list[str] = []
    buffers: list[bytes] = []
    for event in events:
        codec = _encoding_codec(event)
        if not codec.columns:
            lines.append(dumps_record(encode_event(event)))
            continue
        record: dict[str, object] = {"type": codec.tag}
        for name, encode in codec.field_encoders:
            kind = codec.columns.get(name)
            value = getattr(event, name)
            if kind is None:
                record[name] = encode(value)
                continue
            if kind is np.bool_:
                record[name] = [_PACKED_BOOLS, len(value)]
                buffers.append(np.packbits(value, bitorder="little").tobytes())
                continue
            if kind is not np.int64:  # enum members -> codes into the kind table
                value = np.array(
                    [kind_codes.setdefault(member, len(kind_codes)) for member in value],
                    dtype=np.int64,
                )
            column = _narrow(value)
            record[name] = [column.dtype.str, len(column)]
            buffers.append(column.tobytes())
        lines.append(dumps_record(record))
    text = "\n".join([json.dumps([kind.value for kind in kind_codes]), *lines]).encode("utf-8")
    return b"".join([_CHUNK_PREFIX.pack(_CHUNK_MAGIC, len(events), len(text)), text, *buffers])


def decode_chunk(payload: bytes, format_version: int = TRACE_FORMAT_VERSION) -> list[PastaEvent]:
    """The events of one chunk's uncompressed bytes (inverse of :func:`encode_chunk`).

    ``format_version`` is the trace header's: version 1 chunks are JSON lines.
    """
    if format_version < 2:
        return [decode_event(json.loads(line)) for line in payload.splitlines() if line.strip()]
    if len(payload) < _CHUNK_PREFIX.size:
        raise TraceFormatError(f"trace chunk of {len(payload)} bytes has no chunk prefix")
    magic, count, text_length = _CHUNK_PREFIX.unpack_from(payload)
    if magic != _CHUNK_MAGIC:
        raise TraceFormatError(f"trace chunk starts with {magic!r}, not {_CHUNK_MAGIC!r}")
    offset = _CHUNK_PREFIX.size + text_length
    table_line, *lines = payload[_CHUNK_PREFIX.size:offset].decode("utf-8").split("\n")
    kind_table = json.loads(table_line)
    members: dict[type, list[Enum]] = {}
    events: list[PastaEvent] = []
    for line in lines:
        record = json.loads(line)
        codec = _decoding_codec(record)
        if not codec.columns:
            events.append(decode_event(record))
            continue
        fields: dict[str, object] = {}
        for name, decode in codec.field_decoders:
            kind = codec.columns.get(name)
            if kind is None:
                if name in record:
                    fields[name] = decode(record[name])
                continue
            wire, length = record[name]
            if not (isinstance(length, int) and length >= 0
                    and (wire == _PACKED_BOOLS or wire in _WIRE_DTYPES)):
                raise TraceFormatError(f"trace chunk column {name!r} is {record[name]!r}")
            if wire == _PACKED_BOOLS:
                size = (length + 7) // 8
                fields[name] = np.unpackbits(
                    np.frombuffer(payload, np.uint8, size, offset), count=length, bitorder="little",
                ).astype(np.bool_)
            else:
                dtype = _WIRE_DTYPES[wire]
                size = dtype.itemsize * length
                column = np.frombuffer(payload, dtype, length, offset).astype(np.int64)
                if kind is not np.int64:
                    table = members.get(kind) or members.setdefault(kind, [kind(v) for v in kind_table])
                    fields[name] = tuple(map(table.__getitem__, column.tolist()))
                else:
                    fields[name] = column
            offset += size
        events.append(codec.cls(**fields))
    if len(events) != count or offset != len(payload):
        raise TraceFormatError(
            f"trace chunk holds {len(events)} events and {len(payload) - offset} spare "
            f"column bytes; its prefix announces {count} events"
        )
    return events


#: The complete built-in event taxonomy (Table II) gets a codec at import time.
_BUILTIN_EVENT_CLASSES: tuple[type, ...] = (
    _events.PastaEvent,
    _events.RuntimeApiEvent,
    _events.KernelLaunchEvent,
    _events.MemoryAllocEvent,
    _events.MemoryFreeEvent,
    _events.MemcpyEvent,
    _events.MemsetEvent,
    _events.SynchronizationEvent,
    _events.MemoryAccessEvent,
    _events.InstructionEvent,
    _events.MemoryAccessBatch,
    _events.InstructionBatch,
    _events.KernelMemoryProfile,
    _events.OperatorStartEvent,
    _events.OperatorEndEvent,
    _events.TensorAllocEvent,
    _events.TensorFreeEvent,
    _events.RegionEvent,
)

for _cls in _BUILTIN_EVENT_CLASSES:
    register_event_codec(_cls)


# --------------------------------------------------------------------------- #
# container header / footer
# --------------------------------------------------------------------------- #
@dataclass
class TraceHeader:
    """First record of a trace: provenance and schema metadata."""

    format_version: int = TRACE_FORMAT_VERSION
    repro_version: str = ""
    created_unix: float = 0.0
    #: Sanitised :class:`~repro.gpusim.device.DeviceSpec` fields.
    device: dict[str, object] = field(default_factory=dict)
    analysis_model: str = "gpu_resident"
    #: Vendor backend name (``"compute_sanitizer"``, ``"nvbit"``, ...).
    backend: str = ""
    #: :class:`~repro.gpusim.costmodel.InstrumentationBackend` value.
    instrumentation: str = ""
    fine_grained: bool = False
    #: Free-form workload description (model, mode, iterations, ...).
    workload: dict[str, object] = field(default_factory=dict)
    #: ``{codec tag: schema fingerprint}`` at recording time.
    schemas: dict[str, str] = field(default_factory=dict)

    @classmethod
    def for_recording(
        cls,
        device_spec: DeviceSpec,
        analysis_model: str,
        backend: str,
        instrumentation: str,
        fine_grained: bool = False,
        workload: Optional[Mapping[str, object]] = None,
    ) -> "TraceHeader":
        """Build a header for a new recording on the current package version."""
        return cls(
            format_version=TRACE_FORMAT_VERSION,
            repro_version=repro.__version__,
            created_unix=time.time(),
            device=json_sanitize(device_spec),
            analysis_model=str(analysis_model),
            backend=str(backend),
            instrumentation=str(instrumentation),
            fine_grained=bool(fine_grained),
            workload=dict(workload or {}),
            schemas=current_schemas(),
        )

    def to_record(self) -> dict[str, object]:
        """JSON-native header record (``"kind": "header"``)."""
        record = {"kind": "header", "magic": "pasta-trace"}
        record.update(json_sanitize(dataclasses.asdict(self)))
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "TraceHeader":
        if record.get("kind") != "header":
            raise TraceFormatError("trace does not start with a header record")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in known})  # type: ignore[arg-type]

    def device_spec(self) -> DeviceSpec:
        """Rebuild the recorded :class:`DeviceSpec`."""
        data = dict(self.device)
        return DeviceSpec(
            name=str(data["name"]),
            vendor=Vendor(data["vendor"]),
            memory_bytes=int(data["memory_bytes"]),  # type: ignore[arg-type]
            sm_count=int(data["sm_count"]),  # type: ignore[arg-type]
            threads_per_sm=int(data["threads_per_sm"]),  # type: ignore[arg-type]
            core_clock_mhz=int(data["core_clock_mhz"]),  # type: ignore[arg-type]
            memory_bandwidth_gbs=float(data["memory_bandwidth_gbs"]),  # type: ignore[arg-type]
            pcie_bandwidth_gbs=float(data["pcie_bandwidth_gbs"]),  # type: ignore[arg-type]
            compute_capability=str(data["compute_capability"]),
        )

    def check_compatible(self, strict_schema: bool = True) -> None:
        """Raise if this trace cannot be decoded by the current code."""
        if int(self.format_version) > TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"trace format version {self.format_version} is newer than the "
                f"supported version {TRACE_FORMAT_VERSION}"
            )
        if not strict_schema:
            return
        ours = current_schemas()
        mismatched = sorted(
            tag for tag, fp in self.schemas.items() if tag in ours and ours[tag] != fp
        )
        if mismatched:
            raise TraceSchemaError(
                f"trace was recorded under incompatible event schemas for {mismatched} "
                f"(recorded by repro {self.repro_version!r}, running {repro.__version__!r}); "
                f"pass strict_schema=False to attempt a best-effort read"
            )
        unknown = sorted(tag for tag in self.schemas if tag not in ours)
        if unknown:
            raise TraceSchemaError(
                f"trace contains event types with no registered codec: {unknown}"
            )


@dataclass
class TraceFooter:
    """Last record of a trace: totals and the content digest."""

    event_count: int = 0
    chunk_count: int = 0
    category_counts: dict[str, int] = field(default_factory=dict)
    #: SHA-256 over the uncompressed chunk bytes, in order.
    digest: str = ""
    #: False when the recording was aborted (e.g. the workload crashed
    #: mid-session): the events written are internally consistent, but the
    #: stream does not cover the whole run.
    complete: bool = True
    #: Why an incomplete recording ended ('' for clean recordings).
    abort_reason: str = ""

    def to_record(self) -> dict[str, object]:
        record = {"kind": "footer"}
        record.update(json_sanitize(dataclasses.asdict(self)))
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "TraceFooter":
        if record.get("kind") != "footer":
            raise TraceFormatError("record is not a trace footer")
        known = {f.name for f in dataclasses.fields(cls)}
        out = cls(**{k: v for k, v in record.items() if k in known})  # type: ignore[arg-type]
        out.category_counts = {str(k): int(v) for k, v in out.category_counts.items()}
        return out
