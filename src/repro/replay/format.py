"""Versioned on-disk trace format: event codecs, container header and footer.

A PASTA trace file persists the normalised event stream that flows across the
handler -> processor boundary, so one simulation can feed arbitrarily many
offline analyses (the record-once/analyze-many model of vendor profilers such
as nvbit and rocprofiler).

Container layout
----------------
A trace is a sequence of **concatenated gzip members**:

* member 0 — one JSON line: the :class:`TraceHeader` (``"kind": "header"``),
  carrying the device spec, analysis model, backend, package version and the
  schema fingerprint of every registered event codec;
* members 1..N — **chunks**: up to ``chunk_events`` encoded events, one JSON
  line each (``"type": <codec tag>``);
* the final member — one JSON line: the :class:`TraceFooter`
  (``"kind": "footer"``) with event counts, per-category counts and the
  SHA-256 content digest of the encoded event lines.

Because every chunk is an independent gzip member, a sidecar index of
``(offset, length)`` pairs (written by :class:`~repro.replay.writer.TraceWriter`)
allows seeking straight to any chunk or to the footer without decompressing
the whole stream.

Event codecs
------------
Every :class:`~repro.core.events.PastaEvent` dataclass is registered with a
codec derived from its resolved type hints: encoding routes through
:func:`~repro.core.serialization.json_sanitize` (so codec output is always
JSON-native and survives further sanitisation unchanged), and decoding
rebuilds enums, nested dataclasses, tuples and integer-keyed maps from the
hints.  A batch event's numpy columns (its ``COLUMN_DTYPES``) are written as
JSON lists and decoded by handing each list to the event's constructor,
which coerces it back to an array in one call.  Each codec carries a *schema
fingerprint* — a digest of the event class's field names and types —
recorded in the header and checked on read, so a trace written under a
different event schema fails loudly instead of silently misdecoding.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

import repro
from repro.core import events as _events
from repro.core.events import PastaEvent
from repro.core.serialization import json_sanitize
from repro.errors import TraceFormatError, TraceSchemaError
from repro.gpusim.device import DeviceSpec, Vendor

#: Version of the container layout (bumped on incompatible changes).
TRACE_FORMAT_VERSION = 1

#: Conventional file suffix for PASTA traces.
TRACE_SUFFIX = ".pastatrace"

#: Default number of events per compressed chunk.
DEFAULT_CHUNK_EVENTS = 1024


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


def encode_event(event: PastaEvent) -> dict[str, object]:
    """Encode one event into a JSON-native record tagged with its codec."""
    codec = _CODECS_BY_CLS.get(type(event))
    if codec is None:
        raise TraceFormatError(
            f"no codec registered for event class {type(event).__name__!r}; "
            f"register it with register_event_codec()"
        )
    record: dict[str, object] = {"type": codec.tag}
    for name, encode in codec.field_encoders:
        record[name] = encode(getattr(event, name))
    return record


def decode_event(record: Mapping[str, object]) -> PastaEvent:
    """Decode one record back into its event dataclass (inverse of encode)."""
    tag = record.get("type")
    codec = _CODECS.get(str(tag))
    if codec is None:
        raise TraceFormatError(
            f"unknown event type tag {tag!r}; known: {sorted(_CODECS)}"
        )
    return codec.cls(**{
        name: decode(record[name])
        for name, decode in codec.field_decoders
        if name in record
    })


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
    #: SHA-256 over the encoded (uncompressed) event lines, in order.
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
