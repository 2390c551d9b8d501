"""JSON-safe report serialization.

Every PASTA tool report — and every record the campaign subsystem persists —
must survive ``json.dumps`` without a custom encoder and round-trip through
``json.loads`` unchanged.  Tool authors naturally reach for enums, tuples,
dataclasses and (in numpy-backed forks) array scalars; :func:`json_sanitize`
coerces all of those to JSON-native values with deterministic, stable key
ordering so report digests and cache keys are reproducible across processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Any, Mapping

import numpy as np


def _sanitize_key(key: object) -> str:
    """Coerce a dict key to a plain string."""
    if isinstance(key, Enum):
        key = key.value
    if isinstance(key, str):
        return str(key)  # collapse str subclasses (including str enum values)
    if isinstance(key, (tuple, list)):
        return ",".join(_sanitize_key(part) for part in key)
    if isinstance(key, (bool, int, float)) or key is None:
        return str(key)
    return str(key)


def json_sanitize(value: Any) -> Any:
    """Recursively coerce ``value`` to JSON-native types.

    Rules:

    * ``None``/``bool``/``int``/``float``/``str`` pass through (subclasses —
      notably ``str``-based enums — collapse to the builtin type);
    * :class:`~enum.Enum` members become their ``value``;
    * mappings become dicts with string keys (tuple keys are joined with
      ``","``), preserving insertion order;
    * tuples, lists, sets and frozensets become lists (sets are sorted when
      their sanitized elements are orderable);
    * dataclass instances become dicts of their fields;
    * numpy arrays become (nested) lists of sanitized Python scalars;
    * numpy-style scalars (anything with a zero-argument ``item()``) are
      unwrapped;
    * anything else falls back to ``str(value)``.
    """
    if value is None:
        return None
    if isinstance(value, Enum):
        return json_sanitize(value.value)
    if isinstance(value, bool):
        return bool(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, Mapping):
        return {_sanitize_key(k): json_sanitize(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: json_sanitize(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (set, frozenset)):
        items = [json_sanitize(v) for v in value]
        try:
            return sorted(items)
        except TypeError:
            return sorted(items, key=repr)
    if isinstance(value, (tuple, list)):
        return [json_sanitize(v) for v in value]
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, np.ndarray):
        return json_sanitize(value.tolist())
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return json_sanitize(item())
        except TypeError:
            pass
    return str(value)


def stable_json_dumps(value: Any, indent: int | None = None) -> str:
    """Serialize ``value`` deterministically: sanitized, sorted keys, no NaN."""
    return json.dumps(
        json_sanitize(value),
        sort_keys=True,
        indent=indent,
        separators=(",", ": ") if indent else (",", ":"),
        allow_nan=False,
    )


def json_roundtrip(value: Any) -> Any:
    """Sanitize and push ``value`` through an encode/decode cycle."""
    return json.loads(stable_json_dumps(value))


def content_digest(value: Any, *salts: str) -> str:
    """SHA-256 hex digest of the stable serialization of ``value``.

    Extra ``salts`` (e.g. the package version) are mixed into the hash so
    cached results are invalidated when the producing code changes.
    """
    hasher = hashlib.sha256()
    hasher.update(stable_json_dumps(value).encode("utf-8"))
    for salt in salts:
        hasher.update(b"\x00")
        hasher.update(str(salt).encode("utf-8"))
    return hasher.hexdigest()
