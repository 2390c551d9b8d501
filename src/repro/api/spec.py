"""`ProfileSpec`: the one declarative description of a profiling run.

Every way of executing an analysis in this repo — a live ``pasta profile``
run, a trace recording, an offline replay, a campaign grid cell — is a
function of the same few choices: which model, on which device, in which
mode, with which tools, under which analysis model and knob overrides.
:class:`ProfileSpec` captures exactly those choices as plain, serializable
data and is the *single* configuration object the execution layer
(:mod:`repro.api.runner`), the campaign scheduler and the replay engine all
build from.  Two guarantees follow:

* **round-trip** — ``ProfileSpec.from_json(spec.to_json()) == spec``; specs
  are JSON-native, hashable and picklable, so they travel through files,
  process pools and result stores unchanged;
* **identity** — :meth:`ProfileSpec.canonical` is the spec's content
  identity: the campaign result cache digests nothing but this canonical
  serialization (plus the package version).  Fields that cannot change a
  result — currently only ``record_to``, the trace *destination* — are
  excluded, so recording a run and re-running it live share a cache entry.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.core.serialization import content_digest
from repro.errors import ReproError

#: Knob values accepted from JSON specs.
KnobValue = Union[str, int, float, bool]

#: Valid run modes plus common near-misses mapped to the intended value.
RUN_MODES = ("inference", "train")
_MODE_ALIASES = {
    "training": "train",
    "trained": "train",
    "infer": "inference",
    "inferencing": "inference",
    "eval": "inference",
    "evaluation": "inference",
    "predict": "inference",
}

#: Knob names that configure the grid-id analysis window rather than the
#: cost model.
RANGE_KNOBS = ("start_grid_id", "end_grid_id")

#: Canonical multi-GPU parallelism strategies (Section V-D2 / Figure 15),
#: plus the long-form names the runner classes historically used.
PARALLEL_STRATEGIES = ("dp", "tp", "pp")
_STRATEGY_ALIASES = {
    "dp": "dp",
    "tp": "tp",
    "pp": "pp",
    "data_parallel": "dp",
    "data-parallel": "dp",
    "tensor_parallel": "tp",
    "tensor-parallel": "tp",
    "pipeline_parallel": "pp",
    "pipeline-parallel": "pp",
}

_SPEC_FIELDS = (
    "model", "device", "mode", "tools", "iterations", "batch_size",
    "backend", "analysis_model", "fine_grained", "knobs", "parallelism",
    "record_to",
)

#: Fields excluded from :meth:`ProfileSpec.canonical`: they direct where
#: side artifacts go, never what the analysis computes.
NON_IDENTITY_FIELDS = ("record_to",)


def check_mode(mode: str) -> None:
    """Validate a run mode, suggesting the intended value on near-misses."""
    if mode in RUN_MODES:
        return
    valid = ", ".join(repr(m) for m in RUN_MODES)
    suggestion = _MODE_ALIASES.get(str(mode).strip().lower())
    if suggestion is None:
        close = difflib.get_close_matches(str(mode).strip().lower(), RUN_MODES, n=1)
        suggestion = close[0] if close else None
    hint = f"; did you mean {suggestion!r}?" if suggestion else ""
    raise ReproError(f"mode must be one of {valid}, got {mode!r}{hint}")


def normalize_knobs(
    knobs: Union[Mapping[str, KnobValue], Sequence, None],
) -> Tuple[Tuple[str, KnobValue], ...]:
    """Normalise a knob mapping into a sorted, hashable tuple of pairs."""
    if not knobs:
        return ()
    if isinstance(knobs, Mapping):
        items = knobs.items()
    else:
        items = [(k, v) for k, v in knobs]
    out = []
    for key, value in items:
        if not isinstance(key, str) or not key:
            raise ReproError(f"knob names must be non-empty strings, got {key!r}")
        if not isinstance(value, (str, int, float, bool)):
            raise ReproError(f"knob {key!r} must be a JSON scalar, got {type(value).__name__}")
        out.append((key, value))
    out.sort(key=lambda kv: kv[0])
    return tuple(out)


def normalize_strategy(strategy: str) -> str:
    """Canonical short name (``dp``/``tp``/``pp``) for a strategy spelling."""
    key = str(strategy).strip().lower()
    canonical = _STRATEGY_ALIASES.get(key)
    if canonical is None:
        valid = ", ".join(repr(s) for s in PARALLEL_STRATEGIES)
        close = difflib.get_close_matches(key, sorted(_STRATEGY_ALIASES), n=1)
        hint = f"; did you mean {_STRATEGY_ALIASES[close[0]]!r}?" if close else ""
        raise ReproError(
            f"parallelism strategy must be one of {valid}, got {strategy!r}{hint}"
        )
    return canonical


@dataclass(frozen=True)
class ParallelismSpec:
    """Multi-GPU parallelism configuration of one profiling run.

    Mirrors the paper's Section V-D2 setup: one training workload spread
    over ``world_size`` ranks under data (``dp``), tensor (``tp``) or
    pipeline (``pp``) parallelism.  Like :class:`ProfileSpec` it is plain,
    hashable, JSON-native data; it is part of the spec's canonical identity,
    so campaigns can sweep it like any other axis.

    Attributes
    ----------
    strategy:
        ``"dp"``, ``"tp"`` or ``"pp"`` (long-form spellings such as
        ``"tensor_parallel"`` are normalised).
    world_size:
        Number of ranks (devices); at least 2.
    devices:
        Per-rank device registry names.  Empty means "replicate the spec's
        ``device`` on every rank" — the common homogeneous case.
    microbatches:
        Pipeline-parallel micro-batch count.  ``dp``/``tp`` runs ignore it,
        so it is normalised to 1 there — two dp specs differing only in
        microbatches are the *same* configuration and must share a cache
        entry and workload signature.
    """

    strategy: str
    world_size: int = 2
    devices: Tuple[str, ...] = ()
    microbatches: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", normalize_strategy(self.strategy))
        if self.world_size < 2:
            raise ReproError(
                f"parallelism world_size must be >= 2, got {self.world_size}"
            )
        if self.strategy != "pp":
            object.__setattr__(self, "microbatches", 1)
        if isinstance(self.devices, (str, bytes)):
            raise ReproError(
                f"ParallelismSpec.devices must be a sequence of device names, "
                f"got the string {self.devices!r}"
            )
        object.__setattr__(self, "devices", tuple(str(name) for name in self.devices))
        if self.devices and len(self.devices) != self.world_size:
            raise ReproError(
                f"parallelism lists {len(self.devices)} per-rank devices for a "
                f"world size of {self.world_size}; give one device per rank "
                f"(or none to replicate the spec's device)"
            )
        if self.microbatches < 1:
            raise ReproError(
                f"parallelism microbatches must be >= 1, got {self.microbatches}"
            )

    def resolved_devices(self, default_device: str) -> Tuple[str, ...]:
        """Per-rank device names, replicating ``default_device`` when unset."""
        if self.devices:
            return self.devices
        return (str(default_device),) * self.world_size

    def to_dict(self) -> dict[str, object]:
        """Plain JSON-native dict (inverse of :meth:`from_dict`)."""
        return {
            "strategy": self.strategy,
            "world_size": self.world_size,
            "devices": list(self.devices),
            "microbatches": self.microbatches,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ParallelismSpec":
        """Build from a plain dict, validating field names."""
        known = {"strategy", "world_size", "devices", "microbatches"}
        unknown = set(data) - known
        if unknown:
            raise ReproError(f"unknown ParallelismSpec fields: {sorted(unknown)}")
        if "strategy" not in data:
            raise ReproError("ParallelismSpec requires a 'strategy'")
        devices = data.get("devices") or ()
        if isinstance(devices, (str, bytes)):
            raise ReproError(
                f"ParallelismSpec 'devices' must be a list of device names, "
                f"got the string {devices!r}"
            )
        return cls(
            strategy=str(data["strategy"]),
            world_size=int(data.get("world_size", 2)),
            devices=tuple(str(name) for name in devices),
            microbatches=int(data.get("microbatches", 2)),
        )


def normalize_parallelism(
    parallelism: Union["ParallelismSpec", Mapping[str, object], str, None],
) -> Optional[ParallelismSpec]:
    """Accept a :class:`ParallelismSpec`, a dict, a bare strategy name, or None."""
    if parallelism is None or isinstance(parallelism, ParallelismSpec):
        return parallelism
    if isinstance(parallelism, str):
        return ParallelismSpec(strategy=parallelism)
    if isinstance(parallelism, Mapping):
        return ParallelismSpec.from_dict(parallelism)
    raise ReproError(
        f"parallelism must be a ParallelismSpec, a dict, a strategy name or "
        f"None, got {type(parallelism).__name__}"
    )


@dataclass(frozen=True)
class ProfileSpec:
    """One fully-resolved profiling configuration.

    Attributes
    ----------
    model:
        A name from the model registry (``"alexnet"``, ``"gpt2"``, ...).
    device:
        Device short name from the device registry (``"a100"``, ...).
    mode:
        ``"inference"`` or ``"train"``.
    tools:
        Registry names of the analysis tools to attach (may be empty — the
        session still records overhead statistics).
    iterations:
        Inference passes / training steps.
    batch_size:
        Override the model's paper batch size (None keeps the default).
    backend:
        Profiling backend registry name; None picks the device vendor's
        recommended backend.
    analysis_model:
        Where fine-grained analysis runs: ``"gpu_resident"`` or
        ``"cpu_side"``.
    fine_grained:
        Force device-side (instruction-level) instrumentation even when no
        attached tool requires it.
    knobs:
        Extra overrides as sorted ``(name, value)`` pairs:
        ``start_grid_id``/``end_grid_id`` (the grid-window) or any
        :class:`~repro.gpusim.costmodel.CostModelConfig` field.
    parallelism:
        Multi-GPU parallelism configuration (:class:`ParallelismSpec`), or
        None for a single-GPU run.  Parallel profiles train (the Figure-15
        scenario), drive one instrumented session per rank over a shared
        :class:`~repro.gpusim.multigpu.DeviceSet`, and report per-rank plus
        cross-rank results.
    record_to:
        Persist the run's event stream to this trace file for later offline
        replay.  Excluded from :meth:`canonical` — where a trace is written
        never changes what the tools report.
    """

    model: str
    device: str = "a100"
    mode: str = "inference"
    tools: Tuple[str, ...] = ()
    iterations: int = 1
    batch_size: Optional[int] = None
    backend: Optional[str] = None
    analysis_model: str = "gpu_resident"
    fine_grained: bool = False
    knobs: Tuple[Tuple[str, KnobValue], ...] = ()
    parallelism: Optional[ParallelismSpec] = None
    record_to: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.model:
            raise ReproError("ProfileSpec.model must be non-empty")
        check_mode(self.mode)
        if self.iterations < 1:
            raise ReproError(f"ProfileSpec.iterations must be >= 1, got {self.iterations}")
        if isinstance(self.tools, (str, bytes)):
            # A bare string would iterate into per-character "tool names"
            # and fail much later with a baffling unknown-tool error.
            raise ReproError(
                f"ProfileSpec.tools must be a sequence of tool names, got the "
                f"string {self.tools!r}; did you mean [{self.tools!r}]?"
            )
        object.__setattr__(self, "tools", tuple(str(name) for name in self.tools))
        object.__setattr__(self, "knobs", normalize_knobs(self.knobs))
        object.__setattr__(self, "parallelism", normalize_parallelism(self.parallelism))
        if self.parallelism is not None and self.mode != "train":
            raise ReproError(
                f"multi-GPU parallelism profiles one training iteration per "
                f"rank (the Figure-15 scenario); set mode='train' instead of "
                f"{self.mode!r}"
            )
        if self.record_to is not None:
            object.__setattr__(self, "record_to", str(self.record_to))

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    @property
    def knob_dict(self) -> dict[str, KnobValue]:
        """Knob overrides as a plain dict."""
        return dict(self.knobs)

    def label(self) -> str:
        """Short human-readable identifier used in progress output."""
        tools = "+".join(self.tools) if self.tools else "overhead-only"
        base = f"{self.model}/{self.device}/{self.mode}/{tools}"
        if self.parallelism is not None:
            base += f"/{self.parallelism.strategy}x{self.parallelism.world_size}"
        return base

    def replace(self, **changes: object) -> "ProfileSpec":
        """A copy with ``changes`` applied (knobs are re-normalised)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def with_record(self, path: Union[str, Path, None]) -> "ProfileSpec":
        """A copy recording its event stream to ``path`` (None disables)."""
        return self.replace(record_to=None if path is None else str(path))

    def with_parallelism(
        self,
        strategy: Union["ParallelismSpec", Mapping[str, object], str, None],
        world_size: int = 2,
        devices: Sequence[str] = (),
        microbatches: int = 2,
    ) -> "ProfileSpec":
        """A copy running under multi-GPU parallelism (None disables).

        ``strategy`` may be a ready :class:`ParallelismSpec` (or dict), in
        which case the other arguments are ignored, or a bare strategy name
        combined with ``world_size``/``devices``/``microbatches``.  Parallel
        profiles train, so the mode is switched to ``"train"`` alongside.
        """
        if strategy is None:
            return self.replace(parallelism=None)
        if isinstance(strategy, str):
            parallelism = ParallelismSpec(
                strategy=strategy, world_size=world_size,
                devices=tuple(devices), microbatches=microbatches,
            )
        else:
            parallelism = normalize_parallelism(strategy)
        return self.replace(parallelism=parallelism, mode="train")

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        """Plain JSON-native dict (inverse of :meth:`from_dict`)."""
        return {
            "model": self.model,
            "device": self.device,
            "mode": self.mode,
            "tools": list(self.tools),
            "iterations": self.iterations,
            "batch_size": self.batch_size,
            "backend": self.backend,
            "analysis_model": self.analysis_model,
            "fine_grained": self.fine_grained,
            "knobs": self.knob_dict,
            "parallelism": None if self.parallelism is None else self.parallelism.to_dict(),
            "record_to": self.record_to,
        }

    def canonical(self) -> dict[str, object]:
        """The spec's content identity: :meth:`to_dict` minus fields that
        cannot affect results (see :data:`NON_IDENTITY_FIELDS`)."""
        data = self.to_dict()
        for field in NON_IDENTITY_FIELDS:
            data.pop(field, None)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """Stable JSON document for this spec."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ProfileSpec":
        """Build a spec from a plain dict (inverse of :meth:`to_dict`)."""
        unknown = set(data) - set(_SPEC_FIELDS)
        if unknown:
            raise ReproError(f"unknown ProfileSpec fields: {sorted(unknown)}")
        if "model" not in data:
            raise ReproError("ProfileSpec requires a 'model'")
        tools = data.get("tools") or ()
        if isinstance(tools, (str, bytes)):
            raise ReproError(
                f"ProfileSpec 'tools' must be a list of tool names, got the "
                f"string {tools!r}; did you mean [{tools!r}]?"
            )
        return cls(
            model=str(data["model"]),
            device=str(data.get("device", "a100")),
            mode=str(data.get("mode", "inference")),
            tools=tuple(tools),
            iterations=int(data.get("iterations", 1)),
            batch_size=None if data.get("batch_size") is None else int(data["batch_size"]),
            backend=None if data.get("backend") is None else str(data["backend"]),
            analysis_model=str(data.get("analysis_model", "gpu_resident")),
            fine_grained=bool(data.get("fine_grained", False)),
            knobs=normalize_knobs(data.get("knobs")),  # type: ignore[arg-type]
            parallelism=normalize_parallelism(data.get("parallelism")),  # type: ignore[arg-type]
            record_to=None if data.get("record_to") is None else str(data["record_to"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "ProfileSpec":
        """Parse a spec from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"profile spec is not valid JSON: {error}") from error
        if not isinstance(data, Mapping):
            raise ReproError("profile spec JSON must be an object")
        return cls.from_dict(data)

    def digest(self, version: str) -> str:
        """Content digest of this spec under a given package version.

        The campaign result cache's key: two specs share a digest iff their
        :meth:`canonical` serializations are identical *and* they were
        produced by the same package version.  Computed once per version:
        the spec is frozen, and :meth:`replace` builds a new one.
        """
        digests = self.__dict__.setdefault("_digests", {})
        if version not in digests:
            digests[version] = content_digest(self.canonical(), version)
        return digests[version]

    # ------------------------------------------------------------------ #
    # knob resolution
    # ------------------------------------------------------------------ #
    def resolve_overrides(self) -> tuple[Optional[object], Optional[object]]:
        """Split the knobs into ``(range_filter, cost_config)`` overrides.

        ``start_grid_id``/``end_grid_id`` configure a
        :class:`~repro.core.annotations.RangeFilter` grid window; every other
        knob must be a numeric
        :class:`~repro.gpusim.costmodel.CostModelConfig` field.
        """
        # Imported here so the spec module itself stays import-light (the
        # cost model pulls in the simulator substrate).
        from repro.core.annotations import RangeFilter
        from repro.gpusim.costmodel import CostModelConfig

        knobs = self.knob_dict
        cost_fields = frozenset(f.name for f in dataclasses.fields(CostModelConfig))
        range_values = {name: knobs.get(name) for name in RANGE_KNOBS}
        cost_overrides = {k: v for k, v in knobs.items() if k not in RANGE_KNOBS}
        unknown = set(cost_overrides) - cost_fields
        if unknown:
            raise ReproError(
                f"unknown knobs {sorted(unknown)}; expected {sorted(RANGE_KNOBS)} "
                f"or a CostModelConfig field ({sorted(cost_fields)})"
            )
        for name, value in cost_overrides.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ReproError(f"cost-model knob {name!r} must be numeric, got {value!r}")
        for name, value in range_values.items():
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise ReproError(f"knob {name!r} must be an integer grid id, got {value!r}")
        range_filter = None
        if any(v is not None for v in range_values.values()):
            range_filter = RangeFilter()
            range_filter.set_grid_window(
                None if range_values["start_grid_id"] is None else int(range_values["start_grid_id"]),  # type: ignore[arg-type]
                None if range_values["end_grid_id"] is None else int(range_values["end_grid_id"]),  # type: ignore[arg-type]
            )
        cost_config = CostModelConfig(**cost_overrides) if cost_overrides else None  # type: ignore[arg-type]
        return range_filter, cost_config

    def needs_fine_grained(self) -> bool:
        """True if the run must enable device-side instrumentation —
        requested explicitly, or required by any of the spec's tools."""
        from repro.core.registry import create_tool

        return self.fine_grained or any(
            create_tool(name).requires_fine_grained for name in self.tools
        )

    def workload_signature(self) -> tuple[object, ...]:
        """Identity of the *simulation* this spec needs.

        Two specs share a signature iff a single recorded trace can serve
        both: tools, analysis model and knobs only affect offline analysis,
        while these fields — plus whether any requested tool needs
        device-side instrumentation — determine the event stream itself.
        """
        return (
            self.model,
            self.device,
            self.mode,
            self.iterations,
            self.batch_size,
            self.backend,
            self.needs_fine_grained(),
            None if self.parallelism is None else self.parallelism,
        )
