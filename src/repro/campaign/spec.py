"""Declarative campaign specifications and grid expansion.

A *campaign* is the batched equivalent of one ``pasta profile`` invocation:
instead of profiling a single (model, device, tool) combination, the user
declares axes — models x devices x modes x tool sets x analysis models x knob
overrides — and the spec expands the cartesian product into concrete
:class:`~repro.api.spec.ProfileSpec` jobs, exactly the grids behind the
paper's Figures 7-15 and Table 5.  A campaign is therefore *campaign
metadata* (name, execution mode, the axes) over the same one spec type that
drives live runs, recording and replay; each job's
:meth:`~repro.api.spec.ProfileSpec.digest` (its canonical serialization
salted with the package version) is the result-cache key.

Specs are plain data: loadable from JSON, hashable into stable content
digests, and picklable for the process-pool scheduler.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.api.spec import (
    KnobValue,
    ParallelismSpec,
    ProfileSpec,
    RUN_MODES,
    normalize_knobs,
    normalize_parallelism,
)
from repro.core.serialization import json_sanitize
from repro.errors import ReproError

#: How a campaign executes its jobs: fresh simulation per job, or one recorded
#: simulation per distinct workload with per-job offline replay.
EXECUTION_MODES = ("simulate", "replay")


def _as_toolsets(tools: Optional[Sequence[Union[str, Sequence[str]]]]) -> list[tuple[str, ...]]:
    """Normalise the spec's ``tools`` axis into a list of tool groups.

    Each element is either a tool name (profiled on its own) or a list of
    names attached to one session together.  An empty axis means one
    overhead-only job per grid cell.
    """
    if not tools:
        return [()]
    out: list[tuple[str, ...]] = []
    for entry in tools:
        if isinstance(entry, str):
            out.append((entry,))
        else:
            group = tuple(str(name) for name in entry)
            if not group:
                raise ReproError("tool groups must not be empty lists")
            out.append(group)
    return out


@dataclass
class CampaignSpec:
    """A declarative grid of profiling jobs.

    The cartesian product ``models x devices x modes x tools x analysis_models
    x backends x knob_sweep`` is expanded by :meth:`expand` into
    :class:`ProfileSpec` jobs; ``extra_jobs`` adds hand-written one-offs
    outside the grid.
    """

    name: str
    models: list[str] = field(default_factory=list)
    devices: list[str] = field(default_factory=lambda: ["a100"])
    modes: list[str] = field(default_factory=lambda: ["inference"])
    #: Tool axis: each entry is one tool name or one group of names.
    tools: list[Union[str, list[str]]] = field(default_factory=list)
    analysis_models: list[str] = field(default_factory=lambda: ["gpu_resident"])
    backends: list[Optional[str]] = field(default_factory=lambda: [None])
    iterations: int = 1
    batch_size: Optional[int] = None
    fine_grained: bool = False
    #: Knob sweep: each entry is one knob-override dict applied to the grid.
    knob_sweep: list[dict[str, KnobValue]] = field(default_factory=lambda: [{}])
    #: Parallelism axis: each entry is None (single-GPU), a strategy name
    #: (``"tp"``), or a :class:`ParallelismSpec` dict — swept like any other
    #: axis.  Parallel cells train, so pair this axis with ``modes:
    #: ["train"]``.
    parallelisms: list[Union[ParallelismSpec, dict, str, None]] = field(
        default_factory=lambda: [None]
    )
    extra_jobs: list[ProfileSpec] = field(default_factory=list)
    #: ``"simulate"`` runs every job as a fresh simulation; ``"replay"``
    #: records each distinct workload once and replays it per job (tool set /
    #: analysis model / knob combination) — see the campaign scheduler.
    execution: str = "simulate"

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("CampaignSpec.name must be non-empty")
        if self.execution not in EXECUTION_MODES:
            raise ReproError(
                f"CampaignSpec.execution must be one of {EXECUTION_MODES}, "
                f"got {self.execution!r}"
            )
        if not self.models and not self.extra_jobs:
            raise ReproError("CampaignSpec needs at least one model or extra job")
        if self.models:
            # An empty multiplier axis would silently expand to zero jobs —
            # a typo'd spec must fail loudly, not report a successful no-op.
            for axis in ("devices", "modes", "analysis_models", "backends"):
                if not getattr(self, axis):
                    raise ReproError(f"CampaignSpec.{axis} must not be empty")
        for mode in self.modes:
            if mode not in RUN_MODES:
                raise ReproError(f"campaign mode must be one of {RUN_MODES}, got {mode!r}")
        if not self.knob_sweep:
            self.knob_sweep = [{}]
        if not self.parallelisms:
            self.parallelisms = [None]
        # Normalise (and validate) every axis entry up front so a typo'd
        # strategy fails at spec load, not mid-campaign.
        self.parallelisms = [normalize_parallelism(p) for p in self.parallelisms]

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #
    def expand(self) -> list[ProfileSpec]:
        """Expand the grid into concrete jobs (deduplicated, order-stable)."""
        jobs: list[ProfileSpec] = []
        seen: set[ProfileSpec] = set()
        toolsets = _as_toolsets(self.tools)
        grid = product(
            self.models, self.devices, self.modes, toolsets,
            self.analysis_models, self.backends, self.knob_sweep,
            self.parallelisms,
        )
        for model, device, mode, toolset, analysis_model, backend, knobs, parallelism in grid:
            job = ProfileSpec(
                model=model,
                device=device,
                mode=mode,
                tools=toolset,
                iterations=self.iterations,
                batch_size=self.batch_size,
                backend=backend,
                analysis_model=analysis_model,
                fine_grained=self.fine_grained,
                knobs=normalize_knobs(knobs),
                parallelism=parallelism,
            )
            if job not in seen:
                seen.add(job)
                jobs.append(job)
        for job in self.extra_jobs:
            if job not in seen:
                seen.add(job)
                jobs.append(job)
        return jobs

    def job_count(self) -> int:
        """Number of unique jobs the grid expands to."""
        return len(self.expand())

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        """Plain JSON-native dict (inverse of :meth:`from_dict`)."""
        return json_sanitize({
            "name": self.name,
            "models": list(self.models),
            "devices": list(self.devices),
            "modes": list(self.modes),
            "tools": list(self.tools),
            "analysis_models": list(self.analysis_models),
            "backends": list(self.backends),
            "iterations": self.iterations,
            "batch_size": self.batch_size,
            "fine_grained": self.fine_grained,
            "knob_sweep": list(self.knob_sweep),
            "parallelisms": [
                None if p is None else p.to_dict() for p in self.parallelisms  # type: ignore[union-attr]
            ],
            "extra_jobs": [job.to_dict() for job in self.extra_jobs],
            "execution": self.execution,
        })

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        """Build a campaign from a plain dict, validating field names."""
        known = {
            "name", "models", "devices", "modes", "tools", "analysis_models",
            "backends", "iterations", "batch_size", "fine_grained",
            "knob_sweep", "parallelisms", "extra_jobs", "execution",
        }
        unknown = set(data) - known
        if unknown:
            raise ReproError(f"unknown CampaignSpec fields: {sorted(unknown)}")
        if "name" not in data:
            raise ReproError("CampaignSpec requires a 'name'")
        kwargs: dict[str, object] = {"name": str(data["name"])}
        for key in ("models", "devices", "modes", "tools", "analysis_models",
                    "backends", "knob_sweep", "parallelisms"):
            if key in data:
                value = data[key]
                if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
                    raise ReproError(f"CampaignSpec.{key} must be a list")
                kwargs[key] = list(value)
        if "iterations" in data:
            kwargs["iterations"] = int(data["iterations"])  # type: ignore[arg-type]
        if data.get("batch_size") is not None:
            kwargs["batch_size"] = int(data["batch_size"])  # type: ignore[arg-type]
        if "fine_grained" in data:
            kwargs["fine_grained"] = bool(data["fine_grained"])
        if "extra_jobs" in data:
            kwargs["extra_jobs"] = [ProfileSpec.from_dict(j) for j in data["extra_jobs"]]  # type: ignore[union-attr]
        if "execution" in data:
            kwargs["execution"] = str(data["execution"])
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse a campaign from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"campaign spec is not valid JSON: {error}") from error
        if not isinstance(data, Mapping):
            raise ReproError("campaign spec JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a campaign spec from a JSON file."""
        path = Path(path)
        if not path.exists():
            raise ReproError(f"campaign spec file not found: {path}")
        return cls.from_json(path.read_text())

    def save(self, path: Union[str, Path]) -> None:
        """Write the spec to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def expand_jobs(spec: Union[CampaignSpec, Iterable[ProfileSpec]]) -> list[ProfileSpec]:
    """Accept either a campaign or an explicit job list and return jobs."""
    if isinstance(spec, CampaignSpec):
        return spec.expand()
    return list(spec)
