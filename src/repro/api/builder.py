"""Fluent builder over :class:`~repro.api.spec.ProfileSpec`.

The one-liner the facade advertises::

    from repro import pasta

    reports = (pasta.profile("gpt2")
                    .on("a100")
                    .mode("train")
                    .with_tools("hotness", "access_histogram")
                    .record("trace.pasta")
                    .run()
                    .reports())

Every method returns the builder, :meth:`ProfileBuilder.build` returns the
plain :class:`ProfileSpec` (useful for campaigns and files), and
:meth:`ProfileBuilder.run` / :meth:`ProfileBuilder.replay` execute through
the unified runner (:mod:`repro.api.runner`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from typing import Sequence

from repro.api.spec import KnobValue, ParallelismSpec, ProfileSpec
from repro.core.tool import PastaTool
from repro.errors import ReproError
from repro.gpusim.trace import AnalysisModel


class ProfileBuilder:
    """Accumulates :class:`ProfileSpec` fields through a fluent interface.

    Tool *names* become part of the (serializable) spec; already-built
    :class:`PastaTool` instances are carried alongside and attached at
    execution time, since an object cannot ride in a declarative spec.
    """

    def __init__(self, model: str) -> None:
        self._fields: dict[str, object] = {"model": str(model)}
        self._knobs: dict[str, KnobValue] = {}
        self._tool_names: list[str] = []
        self._tool_instances: list[PastaTool] = []

    # ------------------------------------------------------------------ #
    # spec fields
    # ------------------------------------------------------------------ #
    def on(self, device: str) -> "ProfileBuilder":
        """Target device by registry short name (``"a100"``, ...)."""
        self._fields["device"] = str(device)
        return self

    def mode(self, mode: str) -> "ProfileBuilder":
        """Run mode: ``"inference"`` or ``"train"``."""
        self._fields["mode"] = str(mode)
        return self

    def train(self) -> "ProfileBuilder":
        """Shorthand for ``mode("train")``."""
        return self.mode("train")

    def inference(self) -> "ProfileBuilder":
        """Shorthand for ``mode("inference")``."""
        return self.mode("inference")

    def with_tools(self, *tools: Union[str, PastaTool]) -> "ProfileBuilder":
        """Attach analysis tools: registry names and/or instances."""
        for tool in tools:
            if isinstance(tool, str):
                self._tool_names.append(tool)
            else:
                self._tool_instances.append(tool)
        return self

    def with_tool(self, tool: Union[str, PastaTool]) -> "ProfileBuilder":
        """Attach one analysis tool (name or instance)."""
        return self.with_tools(tool)

    def iterations(self, n: int) -> "ProfileBuilder":
        """Number of inference passes / training steps."""
        self._fields["iterations"] = int(n)
        return self

    def batch_size(self, n: Optional[int]) -> "ProfileBuilder":
        """Override the model's paper batch size."""
        self._fields["batch_size"] = None if n is None else int(n)
        return self

    def backend(self, name: Optional[str]) -> "ProfileBuilder":
        """Profiling backend registry name (None: vendor default)."""
        self._fields["backend"] = None if name is None else str(name)
        return self

    def analysis_model(self, name: Union[str, AnalysisModel]) -> "ProfileBuilder":
        """Analysis model: ``"gpu_resident"`` or ``"cpu_side"``."""
        value = name.value if isinstance(name, AnalysisModel) else str(name)
        self._fields["analysis_model"] = value
        return self

    def analysis(self, name: Union[str, AnalysisModel]) -> "ProfileBuilder":
        """Shorthand for :meth:`analysis_model`."""
        return self.analysis_model(name)

    def fine_grained(self, enabled: bool = True) -> "ProfileBuilder":
        """Force device-side (instruction-level) instrumentation."""
        self._fields["fine_grained"] = bool(enabled)
        return self

    def knob(self, name: str, value: KnobValue) -> "ProfileBuilder":
        """Set one knob override (grid window or cost-model field)."""
        self._knobs[str(name)] = value
        return self

    def with_knobs(self, **knobs: KnobValue) -> "ProfileBuilder":
        """Set several knob overrides at once."""
        self._knobs.update(knobs)
        return self

    def window(self, start_grid_id: Optional[int], end_grid_id: Optional[int]) -> "ProfileBuilder":
        """Restrict analysis to a kernel-launch (grid-id) window."""
        if start_grid_id is not None:
            self._knobs["start_grid_id"] = int(start_grid_id)
        if end_grid_id is not None:
            self._knobs["end_grid_id"] = int(end_grid_id)
        return self

    def parallel(
        self,
        strategy: Union[str, ParallelismSpec],
        world_size: int = 2,
        devices: Sequence[str] = (),
        microbatches: int = 2,
    ) -> "ProfileBuilder":
        """Run as a multi-GPU parallel profile (DP/TP/PP over ``world_size``).

        ``strategy`` is ``"dp"``, ``"tp"`` or ``"pp"`` (or a ready
        :class:`ParallelismSpec`, in which case the other arguments are
        ignored); ``devices`` optionally names one device per rank,
        defaulting to the builder's device replicated.  Parallel profiles
        train, so the mode defaults to ``"train"`` unless set explicitly.
        """
        if isinstance(strategy, ParallelismSpec):
            parallelism = strategy
        else:
            parallelism = ParallelismSpec(
                strategy=strategy, world_size=world_size,
                devices=tuple(devices), microbatches=microbatches,
            )
        self._fields["parallelism"] = parallelism
        self._fields.setdefault("mode", "train")
        return self

    def record(self, path: Union[str, Path]) -> "ProfileBuilder":
        """Record the event stream to ``path`` for later offline replay."""
        self._fields["record_to"] = str(path)
        return self

    # ------------------------------------------------------------------ #
    # terminal operations
    # ------------------------------------------------------------------ #
    def build(self) -> ProfileSpec:
        """The accumulated :class:`ProfileSpec` (serializable, declarative).

        Tool *instances* cannot be serialized into a spec: register the tool
        (``register_tool``/entry point) and add it by name, or execute
        directly with :meth:`run`, which attaches instances on the side.
        """
        if self._tool_instances:
            names = sorted(type(t).__name__ for t in self._tool_instances)
            raise ReproError(
                f"cannot build a declarative ProfileSpec holding tool instances "
                f"({names}); register them and use their registry names, or call "
                f".run() which attaches instances directly"
            )
        return self._spec()

    def _spec(self) -> ProfileSpec:
        return ProfileSpec(
            tools=tuple(self._tool_names),
            knobs=tuple(self._knobs.items()),  # type: ignore[arg-type]
            **self._fields,  # type: ignore[arg-type]
        )

    def run(self):
        """Execute the spec live; returns a :class:`~repro.api.runner.ProfileResult`."""
        from repro.api.runner import execute

        return execute(self._spec(), extra_tools=tuple(self._tool_instances))

    def replay(self, trace: object):
        """Replay a recorded trace under this configuration (offline).

        Returns a :class:`~repro.replay.replayer.ReplayResult`, or a
        :class:`~repro.api.runner.ParallelReplayResult` for a parallel
        configuration (which takes no tool instances).
        """
        from repro.api.runner import replay as replay_fn

        return replay_fn(trace, self._spec(), tools=self._tool_instances)


def profile(model: str) -> ProfileBuilder:
    """Start a fluent profiling configuration for ``model``."""
    return ProfileBuilder(model)
