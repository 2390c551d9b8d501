"""Telemetry facade: tracer + metrics + sink behind one no-op-able handle.

Everything the profiler instruments itself with goes through a
:class:`Telemetry` object:

* ``telemetry.span("campaign.job", model="gpt2")`` — a context-managed span;
* ``telemetry.counter("campaign.cache_hits").inc()`` — metric instruments;
* ``telemetry.event("provenance", digest=...)`` — point annotations;
* ``telemetry.close()`` — flush the final metrics snapshot and summary.

The crucial property is the **no-op fast path**: the module-level default is
:data:`NULL_TELEMETRY`, whose every operation returns a shared null object
and touches no state, so instrumentation left in the hot layers costs one
method call when telemetry is disabled — nothing is formatted, allocated or
written.  Instrumented code never needs ``if enabled:`` guards *except*
where building the call's arguments is itself expensive; ``enabled`` exists
for exactly those sites.

A process has at most one *active* telemetry, :data:`ACTIVE_TELEMETRY`
(:func:`active` / :func:`activate`), which instrumented layers consult when
no explicit handle is passed down.  The ``PASTA_TELEMETRY`` environment
variable names a directory to activate telemetry in for processes not
started through the CLI flags (e.g. the perf benchmark harness).

Every record is optionally mirrored to the ``repro.obs`` stdlib logger at
DEBUG level, so an embedding application gets logs through plain ``logging``
configuration without ever touching the sink.
"""

from __future__ import annotations

import atexit
import logging
import os
import time
from pathlib import Path
from typing import ContextManager, Mapping, Optional, Sequence, Union

from repro import jsonl
from repro.active import ActiveHandle
from repro.obs.log import get_logger
from repro.obs.metrics import (
    DURATION_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NullInstrument,
)
from repro.obs.sink import JsonlSink, telemetry_path
from repro.obs.spans import NULL_SPAN, AttrValue, NullSpan, Span, SpanTracer

#: Environment variable naming a telemetry directory (or ``*.jsonl`` path).
TELEMETRY_ENV = "PASTA_TELEMETRY"

#: Bucket bounds (seconds) for the span wall-time self-histogram: spans range
#: from microsecond bookkeeping to whole-campaign roots, so the buckets span
#: µs to tens of minutes.
SPAN_WALL_BUCKETS_S = (
    0.000001, 0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0,
)

#: Seconds between partial metrics checkpoints (see ``Telemetry._emit``).
DEFAULT_CHECKPOINT_INTERVAL_S = 30.0


class Telemetry:
    """One run's telemetry: a tracer, a metrics registry and (optionally) a sink.

    Constructed via :meth:`open` (directory/file target) or directly with
    ``sink=None`` for a log-mirror-only telemetry (spans and metrics are
    tracked and mirrored to DEBUG logs, nothing is persisted).
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[JsonlSink] = None,
        *,
        checkpoint_interval_s: float = DEFAULT_CHECKPOINT_INTERVAL_S,
    ) -> None:
        self.sink = sink
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(emit=self._emit)
        self.span_wall = Histogram("telemetry.span_wall_s", SPAN_WALL_BUCKETS_S)
        self._log = get_logger("obs")
        self._closed = False
        self._checkpoint_interval_s = checkpoint_interval_s
        self._last_checkpoint = time.monotonic()
        if sink is not None:
            # A run that dies without close() (sys.exit, uncaught exception)
            # would lose the closing metrics snapshot and self-overhead
            # record; atexit covers those.  SIGKILL can't be covered by any
            # handler — there the sink's append-per-record is the safety net.
            atexit.register(self.close)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        target: Union[str, Path],
        *,
        rank: int = 0,
        provenance: Optional[Mapping[str, object]] = None,
        argv: Optional[Sequence[str]] = None,
        checkpoint_interval_s: float = DEFAULT_CHECKPOINT_INTERVAL_S,
    ) -> "Telemetry":
        """Create a telemetry writing to ``target`` (a directory or ``.jsonl``)."""
        sink = JsonlSink(
            telemetry_path(target),
            rank=rank,
            provenance=provenance,
            argv=list(argv) if argv is not None else None,
        )
        return cls(sink, checkpoint_interval_s=checkpoint_interval_s)

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def _emit(self, record: Mapping[str, object]) -> None:
        is_span = record.get("type") == "span"
        if is_span:
            self.span_wall.observe(float(record.get("wall_ns") or 0) / 1e9)
        if self.sink is not None:
            self.sink.write(record)
            if is_span:
                self._maybe_checkpoint()
        if self._log.isEnabledFor(logging.DEBUG):
            if record.get("type") == "span":
                wall_ns = record.get("wall_ns") or 0
                self._log.debug(
                    "span %s %.3fms status=%s counters=%s",
                    record.get("name"), wall_ns / 1e6,  # type: ignore[operator]
                    record.get("status"), record.get("counters"),
                )
            else:
                self._log.debug("%s %s", record.get("type"), dict(record))

    def _maybe_checkpoint(self) -> None:
        """Write a partial metrics snapshot if the interval has elapsed.

        A killed run keeps its spans (flush-per-write) but would otherwise
        lose every metric, since the full snapshot is only appended by
        ``close()``.  Periodic ``partial`` checkpoints bound that loss; the
        reader (``metrics_of``) keeps the *last* metrics record, so the
        closing snapshot supersedes every checkpoint on a clean run.
        """
        if self._checkpoint_interval_s <= 0:
            return
        now = time.monotonic()
        if now - self._last_checkpoint < self._checkpoint_interval_s:
            return
        self._last_checkpoint = now
        if len(self.metrics) and self.sink is not None:
            self.sink.write(
                {"type": "metrics", "partial": True, **self.metrics.snapshot()}
            )

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: AttrValue) -> Span:
        """Open a nested span (context manager)."""
        return self.tracer.span(name, **attrs)

    def record_span(self, name: str, wall_ns: int, **kwargs) -> None:
        """Emit an externally timed span (see :meth:`SpanTracer.record`)."""
        self.tracer.record(name, wall_ns, **kwargs)

    def event(self, name: str, **attrs: object) -> None:
        """Emit one point-in-time annotation record."""
        started = time.perf_counter_ns()
        self._emit(jsonl.envelope("event", name=name, attrs=dict(attrs)))
        self.tracer.self_time_ns += time.perf_counter_ns() - started

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def counter(self, name: str):
        """Get or create a counter."""
        return self.metrics.counter(name)

    def gauge(self, name: str):
        """Get or create a gauge."""
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets: Sequence[float] = DURATION_BUCKETS_S):
        """Get or create a fixed-bucket histogram."""
        return self.metrics.histogram(name, buckets)

    # ------------------------------------------------------------------ #
    # provenance + self-accounting
    # ------------------------------------------------------------------ #
    def annotate(self, **fields: object) -> None:
        """Attach late-bound provenance (spec digest, campaign name, ...)."""
        if self.sink is not None:
            self.sink.annotate_provenance(**fields)
        else:
            self.event("provenance", **fields)

    def elapsed_ns(self) -> Optional[int]:
        """Wall nanoseconds since the root span opened (``None`` before it has)."""
        root = self.tracer.root
        if root is None:
            return None
        return time.perf_counter_ns() - root._start_wall_ns

    def self_overhead_report(
        self, total_wall_ns: Optional[int] = None
    ) -> dict[str, object]:
        """What the telemetry layer itself cost, profiler-report style.

        ``telemetry_ns`` is the measured time spent inside span bookkeeping,
        metric snapshots and sink writes.  Given the run's total wall time it
        also estimates the telemetry-off wall time (total minus overhead) and
        the overhead fraction — the profiler reporting its own cost the way
        it reports the simulated instrumentation's.
        """
        overhead_ns = self.tracer.self_time_ns
        report: dict[str, object] = {
            "telemetry_enabled": True,
            "spans_recorded": self.tracer.spans_closed,
            "records_written": (
                self.sink.records_written if self.sink is not None else 0
            ),
            "telemetry_ns": overhead_ns,
        }
        if self.span_wall.count:
            report["span_wall_s"] = self.span_wall.as_value()
        if total_wall_ns:
            report["wall_ns_with_telemetry"] = int(total_wall_ns)
            report["wall_ns_estimated_without"] = max(0, int(total_wall_ns) - overhead_ns)
            # Sink setup (manifest write) can predate the root span on tiny
            # runs, so clamp rather than report a >100% fraction.
            report["overhead_fraction"] = min(1.0, overhead_ns / total_wall_ns)
        return report

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Finish any spans left open, snapshot metrics, close the sink."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        root = self.tracer.root
        total_wall_ns: Optional[int] = None
        if root is not None:
            root.finish()
            total_wall_ns = root.wall_ns
        final: list[Mapping[str, object]] = []
        if len(self.metrics):
            final.append({"type": "metrics", **self.metrics.snapshot()})
        final.append({
            "type": "self_overhead",
            **self.self_overhead_report(total_wall_ns),
        })
        if self.sink is not None:
            self.sink.close(final)
        elif self._log.isEnabledFor(logging.DEBUG):
            for record in final:
                self._log.debug("%s %s", record.get("type"), dict(record))

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullTelemetry:
    """The disabled telemetry: every operation is a shared no-op.

    All methods return immediately; ``span`` hands back the one
    :data:`~repro.obs.spans.NULL_SPAN` and the instrument getters the one
    :data:`~repro.obs.metrics.NULL_INSTRUMENT`, so disabled call sites cost
    a method call and no allocation.
    """

    enabled = False
    sink = None
    closed = False

    def span(self, name: str, **attrs: AttrValue) -> NullSpan:
        return NULL_SPAN

    def record_span(self, name: str, wall_ns: int, **kwargs) -> None:
        pass

    def event(self, name: str, **attrs: object) -> None:
        pass

    def counter(self, name: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Sequence[float] = DURATION_BUCKETS_S
    ) -> NullInstrument:
        return NULL_INSTRUMENT

    def annotate(self, **fields: object) -> None:
        pass

    def elapsed_ns(self) -> Optional[int]:
        return None

    def self_overhead_report(self, total_wall_ns: Optional[int] = None) -> dict[str, object]:
        return {"telemetry_enabled": False}

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The shared disabled telemetry (the module default).
NULL_TELEMETRY = NullTelemetry()

#: The process-wide active telemetry consulted by instrumented layers.
ACTIVE_TELEMETRY: ActiveHandle[Union[Telemetry, NullTelemetry]] = ActiveHandle(NULL_TELEMETRY)


def active() -> Union[Telemetry, NullTelemetry]:
    """The currently active telemetry (the shared null object when disabled)."""
    return ACTIVE_TELEMETRY.get()


def activate(telemetry: Union[Telemetry, NullTelemetry]) -> Union[Telemetry, NullTelemetry]:
    """Install ``telemetry`` as the process-wide active telemetry."""
    return ACTIVE_TELEMETRY.set(telemetry)


def deactivate() -> None:
    """Reset the active telemetry to the shared null object."""
    ACTIVE_TELEMETRY.set(NULL_TELEMETRY)


def activated(
    telemetry: Union[Telemetry, NullTelemetry], *, close: bool = True
) -> ContextManager[Union[Telemetry, NullTelemetry]]:
    """Scope ``telemetry`` as active, restoring (and closing) on exit."""
    return ACTIVE_TELEMETRY.scope(telemetry, close=close)


def from_env(environ: Optional[Mapping[str, str]] = None) -> Union[Telemetry, NullTelemetry]:
    """Telemetry named by ``PASTA_TELEMETRY`` (or the null telemetry)."""
    env = os.environ if environ is None else environ
    target = env.get(TELEMETRY_ENV)
    if not target:
        return NULL_TELEMETRY
    return Telemetry.open(target)
