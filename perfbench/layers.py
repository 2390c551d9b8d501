"""Outside-in layer tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :func:`install_layers`
replaces each layer's public entry points (class attributes and module-level
functions) with thin wrappers that record a span around every call, and
:meth:`Tracer.restore` puts the originals back.  Spans are kept in memory
and written out once, when the benchmark ends.

A layer's *self time* is its span's duration minus the time covered by the
spans it caused (its children), so the self times of all layers plus the
root span's own self time (``other``) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator, Optional, Union

#: Spans kept in memory for the spans file; later spans are only aggregated.
MAX_KEPT_SPANS = 100_000

SpanName = Union[str, Callable[..., str]]


class _ThreadState:
    """One thread's open-span stack and aggregates (merged at the end)."""

    def __init__(self) -> None:
        #: Open frames: [span_id, name, start_ns, child_ns, trace_id].
        self.stack: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Calls keyed by (parent name, name), e.g. processor submits whose
        #: caller is the event handler.
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        #: Per-call amounts a span reports besides its duration (records).
        self.amounts: dict[str, int] = defaultdict(int)


class Tracer:
    """Span recorder shared by every wrapped entry point."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: (span_id, parent_id, trace_id, name, start_ns, end_ns); the trace
        #: id is the id of the operation's root span.
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.spans_dropped = 0

    # ------------------------------------------------------------------ #
    # span recording
    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def _push(self, state: _ThreadState, name: str) -> list:
        span_id = next(self._ids)
        trace_id = state.stack[0][0] if state.stack else span_id
        frame = [span_id, name, perf_counter_ns(), 0, trace_id]
        state.stack.append(frame)
        return frame

    def _pop(self, state: _ThreadState, frame: list) -> None:
        end = perf_counter_ns()
        state.stack.pop()
        span_id, name, start, child_ns, trace_id = frame
        duration = end - start
        state.self_ns[name] += duration - child_ns
        state.total_ns[name] += duration
        state.calls[name] += 1
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[3] += duration
            state.edges[(parent[1], name)] += 1
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent[0] if parent else 0, trace_id,
                               name, start, end))
        else:
            self.spans_dropped += 1

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span (used for the root span)."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, fn: Callable, name: SpanName,
             amount: Optional[Callable[..., int]] = None) -> Callable:
        """``fn`` with a span around every call.

        ``name`` is a span name or a function of the call's arguments (for
        per-tool names); ``amount`` returns a count the call adds to the
        span's amount tally (for example the records in a batch).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            frame = tracer._push(state, name if isinstance(name, str) else name(*args))
            if amount is not None:
                state.amounts[frame[1]] += amount(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop(state, frame)

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """``fn`` returning an iterator: one span per ``next()`` on it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._timed_iter(fn(*args, **kwargs), name)

        return traced

    def _timed_iter(self, iterator: Iterator, name: str) -> Iterator:
        iterator = iter(iterator)
        while True:
            state = self._state()
            frame = self._push(state, name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._pop(state, frame)
            yield item

    def patch(self, owner: object, attr: str, name: SpanName,
              amount: Optional[Callable[..., int]] = None,
              iterator: bool = False) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if iterator:
            wrapped = self.wrap_iter(original, name)  # type: ignore[arg-type]
        else:
            wrapped = self.wrap(original, name, amount)  # type: ignore[arg-type]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def patch_with(self, owner: object, attr: str, replacement: Callable) -> None:
        """Replace ``owner.attr`` by an arbitrary function until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def totals(self) -> dict[str, dict]:
        """Aggregates merged over every thread."""
        merged: dict[str, dict] = {
            "self_ns": defaultdict(int), "total_ns": defaultdict(int),
            "calls": defaultdict(int), "edges": defaultdict(int),
            "amounts": defaultdict(int),
        }
        with self._lock:
            states = list(self._states)
        for state in states:
            for key in merged:
                for name, value in getattr(state, key).items():
                    merged[key][name] += value
        return merged

    def counts(self) -> dict[str, int]:
        """Every integer tally in one flat dict: ``<span>`` call counts,
        ``edge:<parent>><span>`` caller-specific calls and ``amount:<span>``."""
        totals = self.totals()
        flat = dict(totals["calls"])
        flat.update({f"edge:{parent}>{name}": v for (parent, name), v in totals["edges"].items()})
        flat.update({f"amount:{name}": v for name, v in totals["amounts"].items()})
        return flat

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent_id, trace_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "trace": trace_id,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
            if self.spans_dropped:
                fh.write(json.dumps({"dropped": self.spans_dropped}) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.state = self.tracer._state()
        self.frame = self.tracer._push(self.state, self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._pop(self.state, self.frame)


def _records_in(_processor: object, event: object) -> int:
    """Logical records in one event: a batch counts its length, others 1."""
    return len(event) if hasattr(type(event), "__len__") else 1  # type: ignore[arg-type]


def _tool_span(tool: object, *_args: object) -> str:
    return "tools." + str(getattr(tool, "tool_name", type(tool).__name__))


def _install_callback_wrapping(tracer: Tracer, owner: type, add: str, remove: str) -> None:
    """Trace the callables a layer registers with ``owner.add`` as ``handler``.

    The wrapper stands in for the registered callable, so ``owner.remove``
    is patched to translate the original back to its wrapper.
    """
    wrappers: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()
    original_add = owner.__dict__[add]
    original_remove = owner.__dict__[remove]

    def traced_add(registry, callback):
        known = wrappers.setdefault(registry, {})
        if callback not in known:
            known[callback] = tracer.wrap(callback, "handler")
        return original_add(registry, known[callback])

    def traced_remove(registry, callback):
        wrapped = wrappers.get(registry, {}).pop(callback, callback)
        return original_remove(registry, wrapped)

    tracer.patch_with(owner, add, traced_add)
    tracer.patch_with(owner, remove, traced_remove)


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import http.client

    import repro.campaign.scheduler as scheduler
    import repro.core.session as session
    import repro.replay.replayer as replayer
    from repro.campaign.scheduler import CampaignScheduler
    from repro.core.processor import DispatchUnit, PastaEventProcessor
    from repro.core.tool import PastaTool
    from repro.dlframework.callbacks import FrameworkCallbackRegistry
    from repro.dlframework.engine import ExecutionEngine
    from repro.gpusim.kernel import KernelLaunch
    from repro.replay.reader import TraceReader
    from repro.replay.writer import TraceWriter
    from repro.serve.client import JobHandle, ServeClient
    from repro.vendors.base import ProfilingBackend

    tracer.patch(KernelLaunch, "generate_instruction_batch", "gpusim")
    for method in ("prepare", "run_training", "run_inference"):
        tracer.patch(ExecutionEngine, method, "dlframework")
    for backend_cls in _subclasses(ProfilingBackend):
        for attr in sorted(vars(backend_cls)):
            if attr.startswith("on_") and callable(vars(backend_cls)[attr]):
                tracer.patch(backend_cls, attr, "vendors")
    _install_callback_wrapping(tracer, ProfilingBackend, "register_callback", "unregister_callback")
    for kind in ("operator", "memory"):
        _install_callback_wrapping(tracer, FrameworkCallbackRegistry,
                                   f"add_{kind}_callback", f"remove_{kind}_callback")
    tracer.patch(PastaEventProcessor, "submit", "processor", amount=_records_in)
    tracer.patch(DispatchUnit, "dispatch", "dispatch")
    tracer.patch(PastaTool, "handle_event", _tool_span)
    # collect_reports is imported by name into both modules that call it.
    tracer.patch(session, "collect_reports", "tools.report")
    tracer.patch(replayer, "collect_reports", "tools.report")
    tracer.patch(TraceWriter, "write", "replay.encode")
    tracer.patch(TraceWriter, "close", "replay.close")
    tracer.patch(TraceReader, "events", "replay.decode", iterator=True)
    tracer.patch(replayer.TraceReplayer, "run", "replay.replayer")
    tracer.patch(CampaignScheduler, "run", "campaign")
    # The scheduler looks these up as its own module globals.
    tracer.patch(scheduler, "record_workload_trace", "campaign.record")
    tracer.patch(scheduler, "replay_payload", "campaign.replay")
    tracer.patch(ServeClient, "submit", "serve.submit")
    tracer.patch(ServeClient, "stream", "serve.stream", iterator=True)
    tracer.patch(ServeClient, "status", "serve.status")
    tracer.patch(JobHandle, "result", "serve.result")
    tracer.patch(http.client.HTTPConnection, "connect", "serve.connect")
