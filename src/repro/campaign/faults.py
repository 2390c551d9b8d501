"""Deterministic fault injection for the campaign fabric.

Crash-safety claims are only worth what the tests that exercise them are
worth, so the campaign layer carries its own chaos harness.  A
:class:`FaultPlan` is a declarative list of :class:`FaultRule` entries —
*which site* (``runner.execute``, ``cache.put``, ``store.append``,
``scheduler.job``, ``progress.write``, ``telemetry.write``,
``trace.write`` …), *which kind* of fault, and *when* (after N clean hits,
at most M times, with a seeded probability) — and a :class:`FaultInjector`
arms the plan behind :data:`ACTIVE_FAULTS`, the same process-global active
handle the telemetry and progress layers use.  Instrumented sites call
``active_faults().fire(site, label=...)`` unconditionally; with no plan
armed that is one method call on the shared :data:`NULL_FAULTS` object.

Fault kinds
-----------
``error``
    Raise :class:`InjectedFault` at the site (exercises retry/backoff and
    the graceful-degradation policies).
``slow``
    Sleep ``delay_s`` at the site (exercises timeouts and work-stealing).
``crash`` / ``worker_kill``
    ``SIGKILL`` the calling process — nothing is flushed, no handler runs.
    This is the ``kill -9`` drill; only meaningful from a subprocess test
    or a dedicated worker.
``torn_write``
    Returned to the call site, which must emulate a write torn mid-line
    (:func:`repro.jsonl.append` and the trace writer write half a record,
    then raise).
``cache_corrupt``
    Returned to the call site, which must corrupt the just-written payload
    (the cache truncates the entry's JSON on disk).

Determinism: every probabilistic draw comes from one ``random.Random``
seeded by the plan, and ``after``/``times`` counters are per-rule, so a
given (plan, call sequence) pair always injects the same faults.  The
``PASTA_FAULTS`` environment variable (inline JSON or a path to a JSON
file) arms a plan in processes not started through the CLI — notably
process-pool workers, which inherit the environment but not the parent's
in-process injector.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ContextManager, Mapping, Optional, Union

from repro.active import ActiveHandle
from repro.errors import ReproError

#: Environment variable carrying a fault plan (inline JSON or a file path).
FAULTS_ENV = "PASTA_FAULTS"

#: Everything a rule may inject.
FAULT_KINDS = ("error", "slow", "crash", "worker_kill", "torn_write", "cache_corrupt")

#: Kinds the injector resolves itself; the rest are returned to the site.
_SELF_SERVICE_KINDS = ("error", "slow", "crash", "worker_kill")


class InjectedFault(ReproError):
    """An ``error``-kind fault fired by the injection harness."""


@dataclass(frozen=True)
class FaultRule:
    """One arming: inject ``kind`` at ``site`` under the given schedule."""

    site: str
    kind: str
    #: Fire at most this many times (0 = unlimited).
    times: int = 1
    #: Let this many matching hits pass untouched first.
    after: int = 0
    #: Seeded Bernoulli applied per otherwise-eligible hit.
    probability: float = 1.0
    #: Sleep length for ``slow`` faults.
    delay_s: float = 0.05
    #: Substring filter against the site's context label ("" matches all).
    match: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not self.site:
            raise ReproError("fault rules need a non-empty site")
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(f"fault probability must be in [0, 1], got {self.probability}")
        if self.times < 0 or self.after < 0 or self.delay_s < 0:
            raise ReproError("fault times/after/delay_s must be >= 0")

    def to_dict(self) -> dict[str, object]:
        return {
            "site": self.site, "kind": self.kind, "times": self.times,
            "after": self.after, "probability": self.probability,
            "delay_s": self.delay_s, "match": self.match,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultRule":
        unknown = set(data) - {"site", "kind", "times", "after", "probability",
                               "delay_s", "match"}
        if unknown:
            raise ReproError(f"unknown FaultRule fields: {sorted(unknown)}")
        if "site" not in data or "kind" not in data:
            raise ReproError("fault rules need 'site' and 'kind'")
        return cls(
            site=str(data["site"]),
            kind=str(data["kind"]),
            times=int(data.get("times", 1)),  # type: ignore[arg-type]
            after=int(data.get("after", 0)),  # type: ignore[arg-type]
            probability=float(data.get("probability", 1.0)),  # type: ignore[arg-type]
            delay_s=float(data.get("delay_s", 0.05)),  # type: ignore[arg-type]
            match=str(data.get("match", "")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules, loadable from JSON / ``PASTA_FAULTS``."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def to_dict(self) -> dict[str, object]:
        return {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        unknown = set(data) - {"rules", "seed"}
        if unknown:
            raise ReproError(f"unknown FaultPlan fields: {sorted(unknown)}")
        rules = data.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise ReproError("FaultPlan.rules must be a list")
        return cls(
            rules=tuple(FaultRule.from_dict(r) for r in rules),
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
        )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a plan from inline JSON or a path to a JSON file."""
        candidate = text.strip()
        if not candidate.startswith("{"):
            path = Path(candidate)
            if not path.exists():
                raise ReproError(f"fault plan file not found: {path}")
            candidate = path.read_text(encoding="utf-8")
        try:
            data = json.loads(candidate)
        except json.JSONDecodeError as error:
            raise ReproError(f"fault plan is not valid JSON: {error}") from error
        if not isinstance(data, Mapping):
            raise ReproError("fault plan JSON must be an object")
        return cls.from_dict(data)


class FaultInjector:
    """Arms one :class:`FaultPlan`: per-rule counters + one seeded RNG."""

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._hits: dict[int, int] = {}
        self._fired: dict[int, int] = {}
        self.injected = 0

    def fire(self, site: str, label: str = "") -> Optional[FaultRule]:
        """One instrumented hit at ``site``.

        Self-service kinds act here (raise / sleep / SIGKILL); file-mangling
        kinds are returned for the call site to apply.  Returns ``None``
        when nothing injects.
        """
        for index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            if rule.match and rule.match not in label:
                continue
            hits = self._hits.get(index, 0)
            self._hits[index] = hits + 1
            if hits < rule.after:
                continue
            if rule.times and self._fired.get(index, 0) >= rule.times:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            self._fired[index] = self._fired.get(index, 0) + 1
            self.injected += 1
            self._note(site, rule, label)
            if rule.kind == "error":
                raise InjectedFault(f"injected fault at {site} ({label or 'no label'})")
            if rule.kind == "slow":
                time.sleep(rule.delay_s)
                return rule
            if rule.kind in ("crash", "worker_kill"):
                os.kill(os.getpid(), signal.SIGKILL)
            return rule
        return None

    @staticmethod
    def _note(site: str, rule: FaultRule, label: str) -> None:
        """Announce the injection on the telemetry stream (instant event)."""
        from repro.obs.telemetry import active as _active_telemetry

        telemetry = _active_telemetry()
        if telemetry.enabled:
            # Announcing a telemetry.write fault would write to the stream
            # it tears, and fire the rule again.
            if site != "telemetry.write":
                telemetry.event(
                    "fault.injected", site=site, kind=rule.kind, label=label
                )
            telemetry.counter("faults.injected").inc()


class NullFaults:
    """The disarmed harness: ``fire`` falls through immediately."""

    enabled = False
    injected = 0
    plan = FaultPlan()

    def fire(self, site: str, label: str = "") -> Optional[FaultRule]:
        return None


#: The shared disarmed harness (the module default).
NULL_FAULTS = NullFaults()


def from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Union[FaultInjector, NullFaults]:
    """Injector armed from ``PASTA_FAULTS`` (or the shared null harness)."""
    env = os.environ if environ is None else environ
    target = env.get(FAULTS_ENV)
    if not target:
        return NULL_FAULTS
    return FaultInjector(FaultPlan.parse(target))


#: The process-wide active harness.  First use arms it from ``PASTA_FAULTS``,
#: so process-pool workers (fresh interpreters that inherit the environment,
#: not the parent's objects) arm the same plan the parent was launched with.
ACTIVE_FAULTS: ActiveHandle[Union[FaultInjector, NullFaults]] = ActiveHandle(NULL_FAULTS, arm=from_env)


def active_faults() -> Union[FaultInjector, NullFaults]:
    """The process-wide active injector (armed from ``PASTA_FAULTS`` on first use)."""
    return ACTIVE_FAULTS.get()


def activate_faults(
    injector: Union[FaultInjector, NullFaults],
) -> Union[FaultInjector, NullFaults]:
    """Install ``injector`` as the process-wide active harness."""
    return ACTIVE_FAULTS.set(injector)


def deactivate_faults() -> None:
    """Disarm: reset the active harness to the shared null object."""
    ACTIVE_FAULTS.set(NULL_FAULTS)


def faults_scope(
    injector: Union[FaultInjector, NullFaults],
) -> ContextManager[Union[FaultInjector, NullFaults]]:
    """Scope ``injector`` as active, restoring the previous harness on exit."""
    return ACTIVE_FAULTS.scope(injector, close=False)


__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "NULL_FAULTS",
    "NullFaults",
    "activate_faults",
    "active_faults",
    "deactivate_faults",
    "faults_scope",
    "from_env",
]
