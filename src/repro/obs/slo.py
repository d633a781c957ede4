"""Per-tenant SLO objectives with multi-window burn-rate alerting.

The serving tier records one event per front-door request — ``(time,
ok, latency)`` — and this module turns those into the operator-facing
question: *is tenant X's error budget burning fast enough to page?*

Objectives are declarative (:func:`parse_slo_config`): ``availability``
(fraction of requests that must succeed) and ``latency_pNN_ms``
(quantile-threshold objectives — a request slower than the threshold
spends error budget exactly like a failed one).  Evaluation follows
the SRE multi-window burn-rate recipe: an alert fires only when *every*
window's burn rate (bad fraction ÷ error budget) exceeds its
threshold — the fast window (5 min, burn > 14.4) makes alerts prompt,
the slow window (1 h, burn > 6) keeps a brief blip from paging.
Firing/resolved transitions land in a bounded audit trail, the
``repro_slo_*`` counters, and the timeseries store (kind ``"slo"``),
and surface in report schema v4.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass, replace

from repro.obs.audit import AuditTrail

__all__ = [
    "BurnWindow",
    "DEFAULT_WINDOWS",
    "SLOEngine",
    "SLOStatus",
    "SLObjective",
    "parse_slo_config",
]


@dataclass(frozen=True, slots=True)
class BurnWindow:
    """One evaluation window: events from the last ``seconds`` fire
    when their burn rate exceeds ``max_burn``."""

    seconds: float
    max_burn: float

    def to_dict(self) -> dict:
        return {"seconds": self.seconds, "max_burn": self.max_burn}


#: The classic SRE fast/slow pair: a 5-minute window at 14.4× burn
#: (2% of a 30-day budget in an hour) and a 1-hour window at 6× burn.
DEFAULT_WINDOWS: tuple[BurnWindow, ...] = (
    BurnWindow(seconds=300.0, max_burn=14.4),
    BurnWindow(seconds=3600.0, max_burn=6.0),
)


@dataclass(frozen=True, slots=True)
class SLObjective:
    """One declarative objective.  ``tenant`` may be ``"*"`` — a
    default applied to every tenant without explicit objectives.
    ``target`` is the required good fraction in (0, 1); for
    ``kind="latency"`` a request is bad when it fails *or* takes longer
    than ``latency_seconds``."""

    tenant: str
    kind: str  # "availability" | "latency"
    target: float
    latency_seconds: float | None = None

    def __post_init__(self):
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be a fraction in (0, 1)")
        if self.kind == "latency" and (
                self.latency_seconds is None or self.latency_seconds <= 0):
            raise ValueError("latency objectives need latency_seconds > 0")

    @property
    def budget(self) -> float:
        """The error budget: the bad fraction the target tolerates."""
        return 1.0 - self.target

    @property
    def name(self) -> str:
        if self.kind == "availability":
            return f"availability({self.target * 100:g}%)"
        return (f"latency_p{self.target * 100:g}"
                f"<{self.latency_seconds * 1000:g}ms")

    def bad(self, ok: bool, latency_seconds: float) -> bool:
        if self.kind == "availability":
            return not ok
        return (not ok) or latency_seconds > self.latency_seconds

    def to_dict(self) -> dict:
        return {"tenant": self.tenant, "kind": self.kind,
                "target": self.target, "name": self.name,
                "latency_seconds": self.latency_seconds}


_LATENCY_KEY = re.compile(r"^latency_p(\d+(?:\.\d+)?)_ms$")


def parse_slo_config(data: dict) -> tuple[SLObjective, ...]:
    """Objectives from declarative config::

        {"tenants": {"*":       {"availability": 0.999,
                                 "latency_p99_ms": 250},
                     "fleet-a": {"latency_p95_ms": 100}}}

    ``availability`` values are good fractions; ``latency_pNN_ms`` keys
    set a latency threshold at percentile NN.  A tenant with explicit
    objectives opts out of the ``"*"`` defaults entirely.
    """
    tenants = data.get("tenants")
    if not isinstance(tenants, dict):
        raise ValueError('SLO config needs a "tenants" mapping')
    objectives: list[SLObjective] = []
    for tenant, spec in tenants.items():
        if not isinstance(spec, dict):
            raise ValueError(f"tenant {tenant!r}: spec must be a mapping")
        for key, value in spec.items():
            if key == "availability":
                objectives.append(SLObjective(
                    tenant=tenant, kind="availability",
                    target=float(value)))
                continue
            m = _LATENCY_KEY.match(key)
            if m is None:
                raise ValueError(
                    f"tenant {tenant!r}: unknown objective key {key!r}")
            objectives.append(SLObjective(
                tenant=tenant, kind="latency",
                target=float(m.group(1)) / 100.0,
                latency_seconds=float(value) / 1000.0))
    if not objectives:
        raise ValueError("SLO config declares no objectives")
    return tuple(objectives)


@dataclass(frozen=True, slots=True)
class _Event:
    t: float
    ok: bool
    latency: float


@dataclass(frozen=True, slots=True)
class SLOStatus:
    """One (tenant, objective) evaluation: per-window burn rates plus
    the AND-of-windows firing verdict."""

    tenant: str
    objective: SLObjective
    windows: tuple[dict, ...]
    firing: bool

    def to_dict(self) -> dict:
        return {"tenant": self.tenant,
                "objective": self.objective.name,
                "kind": self.objective.kind,
                "target": self.objective.target,
                "windows": [dict(w) for w in self.windows],
                "firing": self.firing}


class SLOEngine:
    """Records request outcomes and evaluates burn-rate alerts.

    ``clock`` is injectable (monotonic seconds) for deterministic
    tests; ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) and
    ``timeseries`` (a :class:`~repro.obs.TimeseriesStore`) are optional
    sinks for evaluation counters and the alert audit trail.
    ``min_events`` keeps a window from firing off a handful of events.
    """

    def __init__(self, objectives, windows: tuple[BurnWindow, ...]
                 = DEFAULT_WINDOWS, clock=time.monotonic,
                 metrics=None, timeseries=None, min_events: int = 10,
                 capacity: int = 65536):
        self.objectives = tuple(objectives)
        if not self.objectives:
            raise ValueError("SLOEngine needs at least one objective")
        self.windows = tuple(windows)
        self.min_events = int(min_events)
        self._clock = clock
        self._metrics = metrics
        self._events: dict[str, deque[_Event]] = {}
        self._capacity = int(capacity)
        self._firing: set[tuple[str, str]] = set()
        self._audit = AuditTrail("slo", timeseries=timeseries,
                                 metrics=metrics)
        self._last_statuses: tuple[SLOStatus, ...] = ()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def record(self, tenant: str, ok: bool, latency_seconds: float,
               t: float | None = None) -> None:
        event = _Event(t=self._clock() if t is None else float(t),
                       ok=bool(ok), latency=float(latency_seconds))
        with self._lock:
            bucket = self._events.get(tenant)
            if bucket is None:
                bucket = self._events[tenant] = deque(
                    maxlen=self._capacity)
            bucket.append(event)

    # -- objective resolution ----------------------------------------------

    def objectives_for(self, tenant: str) -> tuple[SLObjective, ...]:
        explicit = tuple(o for o in self.objectives if o.tenant == tenant)
        if explicit:
            return explicit
        return tuple(replace(o, tenant=tenant) for o in self.objectives
                     if o.tenant == "*")

    # -- evaluation --------------------------------------------------------

    def evaluate(self, t: float | None = None) -> tuple[SLOStatus, ...]:
        """Evaluate every (tenant, objective) pair against every window;
        records firing/resolved *transitions* into the audit trail, the
        metrics registry and the timeseries store, so re-evaluating a
        still-firing alert does not re-page."""
        now = self._clock() if t is None else float(t)
        with self._lock:
            events = {tenant: list(bucket)
                      for tenant, bucket in self._events.items()}
        tenants = set(events) | {o.tenant for o in self.objectives
                                 if o.tenant != "*"}
        statuses: list[SLOStatus] = []
        for tenant in sorted(tenants):
            tenant_events = events.get(tenant, [])
            for objective in self.objectives_for(tenant):
                windows: list[dict] = []
                firing = True
                for window in self.windows:
                    recent = [e for e in tenant_events
                              if e.t >= now - window.seconds]
                    bad = sum(1 for e in recent
                              if objective.bad(e.ok, e.latency))
                    n = len(recent)
                    bad_fraction = bad / n if n else 0.0
                    burn = bad_fraction / objective.budget
                    window_firing = (n >= self.min_events
                                     and burn > window.max_burn)
                    firing = firing and window_firing
                    windows.append({
                        "seconds": window.seconds,
                        "max_burn": window.max_burn,
                        "events": n,
                        "bad": bad,
                        "bad_fraction": bad_fraction,
                        "burn_rate": burn,
                        "firing": window_firing,
                    })
                statuses.append(SLOStatus(
                    tenant=tenant, objective=objective,
                    windows=tuple(windows), firing=firing))
        with self._lock:
            for status in statuses:
                self._transition_locked(status, now)
            self._last_statuses = tuple(statuses)
        if self._metrics is not None:
            self._metrics.counter("repro_slo_evaluations_total").inc()
        return tuple(statuses)

    def _transition_locked(self, status: SLOStatus, now: float) -> None:
        key = (status.tenant, status.objective.name)
        if status.firing and key not in self._firing:
            self._firing.add(key)
            self._record_transition("firing", status, now)
        elif not status.firing and key in self._firing:
            self._firing.discard(key)
            self._record_transition("resolved", status, now)

    def _record_transition(self, action: str, status: SLOStatus,
                           now: float) -> None:
        entry = {"action": action, "tenant": status.tenant,
                 "objective": status.objective.name,
                 "kind": status.objective.kind,
                 "target": status.objective.target,
                 "burn_rates": [w["burn_rate"] for w in status.windows],
                 "t": now}
        self._audit.append(
            entry, "repro_slo_alerts_total" if action == "firing" else None,
            {"tenant": status.tenant, "objective": status.objective.name})

    # -- inspection --------------------------------------------------------

    @property
    def firing(self) -> tuple[tuple[str, str], ...]:
        """Currently-firing ``(tenant, objective_name)`` pairs."""
        with self._lock:
            return tuple(sorted(self._firing))

    def status_dicts(self) -> list[dict]:
        """The last evaluation's statuses as plain data (empty before
        the first :meth:`evaluate`)."""
        with self._lock:
            statuses = self._last_statuses
        return [s.to_dict() for s in statuses]

    def audit_dicts(self) -> list[dict]:
        return self._audit.dicts()

    def objective_dicts(self) -> list[dict]:
        return [o.to_dict() for o in self.objectives]
