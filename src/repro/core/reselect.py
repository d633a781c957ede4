"""Workload-drift-triggered online replica reselection.

The Eq. 1-5 selection is only optimal *for the workload it was solved
against*.  Section VI's experiments fix the workload up front; a live
deployment does not get that luxury — query mixes shift (a city-wide
scan workload turns into a hot-spot probe workload overnight) and the
incumbent ``R*`` silently degrades while every individual query still
succeeds.  This module closes that loop:

1. **Mine** the live query distribution: the engine feeds every served
   query into a bounded, thread-safe :class:`QueryLogger`.
2. **Detect drift**: :func:`workload_divergence` measures the
   Jensen-Shannon divergence between the baseline workload (the one the
   incumbent was selected for) and the observed one, over the shared
   cluster structure that :func:`~repro.core.grouping.reduce_workload`
   induces — scale-free, symmetric and bounded in ``[0, 1]``.
3. **Re-solve incrementally**: :func:`warm_reselect` restricts the
   Eq. 1-5 instance to the incumbent columns plus each query's cheapest
   candidate and runs the local-search solver *warm-started from the
   incumbent* — orders of magnitude less work than a cold solve over
   the full candidate cross product, with the incumbent's objective as
   a floor (local search only ever improves on its start).
4. **Act online**: new replicas are built in the background and
   registered before displaced ones are retired.  Each register and
   each retire is one atomic publication of the store's serving set
   (``BlotStore`` replaces its replica mapping by reference; reads take
   no lock), so a racing reader routes against the old set, the
   superset or the new set — never an empty or half-edited one — and a
   ranking that still names a retired replica fails over down its
   Eq. 6-7 order inside the engine: reads never block or truncate
   across the transition.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.grouping import reduce_workload
from repro.core.localsearch import local_search_select
from repro.core.problem import Selection, SelectionInstance
from repro.obs.audit import AuditTrail
from repro.obs.reselection import ReselectionUpdate
from repro.obs.trace import NULL_RECORDER
from repro.workload.generator import workload_from_query_log
from repro.workload.query import GroupedQuery, Query, Workload

__all__ = [
    "QueryLogger",
    "ReselectionConfig",
    "ReselectionController",
    "replica_builder",
    "warm_reselect",
    "workload_divergence",
]


# -- the query log ------------------------------------------------------------


class QueryLogger:
    """Accumulates executed queries, the raw material for retuning.

    The log is a bounded ring buffer guarded by a lock: under always-on
    serving, ``record()`` arrives concurrently from the workload thread
    pool, and an unbounded list would both race on append and grow
    without limit for the life of the process.  ``capacity`` bounds the
    retained window (retuning cares about the *recent* distribution
    anyway); overflow drops the oldest entry and bumps ``evicted`` so
    operators can tell a short log from a saturated one.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._log: deque[Query] = deque(maxlen=self.capacity)
        self._recorded = 0
        self._evicted = 0
        self._lock = threading.Lock()

    def record(self, query: Query) -> None:
        with self._lock:
            if len(self._log) == self.capacity:
                self._evicted += 1
            self._log.append(query)
            self._recorded += 1

    @property
    def recorded(self) -> int:
        """Queries recorded over the logger's lifetime."""
        with self._lock:
            return self._recorded

    @property
    def evicted(self) -> int:
        """Queries dropped from the ring buffer to stay within
        ``capacity`` (``clear()`` does not count)."""
        with self._lock:
            return self._evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._log)

    def queries(self) -> list[Query]:
        with self._lock:
            return list(self._log)

    def clear(self) -> None:
        with self._lock:
            self._log.clear()

    def to_workload(
        self,
        max_grouped_queries: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> Workload:
        """The logged queries as a weighted grouped workload.

        Identical range sizes merge (Section III-C1); when the number of
        distinct sizes still exceeds ``max_grouped_queries`` they are
        k-means-clustered down to that many centers.
        """
        log = self.queries()
        if not log:
            raise ValueError("query log is empty")
        workload = workload_from_query_log(log)
        if max_grouped_queries is not None and len(workload) > max_grouped_queries:
            if rng is None:
                rng = np.random.default_rng(0)
            workload = reduce_workload(workload, max_grouped_queries, rng).reduced
        return workload


# -- drift signal -------------------------------------------------------------


def _grouped_weights(workload: Workload) -> dict[GroupedQuery, float]:
    return {q: w for q, w in workload.grouped().normalized()}


def workload_divergence(
    baseline: Workload,
    observed: Workload,
    k: int = 8,
    rng: np.random.Generator | None = None,
) -> float:
    """Jensen-Shannon divergence in ``[0, 1]`` between two workloads'
    grouped weight distributions.

    Both sides are grouped and normalized, merged into one extent set,
    clustered with :func:`~repro.core.grouping.reduce_workload` (so
    near-identical extents land in the same bucket and don't read as
    disjoint), and compared per cluster.  0 means identical mixes, 1
    means disjoint support.  Deterministic given ``rng``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    p_of = _grouped_weights(baseline)
    q_of = _grouped_weights(observed)
    extents = list(p_of)
    extents.extend(g for g in q_of if g not in p_of)
    # Cluster the merged extent set once; the average of the two sides
    # weights the k-means so clusters reflect both mixes.  A plain dict
    # merge (never a combined Workload of raw entries) sidesteps
    # Workload's duplicate-query rejection.
    merged = Workload([
        (g, 0.5 * p_of.get(g, 0.0) + 0.5 * q_of.get(g, 0.0))
        for g in extents
    ])
    labels = reduce_workload(merged, k, rng).labels
    n_clusters = int(labels.max()) + 1 if len(labels) else 1
    p = np.zeros(n_clusters)
    q = np.zeros(n_clusters)
    for idx, g in enumerate(extents):
        p[labels[idx]] += p_of.get(g, 0.0)
        q[labels[idx]] += q_of.get(g, 0.0)
    m = 0.5 * (p + q)

    def _kl(a: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / m[mask])))

    js = 0.5 * _kl(p) + 0.5 * _kl(q)
    # ln 2 is the JS maximum (disjoint support); clamp tiny float debris.
    return min(max(js / math.log(2.0), 0.0), 1.0)


# -- incremental re-solve -----------------------------------------------------


def warm_reselect(
    instance: SelectionInstance,
    incumbent: Sequence[int],
    max_passes: int = 20,
) -> Selection:
    """Re-solve Eq. 1-5 warm-started from the incumbent selection.

    The search pool is the incumbent's columns plus each query's
    cheapest candidate (the per-query capped-cost argmin) — every
    single-replica lower bound is reachable, and the incumbent is the
    start point, so the result never scores worse than the incumbent on
    the capped objective.  Runs local search on the restricted
    sub-instance and maps the answer back to full-instance indices.
    """
    m = instance.n_replicas
    incumbent_cols = sorted({int(j) for j in incumbent if 0 <= int(j) < m})
    pool = set(incumbent_cols)
    if instance.n_queries and m:
        pool.update(int(j) for j in instance.capped_costs.argmin(axis=1))
    if not pool:
        pool.update(range(min(m, 1)))
    pool_list = sorted(pool)
    sub = instance.restricted_to(pool_list)
    pos = {j: k for k, j in enumerate(pool_list)}

    start = None
    start_sub = tuple(sorted(pos[j] for j in incumbent_cols))
    if start_sub and sub.is_feasible(start_sub):
        start = Selection(
            selected=start_sub,
            cost=sub.workload_cost(start_sub),
            storage=sub.storage_of(start_sub),
            optimal=False,
            solver="incumbent",
        )
    refined = local_search_select(sub, start=start, max_passes=max_passes)
    selected = tuple(sorted(pool_list[k] for k in refined.selected))
    return Selection(
        selected=selected,
        cost=instance.workload_cost(selected),
        storage=instance.storage_of(selected),
        optimal=False,
        solver=f"warm[{len(pool_list)}/{m}]+{refined.solver}",
    )


# -- physical builds ----------------------------------------------------------


def replica_builder(
    dataset,
    partitioning_schemes: Sequence,
    encoding_schemes: Sequence,
    unit_store_factory: Callable[[], object] | None = None,
    universe=None,
) -> Callable[[str], object]:
    """A ``profile name -> StoredReplica`` factory over the advisor's
    candidate namespace (``"<scheme>/<encoding>"``).

    The controller calls it off the serving path for every replica the
    winning selection needs built; each build lands in a fresh unit
    store from ``unit_store_factory`` (in-memory by default).
    """
    schemes = {s.name: s for s in partitioning_schemes}
    encodings = {e.name: e for e in encoding_schemes}

    def build(profile_name: str):
        from repro.storage import InMemoryStore, build_replica

        scheme_name, sep, encoding_name = profile_name.rpartition("/")
        if not sep or scheme_name not in schemes \
                or encoding_name not in encodings:
            raise KeyError(f"no builder for candidate {profile_name!r}")
        store = (InMemoryStore() if unit_store_factory is None
                 else unit_store_factory())
        return build_replica(dataset, schemes[scheme_name],
                             encodings[encoding_name], store,
                             name=profile_name, universe=universe)

    return build


# -- the controller -----------------------------------------------------------

#: The counter each audited action bumps (a dry run counts as neither).
_DECISION_COUNTERS = {"applied": "repro_reselect_applied_total",
                      "rejected": "repro_reselect_rejected_total"}


@dataclass(frozen=True)
class ReselectionConfig:
    """Guards on the drift -> re-solve -> swap loop."""

    #: Jensen-Shannon divergence in (0, 1] below which the observed
    #: workload counts as "the one we already selected for".
    drift_threshold: float = 0.2
    #: Observed queries required before an evaluation is attempted, and
    #: the cooldown (in further queries) after any evaluation.
    min_queries: int = 32
    #: Relative Eq. 5 improvement required to actually swap.
    min_improvement: float = 0.02
    #: Cluster count for workload reduction / divergence.
    max_grouped_queries: int = 8
    #: Query-log ring capacity.
    capacity: int = 4096
    #: Audit what would change, touch nothing.
    dry_run: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.drift_threshold <= 1.0:
            raise ValueError("drift_threshold must be in (0, 1]")
        if self.min_queries < 1:
            raise ValueError("min_queries must be >= 1")
        if self.min_improvement < 0.0:
            raise ValueError("min_improvement must be >= 0")
        if self.max_grouped_queries < 1:
            raise ValueError("max_grouped_queries must be >= 1")


class ReselectionController:
    """Drift-triggered, warm-started, non-blocking replica reselection.

    Wire one to an engine via
    :meth:`repro.obs.Observability.attach_reselector`: the engine then
    feeds every served query into :meth:`observe` and offers
    :meth:`maybe_reselect` a shot after each served call (both are a
    counter check until ``min_queries`` fresh queries accumulate; the
    evaluation itself then runs on a background thread, so the query
    that trips the gate pays neither the re-solve nor the builds).

    An evaluation: group the observed log, measure
    :func:`workload_divergence` against the baseline workload, and —
    past the threshold — rebuild the Eq. 1-5 instance for the observed
    workload and :func:`warm_reselect` from the incumbent.  A winning
    candidate set is applied *install-first*: new replicas are built
    (the slow part), registered, and only then are displaced replicas
    retired — each step one atomic publication of the store's serving
    set, so a concurrent read sees the old set, the superset or the new
    set and takes no lock.  The engine keys its decoded-partition cache
    and zone memos by replica object, so a read still scanning a
    retired replica cannot leak into its successor, and stale rankings
    fail over inside the engine, so concurrent reads stay correct and
    non-blocking throughout.

    Every decision lands in :attr:`audit_log` (a bounded
    :class:`~repro.obs.audit.AuditTrail`), in the
    ``repro_reselect_*`` counters, and (when a timeseries store is
    attached) in the on-disk history as a ``"reselection"`` entry.
    """

    def __init__(
        self,
        store,
        advisor,
        budget: float,
        baseline: Workload,
        *,
        build: Callable[[str], object] | None = None,
        config: ReselectionConfig | None = None,
        obs=None,
        timeseries=None,
        rng: np.random.Generator | None = None,
    ):
        if budget <= 0:
            raise ValueError("budget must be positive")
        if len(baseline) == 0:
            raise ValueError("baseline workload is empty")
        self.store = store
        self.advisor = advisor
        self.budget = float(budget)
        self.baseline = baseline
        self.config = config or ReselectionConfig()
        self.obs = obs
        self.logger = QueryLogger(capacity=self.config.capacity)
        self.epoch = 0
        self.audit_log = AuditTrail(
            "reselection", timeseries=timeseries,
            metrics=obs.metrics if obs is not None else None)
        self._build = build
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._gate = threading.Lock()        # one evaluation at a time
        self._next_eval = self.config.min_queries
        self._thread: threading.Thread | None = None

    # -- mining ------------------------------------------------------------

    def observe(self, query: Query) -> None:
        """One served query, straight off the engine's serving path."""
        self.logger.record(query)

    # -- the loop ----------------------------------------------------------

    def maybe_reselect(self) -> None:
        """Engine hook: a counter check until ``min_queries`` fresh
        queries have accumulated, then one evaluation handed to a
        background thread.  Never blocks behind a running evaluation;
        :meth:`wait` joins it, :meth:`evaluate` is the synchronous
        form."""
        if self.logger.recorded < self._next_eval:
            return
        if not self._gate.acquire(blocking=False):
            return
        if self.logger.recorded < self._next_eval:
            # An evaluation finished between the two checks above.
            self._gate.release()
            return
        thread = threading.Thread(
            target=self._evaluate_and_release,
            name="repro-reselect", daemon=True)
        self._thread = thread
        thread.start()

    def evaluate(self, force: bool = False) -> ReselectionUpdate | None:
        """Run one evaluation now (blocking).  ``force`` skips the
        drift gate — the CLI drill and tests use it."""
        with self._gate:
            return self._evaluate_locked(force=force)

    def wait(self, timeout: float | None = None) -> None:
        """Join a background evaluation, if one is running."""
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def _evaluate_and_release(self) -> None:
        try:
            self._evaluate_locked(force=False)
        finally:
            self._gate.release()

    # -- one evaluation ----------------------------------------------------

    def _evaluate_locked(self, force: bool) -> ReselectionUpdate | None:
        # Evaluations are background spans in the shared trace stream:
        # a p99 blip at the front door can be lined up against a
        # concurrent warm re-solve or replica build.
        tracer = self.obs.tracer if self.obs is not None else NULL_RECORDER
        with tracer.start("bg_reselect", kind="background") as span:
            update = self._evaluate_inner(force)
            if update is not None:
                span.annotate(action=update.action,
                              divergence=update.divergence)
            return update

    def _evaluate_inner(self, force: bool) -> ReselectionUpdate | None:
        cfg = self.config
        # Cooldown first: win or lose, don't re-litigate until fresh
        # evidence accumulates.
        self._next_eval = self.logger.recorded + cfg.min_queries
        if len(self.logger) == 0:
            return None
        if not force and len(self.logger) < cfg.min_queries:
            return None

        observed = self.logger.to_workload(
            max_grouped_queries=cfg.max_grouped_queries, rng=self._rng)
        divergence = workload_divergence(
            self.baseline, observed, k=cfg.max_grouped_queries,
            rng=self._rng)
        if self.obs is not None:
            m = self.obs.metrics
            m.counter("repro_reselect_evaluations_total").inc()
            m.gauge("repro_reselect_divergence").set(divergence)
        if not force and divergence < cfg.drift_threshold:
            return None

        instance = self.advisor.build_instance(observed, self.budget)
        col_of = {instance.name_of(j): j
                  for j in range(instance.n_replicas)}
        current = list(self.store.replica_names())
        incumbent_cols = sorted(col_of[n] for n in current if n in col_of)
        incumbent_cost = instance.capped_workload_cost(incumbent_cols)
        warm = warm_reselect(instance, incumbent_cols)
        candidate_cost = instance.capped_workload_cost(warm.selected)
        candidate_names = tuple(instance.name_of(j) for j in warm.selected)
        improvement = ((incumbent_cost - candidate_cost) / incumbent_cost
                       if incumbent_cost > 0 else 0.0)

        common = dict(
            epoch=self.epoch,
            divergence=divergence,
            drift_threshold=cfg.drift_threshold,
            observed_queries=len(self.logger),
            incumbent=tuple(current),
            incumbent_cost=incumbent_cost,
            candidate=candidate_names,
            candidate_cost=candidate_cost,
            improvement=improvement,
            storage_used=warm.storage,
            budget=self.budget,
            solver=warm.solver,
            n_pool=instance.n_replicas,
            observed=tuple(
                (g.width, g.height, g.duration, w)
                for g, w in observed.grouped()),
        )

        if not warm.selected:
            return self._decide("rejected", "solver returned an empty "
                                "selection", common)
        if set(candidate_names) == set(current):
            return self._decide(
                "rejected", "incumbent set is still the winner under the "
                "observed workload", common)
        if improvement < cfg.min_improvement:
            return self._decide(
                "rejected",
                f"improvement {improvement:.4f} below minimum "
                f"{cfg.min_improvement:.4f}", common)
        if cfg.dry_run:
            return self._decide(
                "dry-run", None, common,
                built=tuple(n for n in candidate_names if n not in current),
                retired=tuple(n for n in current
                              if n not in candidate_names))
        return self._apply(observed, candidate_names, current, common)

    def _apply(self, observed: Workload, candidate_names: tuple[str, ...],
               current: list[str], common: dict) -> ReselectionUpdate:
        to_build = [n for n in candidate_names if n not in current]
        to_retire = [n for n in current if n not in candidate_names]
        if to_build and self._build is None:
            return self._decide(
                "rejected", "no replica builder attached "
                f"(would build {to_build})", common)
        # Builds are the slow part; do them before touching the serving
        # set, so the swap window itself is just dict surgery.
        built = []
        try:
            for name in to_build:
                built.append(self._build(name))
        except Exception as exc:  # noqa: BLE001 — audited, not fatal
            return self._decide(
                "rejected", f"build of {name!r} failed: {exc}", common)

        # Install-first (the caller holds ``_gate``, so applies never
        # interleave): readers racing the swap always see a superset of
        # a valid serving set; retiring afterwards is safe because the
        # engine fails stale plans over.
        for replica in built:
            self.store.register_replica(replica)
        for name in to_retire:
            self.store.retire_replica(name)

        # New epoch: the observed workload becomes the baseline the
        # next drift measurement anchors on, and retired replicas'
        # drift windows stop mattering.
        self.baseline = observed
        self.logger.clear()
        self._next_eval = self.logger.recorded + self.config.min_queries
        if self.obs is not None:
            for name in to_retire:
                self.obs.drift.clear_replica(name)
        self.epoch += 1
        return self._decide("applied", None, common,
                            built=tuple(to_build),
                            retired=tuple(to_retire))

    # -- audit -------------------------------------------------------------

    def _decide(self, action: str, reason: str | None, common: dict,
                built: tuple[str, ...] = (),
                retired: tuple[str, ...] = ()) -> ReselectionUpdate:
        update = ReselectionUpdate(action=action, reason=reason,
                                   built=built, retired=retired, **common)
        return self.audit_log.append(update, _DECISION_COUNTERS.get(action))

    def audit_dicts(self) -> list[dict]:
        """The in-memory audit trail as JSON-safe data."""
        return self.audit_log.dicts()
