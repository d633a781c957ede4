"""The query cost model (paper Section IV).

The cost of processing one involved partition is

    Cost(q, p) = |D(p)| / ScanRate + ExtraTime                     (Eq. 6)

and, under non-skewed partitioning with ``Np(q, r)`` involved partitions,

    Cost(q, r) = Np/|P(r)| * |D|/ScanRate + Np * ExtraTime         (Eq. 7)

``Np`` is exact for positioned queries (count box intersections) and
analytic for grouped queries (Eq. 11-12, via
:func:`repro.geometry.intersection_probabilities`).  A Monte-Carlo
estimator is included for validating the analytic formula.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.geometry import (
    Box3,
    boxes_intersect_count,
    boxes_intersect_matrix,
    centroid_range,
    intersection_probabilities,
    intersection_probability_matrix,
)
from repro.partition.base import Partitioning
from repro.workload.query import AnyQuery, GroupedQuery, Query, Workload


@dataclass(frozen=True, slots=True)
class EncodingCostParams:
    """Calibrated per-(environment, encoding) constants of Eq. 6.

    ``scan_rate`` is records/second; ``extra_time`` is seconds per involved
    partition (task startup, object lookup, decoder setup, cleanup).
    """

    scan_rate: float
    extra_time: float

    def __post_init__(self) -> None:
        if self.scan_rate <= 0:
            raise ValueError("scan_rate must be positive")
        if self.extra_time < 0:
            raise ValueError("extra_time must be non-negative")

    def partition_cost(self, n_records: float) -> float:
        """Eq. 6 for a partition of ``n_records`` records."""
        return n_records / self.scan_rate + self.extra_time


@dataclass(frozen=True)
class ReplicaProfile:
    """Everything the cost model needs to know about a candidate replica.

    A profile abstracts a replica ``r = <D, P, E>`` down to its partition
    geometry and aggregate sizes, so costs can be estimated *without
    generating the actual replica* (Section III-A).  ``n_records`` and
    ``storage_bytes`` describe the target dataset, which may be far larger
    than the sample the partitioning was built on; :meth:`scaled` rescales
    both for the data-growth experiments (Figure 6).
    """

    name: str
    partitioning_name: str
    encoding_name: str
    box_array: np.ndarray
    universe: Box3
    n_records: float
    storage_bytes: float
    #: Optional per-partition share of the records (sums to 1).  When
    #: present, the skew-aware cost path can weight scan cost by actual
    #: partition sizes instead of assuming |D|/|P| everywhere.
    count_fractions: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.box_array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 6:
            raise ValueError(f"box_array must be (n, 6), got {arr.shape}")
        if self.n_records <= 0:
            raise ValueError("n_records must be positive")
        if self.storage_bytes < 0:
            raise ValueError("storage_bytes must be non-negative")
        if self.count_fractions is not None:
            fractions = np.asarray(self.count_fractions, dtype=np.float64)
            if fractions.shape != (arr.shape[0],):
                raise ValueError(
                    f"count_fractions shape {fractions.shape} does not match "
                    f"{arr.shape[0]} partitions"
                )
            if np.any(fractions < 0) or not np.isclose(fractions.sum(), 1.0):
                raise ValueError("count_fractions must be non-negative and sum to 1")
            object.__setattr__(self, "count_fractions", fractions)

    @property
    def n_partitions(self) -> int:
        return int(self.box_array.shape[0])

    @property
    def records_per_partition(self) -> float:
        """``|D| / |P(r)|`` — the non-skew assumption of Section IV-A."""
        return self.n_records / self.n_partitions

    @staticmethod
    def from_partitioning(
        partitioning: Partitioning,
        encoding_name: str,
        n_records: float,
        storage_bytes: float,
        name: str | None = None,
        with_counts: bool = False,
    ) -> "ReplicaProfile":
        """Profile a realized partitioning + encoding combination.

        ``with_counts=True`` records the partitioning's per-partition
        record shares, enabling the skew-aware cost path.
        """
        fractions = None
        if with_counts:
            total = partitioning.counts.sum()
            if total > 0:
                fractions = partitioning.counts / total
        return ReplicaProfile(
            name=name or f"{partitioning.scheme_name}/{encoding_name}",
            partitioning_name=partitioning.scheme_name,
            encoding_name=encoding_name,
            box_array=partitioning.box_array,
            universe=partitioning.universe,
            n_records=float(n_records),
            storage_bytes=float(storage_bytes),
            count_fractions=fractions,
        )

    def scaled(self, factor: float) -> "ReplicaProfile":
        """The same physical organization holding ``factor`` times the
        data (records and storage scale together; geometry is unchanged
        because partition *boundaries* come from data quantiles)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            n_records=self.n_records * factor,
            storage_bytes=self.storage_bytes * factor,
        )


def expected_partitions(profile: ReplicaProfile, query: AnyQuery) -> float:
    """``Np(q, r)``: exact for positioned queries, analytic expectation
    (Eq. 11) for grouped queries."""
    if isinstance(query, Query):
        return float(boxes_intersect_count(profile.box_array, query.box()))
    return float(
        intersection_probabilities(profile.box_array, profile.universe, query.size).sum()
    )


@dataclass(frozen=True)
class _PackedQueries:
    """A workload's queries split by kind and packed into arrays, so the
    per-replica ``Np`` evaluation is one numpy broadcast per kind."""

    n_queries: int
    positioned_idx: np.ndarray  # (mp,) indices into the original order
    positioned_boxes: np.ndarray  # (mp, 6)
    grouped_idx: np.ndarray  # (mg,)
    grouped_sizes: np.ndarray  # (mg, 3)


def _pack_queries(queries: list[AnyQuery]) -> _PackedQueries:
    positioned_idx: list[int] = []
    positioned_boxes: list[tuple[float, ...]] = []
    grouped_idx: list[int] = []
    grouped_sizes: list[tuple[float, float, float]] = []
    for i, query in enumerate(queries):
        if isinstance(query, Query):
            positioned_idx.append(i)
            positioned_boxes.append(query.box().as_tuple())
        else:
            grouped_idx.append(i)
            grouped_sizes.append(query.size)
    return _PackedQueries(
        n_queries=len(queries),
        positioned_idx=np.asarray(positioned_idx, dtype=np.intp),
        positioned_boxes=np.asarray(positioned_boxes, dtype=np.float64).reshape(-1, 6),
        grouped_idx=np.asarray(grouped_idx, dtype=np.intp),
        grouped_sizes=np.asarray(grouped_sizes, dtype=np.float64).reshape(-1, 3),
    )


def _packed_expected_partitions(
    profile: ReplicaProfile, packed: _PackedQueries
) -> np.ndarray:
    """``Np(q_i, r)`` for every packed query on one replica — a single
    vectorized evaluation per query kind instead of a Python loop."""
    out = np.empty(packed.n_queries, dtype=np.float64)
    if len(packed.positioned_idx):
        matrix = boxes_intersect_matrix(profile.box_array, packed.positioned_boxes)
        out[packed.positioned_idx] = matrix.sum(axis=1)
    if len(packed.grouped_idx):
        probs = intersection_probability_matrix(
            profile.box_array, profile.universe, packed.grouped_sizes
        )
        out[packed.grouped_idx] = probs.sum(axis=1)
    return out


def batch_expected_partitions(
    profile: ReplicaProfile, queries: list[AnyQuery]
) -> np.ndarray:
    """Vectorized ``Np``: :func:`expected_partitions` for a whole list of
    queries at once.  Positioned queries go through one
    :func:`~repro.geometry.boxes_intersect_matrix` broadcast and grouped
    queries through one :func:`~repro.geometry.intersection_probability_matrix`
    broadcast, so the cost is two numpy expressions per replica regardless
    of workload size."""
    return _packed_expected_partitions(profile, _pack_queries(queries))


def expected_scanned_records(profile: ReplicaProfile, query: AnyQuery) -> float:
    """Expected records scanned, weighting each partition by its actual
    size — the skew-aware refinement of Eq. 7's ``Np · |D|/|P|`` term.

    Requires ``profile.count_fractions``; for positioned queries sums the
    sizes of the exactly-involved partitions, for grouped queries weights
    each partition's size by its Eq. 12 intersection probability.
    """
    if profile.count_fractions is None:
        raise ValueError(
            f"profile {profile.name!r} carries no partition counts; build it "
            "with from_partitioning(..., with_counts=True)"
        )
    if isinstance(query, Query):
        from repro.geometry import boxes_intersect_mask

        mask = boxes_intersect_mask(profile.box_array, query.box())
        share = float(profile.count_fractions[mask].sum())
    else:
        probs = intersection_probabilities(
            profile.box_array, profile.universe, query.size)
        share = float(np.dot(probs, profile.count_fractions))
    return share * profile.n_records


def monte_carlo_partitions(
    profile: ReplicaProfile,
    query: GroupedQuery,
    rng: np.random.Generator,
    trials: int = 1000,
) -> float:
    """Monte-Carlo estimate of ``Np(QG, r)`` by sampling centroids
    uniformly over ``CR(QG)`` — the brute-force baseline the analytic
    formula replaces (Eq. 8)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cr = centroid_range(profile.universe, query.size)
    total = 0
    for _ in range(trials):
        center = (
            rng.uniform(cr.x_min, cr.x_max) if cr.width > 0 else cr.x_min,
            rng.uniform(cr.y_min, cr.y_max) if cr.height > 0 else cr.y_min,
            rng.uniform(cr.t_min, cr.t_max) if cr.duration > 0 else cr.t_min,
        )
        box = Box3.from_center_size(center, *query.size)
        total += boxes_intersect_count(profile.box_array, box)
    return total / trials


@dataclass(frozen=True)
class RoutingPlan:
    """The routing of a workload over a replica set, as
    :meth:`repro.storage.BlotStore.route_workload` makes it.

    ``replica_names`` is the column order of ``costs``; ``assignments[i]``
    is the column index of the replica chosen for query ``i``.  Ties are
    broken deterministically toward the lexicographically smallest replica
    name, matching :meth:`repro.storage.BlotStore.route`.
    """

    replica_names: tuple[str, ...]
    assignments: np.ndarray
    costs: np.ndarray

    @property
    def n_queries(self) -> int:
        return int(self.assignments.shape[0])

    def assigned_names(self) -> list[str]:
        """The chosen replica name per query, in workload order."""
        return [self.replica_names[int(j)] for j in self.assignments]

    def queries_for(self, replica_name: str) -> np.ndarray:
        """Workload indices of the queries routed to ``replica_name``."""
        j = self.replica_names.index(replica_name)
        return np.flatnonzero(self.assignments == j)

    def query_counts(self) -> dict[str, int]:
        """How many queries each replica serves (only replicas that serve
        at least one query appear)."""
        counts: dict[str, int] = {}
        for j in self.assignments:
            name = self.replica_names[int(j)]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def total_cost(self, weights: list[float] | None = None) -> float:
        """``Cost(W, R)`` under this routing (optionally weighted)."""
        best = self.costs[np.arange(self.n_queries), self.assignments]
        if weights is None:
            return float(best.sum())
        return float(np.dot(np.asarray(weights, dtype=np.float64), best))

    # -- failover support ---------------------------------------------------

    def ranking_for(self, i: int) -> tuple[str, ...]:
        """Every replica ranked by estimated cost for query ``i`` —
        cheapest first, equal costs broken toward the lexicographically
        smallest name.  ``ranking_for(i)[0]`` is the planned replica;
        the tail is the failover order the engine walks when the
        assigned replica cannot serve the query.
        """
        row = self.costs[i]
        order = sorted(range(len(self.replica_names)),
                       key=lambda j: (row[j], self.replica_names[j]))
        return tuple(self.replica_names[j] for j in order)

    def cost_for(self, i: int, replica_name: str) -> float:
        """The Eq. 7 cost of serving query ``i`` on one named replica."""
        return float(self.costs[i, self.replica_names.index(replica_name)])

    def degraded_delta(self, i: int, serving_name: str) -> float:
        """Extra estimated cost of serving query ``i`` on
        ``serving_name`` instead of its planned (argmin) replica —
        0 when the plan was honored, positive under failover."""
        planned = float(self.costs[i, self.assignments[i]])
        return self.cost_for(i, serving_name) - planned


class CostModel:
    """Estimates ``Cost(q, r)`` for any query on any replica profile.

    Parameterized by calibrated :class:`EncodingCostParams` per encoding
    scheme name — one :class:`CostModel` per execution environment.
    """

    def __init__(self, encoding_params: dict[str, EncodingCostParams]):
        if not encoding_params:
            raise ValueError("need parameters for at least one encoding scheme")
        # Never mutated: update_params replaces the mapping under the
        # lock, so a reader that loads it once needs none.
        self._params = dict(encoding_params)
        self._params_lock = threading.Lock()

    @property
    def encoding_names(self) -> list[str]:
        return sorted(self._params)

    def params_for(self, encoding_name: str) -> EncodingCostParams:
        params = self._params
        try:
            return params[encoding_name]
        except KeyError:
            raise KeyError(
                f"no cost parameters calibrated for encoding "
                f"{encoding_name!r}; have {sorted(params)}"
            ) from None

    def update_params(self, encoding_name: str,
                      params: EncodingCostParams) -> EncodingCostParams:
        """Hot-swap one encoding's calibrated constants; returns the
        previous value.

        The recalibration loop (Section V-B re-fit, see
        :mod:`repro.obs.recalibrate`) replaces ``ScanRate`` *and*
        ``ExtraTime`` together: :class:`EncodingCostParams` is a frozen
        pair, and the update publishes a new name → pair mapping with one
        assignment (updates serialize on the model's lock; readers take
        none), so a concurrent :meth:`query_cost` sees either the old
        calibration or the new one, never a mix.  Unknown encodings
        raise ``KeyError`` rather than growing the model —
        recalibration corrects existing constants, it does not invent
        coverage.
        """
        if not isinstance(params, EncodingCostParams):
            raise TypeError(
                f"params must be EncodingCostParams, got {type(params).__name__}")
        with self._params_lock:
            old = self.params_for(encoding_name)
            self._params = {**self._params, encoding_name: params}
            return old

    def scaled_rates(self, factor: float) -> "CostModel":
        """A model whose every Eq. 6 row runs ``factor`` times faster —
        ``scan_rate`` × ``factor``, ``extra_time`` ÷ ``factor`` — so each
        Eq. 7 prediction is exactly ``factor`` times lower: a
        deliberately mis-calibrated variant for drift-detection tests
        and what-if analyses (``factor`` < 1 models a slower environment
        than the one calibrated against)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return CostModel({
            name: EncodingCostParams(scan_rate=p.scan_rate * factor,
                                     extra_time=p.extra_time / factor)
            for name, p in self._params.items()
        })

    def query_cost(self, query: AnyQuery, profile: ReplicaProfile) -> float:
        """Eq. 7: expected seconds to evaluate ``query`` on ``profile``."""
        return self.involved_cost(expected_partitions(profile, query), profile)

    def involved_cost(self, np_q: float, profile: ReplicaProfile) -> float:
        """Eq. 7 for a query whose ``Np(q, r)`` is already counted — the
        engine counts it from the intersect mask it then plans from."""
        params = self.params_for(profile.encoding_name)
        scan = np_q * profile.records_per_partition / params.scan_rate
        return scan + np_q * params.extra_time

    def query_makespan(
        self, query: AnyQuery, profile: ReplicaProfile, map_slots: int
    ) -> float:
        """Wall-clock estimate under parallel scanning (Section II-D's
        "scanning multiple partitions simultaneously").

        Eq. 7 measures total work (all involved partitions end-to-end);
        with ``map_slots`` parallel mappers the job runs in waves, so the
        makespan is ``ceil(Np / slots)`` times one partition's cost."""
        if map_slots < 1:
            raise ValueError("map_slots must be >= 1")
        params = self.params_for(profile.encoding_name)
        np_q = expected_partitions(profile, query)
        per_task = params.partition_cost(profile.records_per_partition)
        waves = np.ceil(np_q / map_slots)
        return float(max(waves, 1.0 if np_q > 0 else 0.0) * per_task) \
            if np_q > 0 else 0.0

    def query_cost_skew_aware(
        self, query: AnyQuery, profile: ReplicaProfile
    ) -> float:
        """Skew-aware variant of Eq. 7: the scan term uses the involved
        partitions' *actual* record counts instead of the |D|/|P| average.
        Coincides with :meth:`query_cost` on non-skewed partitionings; on
        skewed ones (uniform grids over hotspot data) it corrects the
        systematic error the non-skew assumption introduces."""
        params = self.params_for(profile.encoding_name)
        scanned = expected_scanned_records(profile, query)
        np_q = expected_partitions(profile, query)
        return scanned / params.scan_rate + np_q * params.extra_time

    def cost_matrix(
        self, workload: Workload, profiles: list[ReplicaProfile]
    ) -> np.ndarray:
        """``c[i, j] = Cost(q_i, r_j)`` (unweighted) for the whole workload
        — the input of the replica selection problem.

        Evaluated column-by-column with one vectorized ``Np`` broadcast per
        replica (see :func:`batch_expected_partitions`) rather than a
        queries x replicas Python loop; each entry equals
        :meth:`query_cost` on the same pair.
        """
        packed = _pack_queries(workload.queries())
        matrix = np.empty((packed.n_queries, len(profiles)), dtype=np.float64)
        for j, profile in enumerate(profiles):
            params = self.params_for(profile.encoding_name)
            np_vec = _packed_expected_partitions(profile, packed)
            matrix[:, j] = (
                np_vec * profile.records_per_partition / params.scan_rate
                + np_vec * params.extra_time
            )
        return matrix

    def workload_cost(
        self, workload: Workload, profiles: list[ReplicaProfile]
    ) -> float:
        """``Cost(W, R)`` (Definition 7): each query routed to its cheapest
        replica among ``profiles``, weighted by the workload weights."""
        if not profiles:
            raise ValueError("workload cost over an empty replica set is undefined")
        matrix = self.cost_matrix(workload, profiles)
        best = matrix.min(axis=1)
        return float(np.dot(workload.weights(), best))
