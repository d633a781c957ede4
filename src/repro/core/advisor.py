"""End-to-end replica advisor: candidates → costs → selection → report.

Ties the whole paper together.  From a data *sample*, the advisor

1. realizes every candidate partitioning scheme (boxes from sample
   quantiles), crossed with every candidate encoding scheme, into
   :class:`~repro.costmodel.ReplicaProfile` candidates — 25 x 7 = 150 in
   the paper's configuration;
2. estimates each candidate's storage from measured (or supplied)
   compression ratios and each query's cost from the calibrated
   :class:`~repro.costmodel.CostModel` (Np is computed once per
   partitioning and shared across the encodings that reuse it);
3. optionally prunes dominated candidates and reduces the workload;
4. selects a replica set with the greedy or the exact solver, and
   reports costs against the paper's Single and Ideal baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bnb import branch_and_bound_select
from repro.core.greedy import greedy_select
from repro.core.mip import solve_mip
from repro.core.problem import Selection, SelectionInstance
from repro.core.pruning import prune_dominated
from repro.costmodel.model import CostModel, ReplicaProfile, expected_partitions
from repro.costmodel.storage_size import estimate_replica_storage
from repro.data.dataset import Dataset
from repro.encoding.base import EncodingScheme
from repro.geometry import Box3
from repro.partition.base import PartitioningScheme
from repro.workload.query import Workload


@dataclass(frozen=True)
class AdvisorConfig:
    """Target-dataset parameters the advisor plans for."""

    n_records: float           # records in the full (target) dataset
    universe: Box3 | None = None  # defaults to the sample bounding box

    def __post_init__(self) -> None:
        if self.n_records <= 0:
            raise ValueError("n_records must be positive")


@dataclass(frozen=True)
class SelectionReport:
    """What :meth:`ReplicaAdvisor.recommend` returns."""

    selection: Selection
    instance: SelectionInstance
    replica_names: tuple[str, ...]
    cost: float
    ideal_cost: float
    single_cost: float
    single_name: str
    storage_used: float
    budget: float
    assignment: dict[str, str]  # query label -> replica name

    @property
    def approximation_ratio(self) -> float:
        """Cost relative to the Ideal (all candidates, no budget) — the
        bracketed numbers of Figure 6.

        A zero ideal with a nonzero achieved cost is *infinitely* worse
        than ideal, not equal to it: the ratio is ``inf`` there, and 1.0
        only when both costs are zero (both plans are free).
        """
        if self.ideal_cost == 0:
            return 1.0 if self.cost == 0 else float("inf")
        return self.cost / self.ideal_cost

    @property
    def speedup_vs_single(self) -> float:
        """How much faster than the best single replica (Figure 4/6)."""
        if self.cost == 0:
            return float("inf")
        return self.single_cost / self.cost


class ReplicaAdvisor:
    """Builds candidate replicas from a sample and selects diverse sets."""

    def __init__(
        self,
        sample: Dataset,
        partitioning_schemes: list[PartitioningScheme],
        encoding_schemes: list[EncodingScheme],
        cost_model: CostModel,
        config: AdvisorConfig,
        encoding_ratios: dict[str, float] | None = None,
    ):
        if len(sample) == 0:
            raise ValueError("advisor needs a non-empty sample")
        if not partitioning_schemes or not encoding_schemes:
            raise ValueError("need at least one partitioning and one encoding scheme")
        self._sample = sample
        self._cost_model = cost_model
        self._config = config
        self._universe = config.universe or sample.bounding_box()
        self._partitionings = [
            scheme.build(sample, self._universe) for scheme in partitioning_schemes
        ]
        self._encodings = list(encoding_schemes)
        if encoding_ratios is None:
            from repro.costmodel.storage_size import measure_encoding_ratios

            encoding_ratios = measure_encoding_ratios(self._encodings, sample)
        self._ratios = dict(encoding_ratios)
        self._profiles = self._build_profiles()
        self._np_cache: dict[tuple[int, object], float] = {}

    # -- candidates ---------------------------------------------------------

    def _build_profiles(self) -> list[ReplicaProfile]:
        profiles = []
        for p_idx, partitioning in enumerate(self._partitionings):
            for encoding in self._encodings:
                storage = estimate_replica_storage(
                    self._config.n_records, self._ratios[encoding.name]
                )
                profiles.append(ReplicaProfile(
                    name=f"{partitioning.scheme_name}/{encoding.name}",
                    partitioning_name=partitioning.scheme_name,
                    encoding_name=encoding.name,
                    box_array=partitioning.box_array,
                    universe=self._universe,
                    n_records=self._config.n_records,
                    storage_bytes=storage,
                ))
        return profiles

    @property
    def candidates(self) -> list[ReplicaProfile]:
        """The candidate replica set ``R_C`` (all scheme x encoding pairs)."""
        return list(self._profiles)

    @property
    def universe(self) -> Box3:
        return self._universe

    # -- instance construction ----------------------------------------------------

    def _probe_profile(self, partitioning_idx: int,
                       with_counts: bool = False) -> ReplicaProfile:
        partitioning = self._partitionings[partitioning_idx]
        return ReplicaProfile.from_partitioning(
            partitioning, "ROW-PLAIN", self._config.n_records, 0.0,
            name="probe", with_counts=with_counts,
        )

    def _np_value(self, partitioning_idx: int, query) -> float:
        key = (partitioning_idx, query)
        if key not in self._np_cache:
            self._np_cache[key] = expected_partitions(
                self._probe_profile(partitioning_idx), query)
        return self._np_cache[key]

    def _scanned_value(self, partitioning_idx: int, query) -> float:
        """Skew-aware expected records scanned (cached)."""
        key = ("scan", partitioning_idx, query)
        if key not in self._np_cache:
            from repro.costmodel.model import expected_scanned_records

            self._np_cache[key] = expected_scanned_records(
                self._probe_profile(partitioning_idx, with_counts=True), query)
        return self._np_cache[key]

    def build_instance(
        self, workload: Workload, budget: float, skew_aware: bool = False
    ) -> SelectionInstance:
        """The numeric selection instance for ``workload`` under ``budget``.

        Cost(q, r) follows Eq. 7; Np is computed once per (query,
        partitioning) and shared by the encodings on that partitioning.
        ``skew_aware=True`` replaces the ``Np·|D|/|P|`` scan term with the
        partition-size-weighted expectation — use it when candidate
        schemes include skewed layouts (uniform grids).
        """
        n_part = len(self._partitionings)
        n_enc = len(self._encodings)
        queries = workload.queries()
        costs = np.empty((len(queries), n_part * n_enc))
        for i, query in enumerate(queries):
            for p_idx in range(n_part):
                np_q = self._np_value(p_idx, query)
                if skew_aware:
                    scanned = self._scanned_value(p_idx, query)
                else:
                    scanned = np_q * (
                        self._config.n_records
                        / self._partitionings[p_idx].n_partitions
                    )
                for e_idx, encoding in enumerate(self._encodings):
                    params = self._cost_model.params_for(encoding.name)
                    costs[i, p_idx * n_enc + e_idx] = (
                        scanned / params.scan_rate
                        + np_q * params.extra_time
                    )
        return SelectionInstance(
            costs=costs,
            weights=np.array(workload.weights()),
            storage=np.array([p.storage_bytes for p in self._profiles]),
            budget=float(budget),
            replica_names=tuple(p.name for p in self._profiles),
            query_labels=tuple(f"q{i + 1}" for i in range(len(queries))),
        )

    def single_replica_budget(self, workload: Workload, copies: int = 3) -> float:
        """The paper's budget convention: the storage of ``copies`` exact
        copies of the optimal single replica (Section V-C)."""
        instance = self.build_instance(workload, budget=float("inf"))
        best_j, _ = instance.best_single()
        return float(copies * instance.storage[best_j])

    # -- selection ----------------------------------------------------------------

    def recommend(
        self,
        workload: Workload,
        budget: float,
        method: str = "greedy",
        prune: bool = True,
    ) -> SelectionReport:
        """Select a replica set for ``workload`` under ``budget``.

        ``method``: ``"greedy"`` (Algorithm 1), ``"local-search"``
        (Algorithm 1 + swap refinement), ``"exact"`` (branch and bound)
        or ``"mip"`` (explicit MIP via HiGHS).
        """
        full = self.build_instance(workload, budget)
        if prune:
            pruned = prune_dominated(full)
            instance = pruned.instance
            back = {local: orig for local, orig in enumerate(pruned.kept)}
        else:
            instance = full
            back = {j: j for j in range(full.n_replicas)}

        if method == "greedy":
            selection = greedy_select(instance)
        elif method == "local-search":
            from repro.core.localsearch import local_search_select

            selection = local_search_select(instance)
        elif method == "exact":
            selection = branch_and_bound_select(instance)
        elif method == "mip":
            selection = solve_mip(instance, backend="scipy")
        else:
            raise ValueError(f"unknown selection method {method!r}")

        original = tuple(sorted(back[j] for j in selection.selected))
        single_j, single_cost = full.best_single()
        if not original:
            # Solvers may legitimately return ∅ when no candidate improves
            # on the baseline, but a real system must store the data at
            # least once: fall back to the optimal single replica.
            original = (single_j,)
        cost = full.workload_cost(original)
        assignment: dict[str, str] = {}
        if original:
            routed = full.assignment(original)
            for i, label in enumerate(full.query_labels):
                assignment[label] = full.name_of(int(routed[i]))
        return SelectionReport(
            selection=Selection(
                selected=original,
                cost=cost,
                storage=full.storage_of(original),
                optimal=selection.optimal,
                solver=selection.solver,
                nodes_explored=selection.nodes_explored,
            ),
            instance=full,
            replica_names=tuple(full.name_of(j) for j in original),
            cost=cost,
            ideal_cost=full.ideal_cost(),
            single_cost=single_cost,
            single_name=full.name_of(single_j),
            storage_used=full.storage_of(original),
            budget=budget,
            assignment=assignment,
        )
