"""Partial replication (the paper's stated future work, Section VII).

"The use of partial replication, where only frequently accessed data
ranges are replicated" — a partial replica covers only a sub-box of the
universe.  It stores proportionally less data (cheaper on the budget) but
can only answer queries whose range lies entirely inside its coverage;
all other queries cost ``+inf`` on it, which the selection machinery
already understands.  At least one *full* replica must be selected for
correctness (every query must be answerable), which the instance
guarantees as long as full replicas are among the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SelectionInstance
from repro.costmodel.model import CostModel, ReplicaProfile
from repro.geometry import Box3, boxes_intersect_mask, centroid_range
from repro.workload.query import AnyQuery, Query, Workload


@dataclass(frozen=True)
class PartialReplica:
    """A replica restricted to ``coverage``.

    ``record_fraction`` is the share of the dataset inside the coverage
    box (measure it on a sample with
    :func:`record_fraction_in_box`); storage and per-partition record
    counts scale by it.
    """

    base: ReplicaProfile
    coverage: Box3
    record_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.record_fraction <= 1.0:
            raise ValueError("record_fraction must be in (0, 1]")
        if not self.base.universe.contains_box(self.coverage):
            raise ValueError("coverage must lie inside the universe")

    @property
    def name(self) -> str:
        return f"{self.base.name}@partial"

    def profile(self) -> ReplicaProfile:
        """The restricted profile: only partitions intersecting the
        coverage are kept, records and storage scale by the fraction."""
        mask = boxes_intersect_mask(self.base.box_array, self.coverage)
        boxes = self.base.box_array[mask]
        if boxes.shape[0] == 0:
            raise ValueError("coverage intersects no partition")
        return ReplicaProfile(
            name=self.name,
            partitioning_name=self.base.partitioning_name,
            encoding_name=self.base.encoding_name,
            box_array=boxes,
            universe=self.base.universe,
            n_records=self.base.n_records * self.record_fraction,
            storage_bytes=self.base.storage_bytes * self.record_fraction,
        )

    def can_answer(self, query: AnyQuery) -> bool:
        """Positioned queries must lie inside the coverage; a grouped
        query is answerable only when *every* admissible position is
        (i.e. its extent fits and the whole centroid range maps inside)."""
        if isinstance(query, Query):
            return self.coverage.contains_box(query.box())
        cr = centroid_range(self.base.universe, query.size)
        w, h, t = query.size
        worst = Box3(
            cr.x_min - w / 2, cr.x_max + w / 2,
            cr.y_min - h / 2, cr.y_max + h / 2,
            cr.t_min - t / 2, cr.t_max + t / 2,
        )
        return self.coverage.contains_box(worst)


def record_fraction_in_box(sample, box: Box3) -> float:
    """Estimate the dataset share inside ``box`` from a sample."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    return sample.count_in_box(box) / len(sample)


def partial_selection_instance(
    cost_model: CostModel,
    workload: Workload,
    full_profiles: list[ReplicaProfile],
    partial_replicas: list[PartialReplica],
    budget: float,
) -> SelectionInstance:
    """Selection instance mixing full and partial candidate replicas.

    Columns are ordered full-first, then partials.  Partial replicas get
    ``+inf`` cost on queries they cannot answer.
    """
    if not full_profiles:
        raise ValueError("need at least one full replica candidate")
    queries = workload.queries()
    columns: list[np.ndarray] = []
    names: list[str] = []
    storage: list[float] = []
    for profile in full_profiles:
        columns.append(np.array([
            cost_model.query_cost(q, profile) for q in queries
        ]))
        names.append(profile.name)
        storage.append(profile.storage_bytes)
    for partial in partial_replicas:
        profile = partial.profile()
        col = np.empty(len(queries))
        for i, q in enumerate(queries):
            col[i] = (
                cost_model.query_cost(q, profile)
                if partial.can_answer(q)
                else np.inf
            )
        columns.append(col)
        names.append(partial.name)
        storage.append(profile.storage_bytes)
    return SelectionInstance(
        costs=np.stack(columns, axis=1),
        weights=np.array(workload.weights()),
        storage=np.array(storage),
        budget=float(budget),
        replica_names=tuple(names),
        query_labels=tuple(f"q{i + 1}" for i in range(len(queries))),
    )
