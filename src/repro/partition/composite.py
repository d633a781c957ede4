"""Space-then-time composite partitioning (the TrajStore/CloST layout).

"In TrajStore and CloST, for example, data are first partitioned by
location and then further partitioned by time" (Section II-B).  A
composite scheme wraps any spatial scheme and splits each spatial cell's
records into equi-depth temporal slices; the paper's 25 candidate schemes
are k-d tree spatial (4^2..4^6 leaves) x temporal (2^4..2^8 slices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.geometry import Box3
from repro.partition.base import Partitioning, PartitioningScheme
from repro.partition.kdtree import KdTreePartitioner
from repro.partition.temporal import equi_depth_boundaries, slice_labels


@dataclass(frozen=True)
class CompositeScheme(PartitioningScheme):
    """``spatial`` partitioning refined by ``n_time_slices`` per cell.

    Temporal boundaries are per-spatial-cell record-time quantiles (outer
    boundaries pinned to the universe), so with an equal-count spatial
    scheme the final partitions are near equal-count overall.
    """

    spatial: PartitioningScheme
    n_time_slices: int

    def __post_init__(self) -> None:
        if self.n_time_slices < 1:
            raise ValueError("n_time_slices must be >= 1")

    @property
    def name(self) -> str:
        return f"{self.spatial.name}xT{self.n_time_slices}"

    @property
    def n_partitions(self) -> int:
        return self.spatial.n_partitions * self.n_time_slices

    def build(self, dataset: Dataset, universe: Box3 | None = None) -> Partitioning:
        u = universe or dataset.bounding_box()
        base = self.spatial.build(dataset, u)
        nt = self.n_time_slices
        times = dataset.column("t")
        n_cells = base.n_partitions
        box_array = np.empty((n_cells * nt, 6), dtype=np.float64)
        labels = np.empty(len(dataset), dtype=np.int64)
        # One stable sort groups every cell's records, in dataset order
        # (labels in the narrowest unsigned type: numpy sorts 8- and
        # 16-bit keys by radix, several times faster than int64).
        order = np.argsort(base.labels.astype(np.min_scalar_type(n_cells)),
                           kind="stable")
        ends = np.cumsum(base.counts)
        for cell in range(n_cells):
            idx = order[ends[cell] - base.counts[cell]:ends[cell]]
            boundaries = equi_depth_boundaries(times[idx], nt, u.t_min, u.t_max)
            cell_box = base.box_array[cell]
            lo = cell * nt
            box_array[lo:lo + nt, 0:4] = cell_box[0:4]
            box_array[lo:lo + nt, 4] = boundaries[:-1]
            box_array[lo:lo + nt, 5] = boundaries[1:]
            labels[idx] = lo + slice_labels(times[idx], boundaries)
        return Partitioning(self.name, u, box_array, labels)


def paper_partitioning_schemes() -> list[CompositeScheme]:
    """The evaluation's 25 candidate spatio-temporal schemes: k-d tree
    spatial partitions from {4^2..4^6} crossed with temporal slice counts
    from {2^4..2^8} (Section V-A)."""
    return [
        CompositeScheme(KdTreePartitioner(4**s), 2**t)
        for s in range(2, 7)
        for t in range(4, 9)
    ]


def small_partitioning_schemes(
    spatial_leaves: tuple[int, ...] = (4, 16, 64),
    time_slices: tuple[int, ...] = (4, 8, 16),
) -> list[CompositeScheme]:
    """A laptop-scale candidate grid with the same structure as the
    paper's 25 schemes; used by tests, examples and fast benches."""
    return [
        CompositeScheme(KdTreePartitioner(s), t)
        for s in spatial_leaves
        for t in time_slices
    ]
