"""Uniform grid partitioning.

Not used by the paper's candidate set (which is k-d tree based) but needed
for the Figure 2 partitioning-tradeoff illustration and several tests: a
plain ``nx x ny x nt`` equal-*extent* grid
whose partitions are generally *skewed* in record count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.geometry import Box3
from repro.partition.base import Partitioning, PartitioningScheme


@dataclass(frozen=True)
class GridPartitioner(PartitioningScheme):
    """Uniform grid with ``nx * ny * nt`` equal-extent cells."""

    nx: int
    ny: int
    nt: int = 1

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nt) < 1:
            raise ValueError("grid dimensions must be >= 1")

    @property
    def name(self) -> str:
        return f"G{self.nx}x{self.ny}x{self.nt}"

    @property
    def n_partitions(self) -> int:
        return self.nx * self.ny * self.nt

    def build(self, dataset: Dataset, universe: Box3 | None = None) -> Partitioning:
        if len(dataset) == 0:
            raise ValueError("cannot build a grid on an empty dataset")
        u = universe or dataset.bounding_box()
        xs = np.linspace(u.x_min, u.x_max, self.nx + 1)
        ys = np.linspace(u.y_min, u.y_max, self.ny + 1)
        ts = np.linspace(u.t_min, u.t_max, self.nt + 1)

        def cell_of(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(edges[1:-1], values, side="right")
            return np.clip(idx, 0, len(edges) - 2)

        ix = cell_of(dataset.column("x"), xs)
        iy = cell_of(dataset.column("y"), ys)
        it = cell_of(dataset.column("t"), ts)
        labels = (ix * self.ny + iy) * self.nt + it

        box_array = np.empty((self.n_partitions, 6), dtype=np.float64)
        k = 0
        for i in range(self.nx):
            for j in range(self.ny):
                for m in range(self.nt):
                    box_array[k] = (xs[i], xs[i + 1], ys[j], ys[j + 1], ts[m], ts[m + 1])
                    k += 1
        return Partitioning(self.name, u, box_array, labels.astype(np.int64))
