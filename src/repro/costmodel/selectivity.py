"""Spatio-temporal histograms for result-size (selectivity) estimation.

The paper's cost model predicts how many records a query *scans*; a
storage layer also wants to know how many it will *return* — for memory
budgeting, for choosing between serving a query from replicas vs the
ingest buffer, and for advisor reports.  A classic equi-width 3-D
histogram with uniform-within-cell interpolation does the job: build it
once from a sample, then estimate any range count in O(cells overlapped).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.geometry import Box3, centroid_range
from repro.workload.query import AnyQuery, Query


class Histogram3D:
    """Equi-width (x, y, t) histogram with fractional-overlap estimates."""

    def __init__(self, counts: np.ndarray, universe: Box3, total: int):
        if counts.ndim != 3:
            raise ValueError("counts must be 3-D")
        self.counts = counts.astype(np.float64)
        self.universe = universe
        self.total = int(total)
        self._edges = (
            np.linspace(universe.x_min, universe.x_max, counts.shape[0] + 1),
            np.linspace(universe.y_min, universe.y_max, counts.shape[1] + 1),
            np.linspace(universe.t_min, universe.t_max, counts.shape[2] + 1),
        )

    @staticmethod
    def build(
        dataset: Dataset,
        resolution: tuple[int, int, int] = (16, 16, 16),
        universe: Box3 | None = None,
    ) -> "Histogram3D":
        """Bin a dataset (or a sample of it) into an equi-width grid."""
        if len(dataset) == 0:
            raise ValueError("cannot build a histogram from an empty dataset")
        if min(resolution) < 1:
            raise ValueError("resolution must be >= 1 per axis")
        u = universe or dataset.bounding_box()
        sample = np.stack([
            dataset.column("x"), dataset.column("y"), dataset.column("t"),
        ], axis=1)
        counts, _ = np.histogramdd(
            sample,
            bins=resolution,
            range=[(u.x_min, u.x_max), (u.y_min, u.y_max), (u.t_min, u.t_max)],
        )
        return Histogram3D(counts, u, len(dataset))

    def scaled(self, n_records: float) -> "Histogram3D":
        """The same shape re-normalized to a dataset of ``n_records``
        (estimating the full data from a sample histogram)."""
        if n_records <= 0:
            raise ValueError("n_records must be positive")
        factor = n_records / max(self.total, 1)
        return Histogram3D(self.counts * factor, self.universe, int(n_records))

    # -- estimation ---------------------------------------------------------

    def _axis_overlap(self, axis: int, lo: float, hi: float) -> np.ndarray:
        """Fractional overlap of [lo, hi] with every bin along ``axis``."""
        edges = self._edges[axis]
        left = np.maximum(edges[:-1], lo)
        right = np.minimum(edges[1:], hi)
        width = edges[1] - edges[0]
        if width <= 0:
            # Degenerate axis: the universe is flat here; any query
            # reaching it covers the single coordinate entirely.
            return np.ones(len(edges) - 1)
        return np.clip(right - left, 0.0, width) / width

    def estimate_count(self, box: Box3) -> float:
        """Expected records inside ``box`` (uniform-within-cell model)."""
        fx = self._axis_overlap(0, box.x_min, box.x_max)
        fy = self._axis_overlap(1, box.y_min, box.y_max)
        ft = self._axis_overlap(2, box.t_min, box.t_max)
        return float(np.einsum("i,j,k,ijk->", fx, fy, ft, self.counts))

    def estimate_query(self, query: AnyQuery, rng: np.random.Generator | None = None,
                       samples: int = 64, seed: int = 0) -> float:
        """Expected result size of a query.

        Positioned queries evaluate directly; grouped queries average
        :meth:`estimate_count` over sampled centroid positions.  Grouped
        extents are clamped to the universe first — the same convention
        as :meth:`GroupedQuery.selectivity`, so an over-wide dimension
        behaves as "covers the whole universe" rather than spilling the
        sampled box past the data bounds.  ``seed`` makes the centroid
        sampling reproducible-by-choice; pass ``rng`` to share a
        generator instead.
        """
        if isinstance(query, Query):
            return self.estimate_count(query.box())
        if rng is None:
            rng = np.random.default_rng(seed)
        u = self.universe
        size = (
            min(query.width, u.width),
            min(query.height, u.height),
            min(query.duration, u.duration),
        )
        cr = centroid_range(u, size)
        total = 0.0
        for _ in range(samples):
            center = (
                rng.uniform(cr.x_min, cr.x_max) if cr.width > 0 else cr.x_min,
                rng.uniform(cr.y_min, cr.y_max) if cr.height > 0 else cr.y_min,
                rng.uniform(cr.t_min, cr.t_max) if cr.duration > 0 else cr.t_min,
            )
            total += self.estimate_count(Box3.from_center_size(center, *size))
        return total / samples

    def selectivity(self, box: Box3) -> float:
        """Estimated fraction of the dataset inside ``box``."""
        if self.total == 0:
            return 0.0
        return self.estimate_count(box) / self.total
