"""Partitioning-scheme abstraction (paper Definitions 1-2).

A *partitioning scheme* ``P`` divides the dataset bounding box ``U`` into
disjoint space partitions that jointly cover ``U``; the *data partition*
of ``p_i`` holds every record spatio-temporally contained by ``p_i``.

A scheme object is a recipe (``KD(256) x T(64)``); calling
:meth:`PartitioningScheme.build` on a dataset realizes it into a
:class:`Partitioning`: the concrete partition boxes plus the per-record
partition labels.  Schemes derive split positions from data quantiles, so
building on an i.i.d. sample yields boxes representative of the full
dataset — this is how the paper sizes replicas "using only a small portion
of the data".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.geometry import Box3, array_to_boxes, boxes_intersect_mask


@dataclass(frozen=True)
class Partitioning:
    """A realized partitioning: boxes, per-record labels, counts.

    ``labels[i]`` is the partition id of record ``i`` of the dataset the
    partitioning was built from; ``counts[j] == (labels == j).sum()``.
    ``counts`` is derived from ``labels`` unless supplied explicitly (the
    manifest-loading path reconstructs a partitioning without the source
    dataset; see :func:`Partitioning.from_boxes`).
    """

    scheme_name: str
    universe: Box3
    box_array: np.ndarray
    labels: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Column-major: each face is one contiguous column, which is all
        # an intersect pass over the boxes reads.
        arr = np.asfortranarray(self.box_array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 6:
            raise ValueError(f"box_array must be (n, 6), got {arr.shape}")
        object.__setattr__(self, "box_array", arr)
        if np.any(self.labels < 0) or (self.labels.size and self.labels.max() >= len(arr)):
            raise ValueError("labels reference partitions outside box_array")
        if self.counts is None:
            object.__setattr__(
                self,
                "counts",
                np.bincount(self.labels, minlength=len(arr)).astype(np.int64),
            )
        else:
            counts = np.asarray(self.counts, dtype=np.int64)
            if counts.shape != (len(arr),):
                raise ValueError(
                    f"counts shape {counts.shape} does not match {len(arr)} boxes"
                )
            object.__setattr__(self, "counts", counts)

    @staticmethod
    def from_boxes(
        scheme_name: str,
        universe: Box3,
        box_array: np.ndarray,
        counts: np.ndarray,
    ) -> "Partitioning":
        """Reconstruct a partitioning from persisted geometry + counts
        (no per-record labels)."""
        return Partitioning(
            scheme_name=scheme_name,
            universe=universe,
            box_array=np.asarray(box_array, dtype=np.float64),
            labels=np.empty(0, dtype=np.int64),
            counts=np.asarray(counts, dtype=np.int64),
        )

    @property
    def n_partitions(self) -> int:
        return int(self.box_array.shape[0])

    def boxes(self) -> list[Box3]:
        """Partition boxes as :class:`Box3` objects (materialized lazily)."""
        return array_to_boxes(self.box_array)

    def involved(self, query: Box3) -> np.ndarray:
        """Ids of partitions whose range intersects the query range —
        the partitions a BLOT system must scan (Section II-D)."""
        return np.flatnonzero(boxes_intersect_mask(self.box_array, query))

    def skew(self) -> float:
        """Max/mean partition size — 1.0 means perfectly non-skewed, the
        property the cost model assumes (Section IV-A)."""
        nonzero = self.counts[self.counts > 0]
        if nonzero.size == 0:
            return 1.0
        return float(self.counts.max() / self.counts.mean())


class PartitioningScheme(ABC):
    """Recipe for partitioning a dataset's bounding box."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Stable human-readable identifier, e.g. ``"KD256xT64"``."""

    @property
    @abstractmethod
    def n_partitions(self) -> int:
        """Number of partitions the scheme produces."""

    @abstractmethod
    def build(self, dataset: Dataset, universe: Box3 | None = None) -> Partitioning:
        """Realize the scheme on ``dataset``.

        ``universe`` defaults to the dataset bounding box; pass the full
        dataset's ``U`` explicitly when building from a sample so the outer
        partition boundaries cover the whole space.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


def check_partitioning(partitioning: Partitioning, dataset: Dataset) -> None:
    """Validate Definition 1/2 invariants; raises AssertionError on
    violation.  Used by tests and by the storage engine in debug mode.

    Checks: every record is labeled with a box that contains it, partition
    volumes sum to the universe volume (cover + disjointness for
    axis-aligned tilings), and every box lies inside the universe.
    """
    arr = partitioning.box_array
    u = partitioning.universe
    for row in arr:
        assert u.contains_box(Box3(*row)), f"partition {row} escapes universe"
    total = float(
        np.prod(
            np.stack([arr[:, 1] - arr[:, 0], arr[:, 3] - arr[:, 2], arr[:, 5] - arr[:, 4]]),
            axis=0,
        ).sum()
    )
    scale = max(abs(total), abs(u.volume), 1e-30)
    assert abs(total - u.volume) / scale < 1e-6, (
        f"partition volumes sum to {total}, universe volume is {u.volume}"
    )
    x, y, t = dataset.column("x"), dataset.column("y"), dataset.column("t")
    lab = partitioning.labels
    b = arr[lab]
    eps = 1e-9
    inside = (
        (x >= b[:, 0] - eps) & (x <= b[:, 1] + eps)
        & (y >= b[:, 2] - eps) & (y <= b[:, 3] + eps)
        & (t >= b[:, 4] - eps) & (t <= b[:, 5] + eps)
    )
    assert inside.all(), f"{(~inside).sum()} records fall outside their partition box"
