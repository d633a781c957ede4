"""Axis-aligned spatio-temporal cuboids and the centroid-range algebra.

The paper's cost model (Section IV-B) needs, for a *grouped* query
``QG = <W, H, T>`` whose centroid is uniformly distributed, the probability
that the query range intersects a fixed partition ``p``:

    P{I(p, q) = 1} = Volume(CR(QG, p)) / Volume(CR(QG))          (Eq. 12)

where ``CR(QG)`` is the region the centroid may fall in and ``CR(QG, p)`` is
the sub-region whose centroids produce an intersection with ``p``.  Both are
axis-aligned cuboids, so the probability factorizes per dimension; the
vectorized helpers at the bottom of this module compute it for thousands of
partitions at once with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Point3

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Box3:
    """An immutable axis-aligned cuboid in (x, y, t) space.

    The box spans ``[x_min, x_max] x [y_min, y_max] x [t_min, t_max]`` with
    *closed* boundaries: two boxes that merely touch are considered
    intersecting, matching the paper's ``Range(p) ∩ Range(q) != ∅`` test.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if self.x_min > self.x_max:
            raise ValueError(f"x_min ({self.x_min}) > x_max ({self.x_max})")
        if self.y_min > self.y_max:
            raise ValueError(f"y_min ({self.y_min}) > y_max ({self.y_max})")
        if self.t_min > self.t_max:
            raise ValueError(f"t_min ({self.t_min}) > t_max ({self.t_max})")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_center_size(
        center: Point3 | tuple[float, float, float],
        width: float,
        height: float,
        duration: float,
    ) -> "Box3":
        """Build a box from its centroid and extent (the paper's
        ``<W, H, T, x, y, t>`` query representation, Definition 6)."""
        if width < 0 or height < 0 or duration < 0:
            raise ValueError("box extents must be non-negative")
        if isinstance(center, Point3):
            cx, cy, ct = center.as_tuple()
        else:
            cx, cy, ct = center
        return Box3(
            cx - width / 2.0,
            cx + width / 2.0,
            cy - height / 2.0,
            cy + height / 2.0,
            ct - duration / 2.0,
            ct + duration / 2.0,
        )

    @staticmethod
    def bounding(boxes: "list[Box3]") -> "Box3":
        """Return the tightest box enclosing every box in ``boxes``."""
        if not boxes:
            raise ValueError("cannot bound an empty list of boxes")
        return Box3(
            min(b.x_min for b in boxes),
            max(b.x_max for b in boxes),
            min(b.y_min for b in boxes),
            max(b.y_max for b in boxes),
            min(b.t_min for b in boxes),
            max(b.t_max for b in boxes),
        )

    # -- basic measures ----------------------------------------------------

    @property
    def width(self) -> float:
        """Extent along x (the paper's ``W``)."""
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        """Extent along y (the paper's ``H``)."""
        return self.y_max - self.y_min

    @property
    def duration(self) -> float:
        """Extent along t (the paper's ``T``)."""
        return self.t_max - self.t_min

    @property
    def volume(self) -> float:
        """``W * H * T``."""
        return self.width * self.height * self.duration

    @property
    def centroid(self) -> Point3:
        """The center point of the box."""
        return Point3(
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
            (self.t_min + self.t_max) / 2.0,
        )

    @property
    def size(self) -> tuple[float, float, float]:
        """``(W, H, T)``, the grouped-query representation of this box."""
        return (self.width, self.height, self.duration)

    # -- predicates ---------------------------------------------------------

    def intersects(self, other: "Box3") -> bool:
        """True when the two closed boxes share at least one point."""
        return (
            self.x_min <= other.x_max
            and self.x_max >= other.x_min
            and self.y_min <= other.y_max
            and self.y_max >= other.y_min
            and self.t_min <= other.t_max
            and self.t_max >= other.t_min
        )

    def contains_point(self, p: Point3 | tuple[float, float, float]) -> bool:
        """True when the point lies inside the closed box."""
        if isinstance(p, Point3):
            x, y, t = p.as_tuple()
        else:
            x, y, t = p
        return (
            self.x_min <= x <= self.x_max
            and self.y_min <= y <= self.y_max
            and self.t_min <= t <= self.t_max
        )

    def contains_box(self, other: "Box3") -> bool:
        """True when ``other`` lies entirely inside this box."""
        return (
            self.x_min <= other.x_min
            and other.x_max <= self.x_max
            and self.y_min <= other.y_min
            and other.y_max <= self.y_max
            and self.t_min <= other.t_min
            and other.t_max <= self.t_max
        )

    # -- derived boxes -------------------------------------------------------

    def intersection(self, other: "Box3") -> "Box3 | None":
        """The overlap of two boxes, or None when they do not intersect."""
        if not self.intersects(other):
            return None
        return Box3(
            max(self.x_min, other.x_min),
            min(self.x_max, other.x_max),
            max(self.y_min, other.y_min),
            min(self.y_max, other.y_max),
            max(self.t_min, other.t_min),
            min(self.t_max, other.t_max),
        )

    def union(self, other: "Box3") -> "Box3":
        """The tightest box enclosing both boxes."""
        return Box3.bounding([self, other])

    def translated(self, dx: float = 0.0, dy: float = 0.0, dt: float = 0.0) -> "Box3":
        """A copy of this box shifted by the given offsets."""
        return Box3(
            self.x_min + dx,
            self.x_max + dx,
            self.y_min + dy,
            self.y_max + dy,
            self.t_min + dt,
            self.t_max + dt,
        )

    def expanded(self, dx: float = 0.0, dy: float = 0.0, dt: float = 0.0) -> "Box3":
        """A copy grown by the given margins on *each* side (negative margins
        shrink the box; extents are clamped at zero around the centroid)."""
        cx, cy, ct = self.centroid.as_tuple()
        w = max(0.0, self.width + 2 * dx)
        h = max(0.0, self.height + 2 * dy)
        d = max(0.0, self.duration + 2 * dt)
        return Box3.from_center_size((cx, cy, ct), w, h, d)

    def clamped_to(self, bounds: "Box3") -> "Box3 | None":
        """Alias for :meth:`intersection` with ``bounds``, reading better at
        call sites that clip a query to the dataset bounding box ``U``."""
        return self.intersection(bounds)

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        """``(x_min, x_max, y_min, y_max, t_min, t_max)``."""
        return (self.x_min, self.x_max, self.y_min, self.y_max, self.t_min, self.t_max)


# ---------------------------------------------------------------------------
# Vectorized helpers over arrays of boxes
# ---------------------------------------------------------------------------
#
# A box array is a float64 ndarray of shape (n, 6) with columns
# [x_min, x_max, y_min, y_max, t_min, t_max]; this is the layout every
# partitioning scheme exposes so the cost model can treat a million
# partitions as one numpy expression.

BOX_COLUMNS = ("x_min", "x_max", "y_min", "y_max", "t_min", "t_max")


def boxes_to_array(boxes: list[Box3]) -> np.ndarray:
    """Pack a list of :class:`Box3` into an ``(n, 6)`` float64 array."""
    out = np.empty((len(boxes), 6), dtype=np.float64)
    for i, b in enumerate(boxes):
        out[i] = b.as_tuple()
    return out


def array_to_boxes(arr: np.ndarray) -> list[Box3]:
    """Unpack an ``(n, 6)`` box array into a list of :class:`Box3`."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise ValueError(f"expected an (n, 6) box array, got shape {arr.shape}")
    return [Box3(*row) for row in arr]


def boxes_intersect_mask(box_array: np.ndarray, query: Box3) -> np.ndarray:
    """Boolean mask of which boxes in the array intersect ``query``."""
    b = np.asarray(box_array, dtype=np.float64)
    return (
        (b[:, 0] <= query.x_max)
        & (b[:, 1] >= query.x_min)
        & (b[:, 2] <= query.y_max)
        & (b[:, 3] >= query.y_min)
        & (b[:, 4] <= query.t_max)
        & (b[:, 5] >= query.t_min)
    )


def boxes_within_mask(box_array: np.ndarray, query: Box3) -> np.ndarray:
    """Boolean mask of which boxes in the array lie entirely inside
    ``query`` (closed intervals, :meth:`Box3.contains_box` per row)."""
    b = np.asarray(box_array, dtype=np.float64)
    return (
        (b[:, 0] >= query.x_min)
        & (b[:, 1] <= query.x_max)
        & (b[:, 2] >= query.y_min)
        & (b[:, 3] <= query.y_max)
        & (b[:, 4] >= query.t_min)
        & (b[:, 5] <= query.t_max)
    )


def boxes_intersect_count(box_array: np.ndarray, query: Box3) -> int:
    """Exact ``Np(q, r)`` for a *positioned* query: the number of partition
    boxes whose range intersects the query range."""
    return int(boxes_intersect_mask(box_array, query).sum())


def boxes_intersect_matrix(box_array: np.ndarray, query_array: np.ndarray) -> np.ndarray:
    """Pairwise intersection of ``m`` query boxes against ``n`` partition
    boxes as one ``(m, n)`` boolean broadcast — the batch generalization of
    :func:`boxes_intersect_mask`.  ``matrix.sum(axis=1)`` is the exact
    ``Np(q_i, r)`` of every positioned query in one numpy expression.
    """
    b = np.asarray(box_array, dtype=np.float64)
    q = np.asarray(query_array, dtype=np.float64)
    if b.ndim != 2 or b.shape[1] != 6:
        raise ValueError(f"expected an (n, 6) box array, got shape {b.shape}")
    if q.ndim != 2 or q.shape[1] != 6:
        raise ValueError(f"expected an (m, 6) query array, got shape {q.shape}")
    # Each box face (n,) against each query face as a column (m, 1),
    # folded in place: one (m, n) temporary instead of eleven.  A single
    # query's faces are Python floats: at m = 1 setting up the broadcast
    # would cost more than the comparisons.
    x_min, x_max, y_min, y_max, t_min, t_max = (
        q[0].tolist() if len(q) == 1 else q.T[:, :, None])
    out = b[:, 0] <= x_max
    out &= b[:, 1] >= x_min
    out &= b[:, 2] <= y_max
    out &= b[:, 3] >= y_min
    out &= b[:, 4] <= t_max
    out &= b[:, 5] >= t_min
    return out.reshape(len(q), len(b))


def centroid_range(universe: Box3, size: tuple[float, float, float]) -> Box3:
    """The paper's ``CR(QG)``: the region in which the centroid of a query of
    extent ``size = (W, H, T)`` may lie so that the query stays inside ``U``.

    When the query spans the whole universe in some dimension the range
    degenerates to a single coordinate in that dimension.
    """
    w, h, t = size
    w = min(w, universe.width)
    h = min(h, universe.height)
    t = min(t, universe.duration)
    return Box3(
        universe.x_min + w / 2.0,
        universe.x_max - w / 2.0,
        universe.y_min + h / 2.0,
        universe.y_max - h / 2.0,
        universe.t_min + t / 2.0,
        universe.t_max - t / 2.0,
    )


def _axis_probabilities(
    lo: np.ndarray,
    hi: np.ndarray,
    u_lo: float,
    u_hi: float,
    extent: float,
) -> np.ndarray:
    """Per-partition intersection probability along one dimension.

    ``lo``/``hi`` are the partition boundaries, ``[u_lo, u_hi]`` the universe
    extent, ``extent`` the query extent in this dimension.  Implements the
    one-dimensional factor of Eq. 12: the centroid interval producing an
    intersection is ``[max(u_lo + e/2, lo - e/2), min(u_hi - e/2, hi + e/2)]``
    and the full centroid interval has length ``(u_hi - u_lo) - e``.
    """
    u_len = u_hi - u_lo
    e = min(extent, u_len)
    denom = u_len - e
    if denom <= _EPS:
        # The query covers this whole dimension: it intersects every
        # partition with certainty.
        return np.ones(lo.shape[0], dtype=np.float64)
    left = np.maximum(u_lo + e / 2.0, lo - e / 2.0)
    right = np.minimum(u_hi - e / 2.0, hi + e / 2.0)
    length = np.clip(right - left, 0.0, denom)
    return length / denom


def _axis_probability_matrix(
    lo: np.ndarray,
    hi: np.ndarray,
    u_lo: float,
    u_hi: float,
    extents: np.ndarray,
) -> np.ndarray:
    """Batch form of :func:`_axis_probabilities`: one row per query extent,
    one column per partition, computed as a single ``(m, n)`` broadcast."""
    u_len = u_hi - u_lo
    e = np.minimum(np.asarray(extents, dtype=np.float64), u_len)
    denom = u_len - e
    half = e[:, None] / 2.0
    left = np.maximum(u_lo + half, lo[None, :] - half)
    right = np.minimum(u_hi - half, hi[None, :] + half)
    length = np.clip(right - left, 0.0, denom[:, None])
    degenerate = denom <= _EPS
    safe = np.where(degenerate, 1.0, denom)
    probs = length / safe[:, None]
    # A query covering this whole dimension intersects every partition.
    probs[degenerate, :] = 1.0
    return probs


def intersection_probability_matrix(
    box_array: np.ndarray,
    universe: Box3,
    sizes: np.ndarray,
) -> np.ndarray:
    """Eq. 12 for ``m`` grouped queries at once: ``out[i, j]`` is the
    probability that a query of extent ``sizes[i] = (W, H, T)`` intersects
    partition ``j``.  ``out.sum(axis=1)`` gives every query's analytic
    ``Np(QG_i, r)`` (Eq. 11) in one vectorized evaluation.
    """
    b = np.asarray(box_array, dtype=np.float64)
    s = np.asarray(sizes, dtype=np.float64)
    if b.ndim != 2 or b.shape[1] != 6:
        raise ValueError(f"expected an (n, 6) box array, got shape {b.shape}")
    if s.ndim != 2 or s.shape[1] != 3:
        raise ValueError(f"expected an (m, 3) sizes array, got shape {s.shape}")
    px = _axis_probability_matrix(b[:, 0], b[:, 1], universe.x_min, universe.x_max, s[:, 0])
    py = _axis_probability_matrix(b[:, 2], b[:, 3], universe.y_min, universe.y_max, s[:, 1])
    pt = _axis_probability_matrix(b[:, 4], b[:, 5], universe.t_min, universe.t_max, s[:, 2])
    return px * py * pt


def intersection_probabilities(
    box_array: np.ndarray,
    universe: Box3,
    size: tuple[float, float, float],
) -> np.ndarray:
    """``P{I(p_j, q) = 1}`` for every partition ``p_j`` (Eq. 12), vectorized.

    ``size`` is the grouped query extent ``(W, H, T)``; the query centroid is
    assumed uniformly distributed over ``CR(QG)``.  Summing the returned
    vector gives the analytic expected number of partitions to scan
    ``Np(QG, r)`` (Eq. 11).
    """
    b = np.asarray(box_array, dtype=np.float64)
    if b.ndim != 2 or b.shape[1] != 6:
        raise ValueError(f"expected an (n, 6) box array, got shape {b.shape}")
    w, h, t = size
    px = _axis_probabilities(b[:, 0], b[:, 1], universe.x_min, universe.x_max, w)
    py = _axis_probabilities(b[:, 2], b[:, 3], universe.y_min, universe.y_max, h)
    pt = _axis_probabilities(b[:, 4], b[:, 5], universe.t_min, universe.t_max, t)
    return px * py * pt


def centroid_range_volumes(
    box_array: np.ndarray,
    universe: Box3,
    size: tuple[float, float, float],
) -> np.ndarray:
    """``Volume(CR(QG, p_j))`` for every partition (the numerator of Eq. 12).

    Exposed mainly for tests and for the ``np_model`` ablation bench; the
    cost model itself uses :func:`intersection_probabilities` which avoids
    the degenerate-volume corner cases.
    """
    cr = centroid_range(universe, size)
    denom_volume = max(cr.width, 0.0) * max(cr.height, 0.0) * max(cr.duration, 0.0)
    probs = intersection_probabilities(box_array, universe, size)
    return probs * denom_volume
