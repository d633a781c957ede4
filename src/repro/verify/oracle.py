"""The brute-force oracle and bit-identical result comparison.

Diverse replicas differ only in *layout*: every replica, every encoding
and every execution path must return exactly the records a naive filter
of the raw :class:`~repro.data.dataset.Dataset` returns (the paper's
Eq. 5-7 routing silently serves wrong answers otherwise).  This module
supplies the two primitives every differential check is built from:

- :func:`oracle_answer` — the ground truth for a range query, a plain
  ``filter_box`` over the raw dataset;
- :func:`diff_results` — a bit-level comparison of two result sets as
  canonically-ordered multisets (replicas scan partitions in different
  orders, so record *order* legitimately differs; record *content* must
  not).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.data.record import FIELD_NAMES
from repro.geometry import Box3


def canonical(dataset: Dataset) -> Dataset:
    """A copy in canonical comparison order: lexicographic over every
    column.  Identical multisets of records always canonicalize to the
    same row sequence, whatever order the scan produced them in."""
    if len(dataset) == 0:
        return dataset
    return dataset.sorted_by(*FIELD_NAMES)


def oracle_answer(dataset: Dataset, box: Box3) -> Dataset:
    """Ground truth for a range query: brute-force filter, canonical order."""
    return canonical(dataset.filter_box(box))


def row_keys(dataset: Dataset) -> list[tuple]:
    """Hashable per-record keys (all columns), for multiset diffing."""
    if len(dataset) == 0:
        return []
    columns = [dataset.column(name).tolist() for name in FIELD_NAMES]
    return list(zip(*columns))


def datasets_identical(a: Dataset, b: Dataset) -> bool:
    """True when ``a`` and ``b`` hold bit-identical record multisets.

    Comparison happens on the canonical order and on the raw column
    bytes, so it is exact — no float tolerance, no dtype coercion.
    """
    return len(a) == len(b) and canonical(a) == canonical(b)


@dataclass(frozen=True)
class ResultDiff:
    """How one result set differs from the oracle's."""

    expected_count: int
    got_count: int
    missing: tuple[tuple, ...]  # records the oracle has, the result lacks
    extra: tuple[tuple, ...]    # records the result has, the oracle lacks

    _SAMPLE = 3

    def describe(self) -> str:
        parts = [f"expected {self.expected_count} records, got {self.got_count}"]
        if self.missing:
            parts.append(f"{len(self.missing)} missing "
                         f"(e.g. {self.missing[:self._SAMPLE]})")
        if self.extra:
            parts.append(f"{len(self.extra)} extra "
                         f"(e.g. {self.extra[:self._SAMPLE]})")
        return "; ".join(parts)


def diff_results(expected: Dataset, got: Dataset) -> ResultDiff | None:
    """None when ``got`` matches the oracle bit-for-bit; otherwise the
    multiset difference (missing / extra records)."""
    if datasets_identical(expected, got):
        return None
    want = row_keys(expected)
    have = row_keys(got)
    want_counts: dict[tuple, int] = {}
    for key in want:
        want_counts[key] = want_counts.get(key, 0) + 1
    have_counts: dict[tuple, int] = {}
    for key in have:
        have_counts[key] = have_counts.get(key, 0) + 1
    missing = tuple(
        key for key, n in sorted(want_counts.items())
        for _ in range(n - have_counts.get(key, 0)) if n > have_counts.get(key, 0)
    )
    extra = tuple(
        key for key, n in sorted(have_counts.items())
        for _ in range(n - want_counts.get(key, 0)) if n > want_counts.get(key, 0)
    )
    return ResultDiff(
        expected_count=len(expected),
        got_count=len(got),
        missing=missing,
        extra=extra,
    )


@dataclass(frozen=True)
class Mismatch:
    """One differential check that failed: which execution path, which
    replica, which query box, and how the answer differed."""

    path: str
    replica: str
    query_index: int
    box: Box3
    diff: ResultDiff

    def describe(self) -> str:
        return (f"[{self.path}] replica {self.replica!r} query "
                f"#{self.query_index}: {self.diff.describe()}")


@dataclass
class VerificationReport:
    """Outcome of a differential sweep."""

    checks: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    replicas: tuple[str, ...] = ()
    paths: tuple[str, ...] = ()
    n_queries: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def merge(self, other: "VerificationReport") -> None:
        self.checks += other.checks
        self.mismatches.extend(other.mismatches)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        lines = [
            f"differential verification: {status} "
            f"({self.checks} checks, {len(self.replicas)} replicas, "
            f"{self.n_queries} queries, paths: {', '.join(self.paths)})"
        ]
        lines.extend("  " + m.describe() for m in self.mismatches[:20])
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more")
        return "\n".join(lines)


def edge_pinned_boxes(dataset: Dataset, boundaries: "list[Box3]",
                      max_boxes: int = 12) -> list[Box3]:
    """Query boxes whose faces lie *exactly* on partition boundaries and
    on record coordinates — the inputs most likely to expose half-open /
    closed placement disagreements and one-ulp box round-trip drift.

    ``boundaries`` are partition boxes of a built replica; each sampled
    partition face becomes a query face, and each sampled record supplies
    a degenerate (point) query pinned to its exact coordinates.
    """
    universe = dataset.bounding_box()
    boxes: list[Box3] = []
    step = max(1, len(boundaries) // max(1, max_boxes // 2))
    for pbox in boundaries[::step][:max_boxes // 2]:
        # Query exactly one partition's span: every face is a cell edge.
        boxes.append(pbox)
        # And a query ending exactly where the partition begins.
        boxes.append(Box3(universe.x_min, pbox.x_min,
                          universe.y_min, pbox.y_min,
                          universe.t_min, pbox.t_min))
    n = len(dataset)
    for idx in np.linspace(0, n - 1, num=min(4, n), dtype=int):
        x = float(dataset.column("x")[idx])
        y = float(dataset.column("y")[idx])
        t = float(dataset.column("t")[idx])
        boxes.append(Box3(x, x, y, y, t, t))
    return boxes


def random_boxes(dataset: Dataset, n: int, seed: int) -> list[Box3]:
    """Random query boxes spanning point-like to universe-crossing sizes."""
    rng = np.random.default_rng(seed)
    u = dataset.bounding_box()
    boxes = []
    for _ in range(n):
        frac = float(rng.uniform(0.0, 1.2))
        cx = float(rng.uniform(u.x_min, u.x_max))
        cy = float(rng.uniform(u.y_min, u.y_max))
        ct = float(rng.uniform(u.t_min, u.t_max))
        boxes.append(Box3.from_center_size(
            (cx, cy, ct), u.width * frac, u.height * frac,
            u.duration * float(rng.uniform(0.0, 1.2))))
    return boxes
