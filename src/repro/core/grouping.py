"""Workload-size reduction by clustering range sizes (Section III-C1).

"If the number of different range sizes is still large, we can use
clustering algorithms such as K-means to cluster the range sizes and only
use the cluster centers to construct the input workload."  Clustering is
done in log-extent space (range sizes vary over orders of magnitude) with
a from-scratch k-means (k-means++ seeding + Lloyd iterations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workload.query import GroupedQuery, Workload

#: Lloyd iterations before :func:`kmeans` stops short of convergence.
_KMEANS_MAX_ITER = 100


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ initialization.

    Returns ``(centers (k, d), labels (n,))``.  Deterministic given
    ``rng``.  Empty clusters are re-seeded from the farthest point.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be (n, d)")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    # k-means++ seeding.
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest_sq = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(n, size=k - c)]
            break
        probs = closest_sq / total
        centers[c] = points[rng.choice(n, p=probs)]
        closest_sq = np.minimum(
            closest_sq, np.sum((points - centers[c]) ** 2, axis=1)
        )

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = dists.argmin(axis=1)
        new_centers = centers.copy()
        for c in range(k):
            members = points[labels == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the farthest point.
                far = int(dists.min(axis=1).argmax())
                new_centers[c] = points[far]
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift < tol:
            break
    dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return centers, dists.argmin(axis=1)


@dataclass(frozen=True)
class WorkloadReduction:
    """A clustered workload plus the query-to-cluster mapping."""

    reduced: Workload
    labels: np.ndarray  # original query index -> reduced query index


def reduce_workload(
    workload: Workload, k: int, rng: np.random.Generator
) -> WorkloadReduction:
    """Cluster the workload's grouped-query extents down to ``k`` cluster
    centers; cluster weights are the summed member weights."""
    grouped = workload.grouped()
    sizes = np.array([q.size for q in grouped.queries()], dtype=np.float64)
    if len(grouped) <= k:
        return WorkloadReduction(grouped, np.arange(len(grouped)))
    logs = np.log(np.maximum(sizes, 1e-300))
    centers, labels = kmeans(logs, k, rng)
    weights = np.zeros(k)
    for label, (_, w) in zip(labels, grouped):
        weights[label] += w
    entries = []
    for c in range(k):
        w, h, t = np.exp(centers[c])
        entries.append((GroupedQuery(float(w), float(h), float(t)), float(weights[c])))
    return WorkloadReduction(Workload(entries), labels)
