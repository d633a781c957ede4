"""Performance gate for the warm incremental re-solve.

The reselection controller runs on the serving box, triggered by live
drift — it cannot afford a cold Eq. 1-5 solve over the full candidate
cross product on every evaluation.  `warm_reselect` restricts the
search pool to the incumbent's columns plus each query's cheapest
candidate and warm-starts local search from the incumbent, which should
be several times cheaper than the cold solve at advisor scale
(hundreds of candidates, dozens of grouped queries) while never scoring
worse than the incumbent on the capped objective.

This gate times both solvers on the identical drifted instance
(m=300 candidates, n=64 grouped queries) and asserts the warm solve is
at least 3x faster.  Results land in
``benchmarks/results/BENCH_reselect.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import local_search_select, warm_reselect
from repro.core.problem import SelectionInstance

from benchmarks._report import RESULTS_DIR, emit, fmt_row

M_REPLICAS = 300
N_QUERIES = 64
REPEATS = 3


def drifted_instance(rng):
    """A structured selection instance: each candidate specializes in a
    band of query sizes (like partitioning granularities do), so both
    solvers face a landscape with real structure, not iid noise."""
    specialty = rng.uniform(0, 1, M_REPLICAS)       # preferred query size
    sharpness = rng.uniform(4.0, 24.0, M_REPLICAS)  # how peaked the fit is
    sizes = np.sort(rng.uniform(0, 1, N_QUERIES))
    misfit = np.abs(sizes[:, None] - specialty[None, :])
    costs = 0.05 + misfit * sharpness[None, :] \
        + rng.uniform(0, 0.2, (M_REPLICAS,))[None, :]
    weights = rng.dirichlet(np.ones(N_QUERIES)) * N_QUERIES
    storage = rng.uniform(1.0, 2.0, M_REPLICAS)
    return SelectionInstance(
        costs=costs, weights=weights, storage=storage,
        budget=6.0,
        replica_names=tuple(f"cand-{j}" for j in range(M_REPLICAS)))


def test_warm_reselect_beats_cold_solve(capsys):
    """Warm re-solve from the incumbent >= 3x faster than the cold
    full-pool local search on the identical drifted instance, without
    ever scoring worse than the incumbent."""
    rng = np.random.default_rng(2014)
    instance = drifted_instance(rng)
    # The incumbent was optimal for *yesterday's* mix: solve under a
    # shuffled weight vector, then drift the weights.
    stale = SelectionInstance(
        costs=instance.costs,
        weights=np.asarray(instance.weights)[::-1].copy(),
        storage=instance.storage, budget=instance.budget,
        replica_names=instance.replica_names)
    incumbent = local_search_select(stale).selected

    warm_s = cold_s = float("inf")
    warm = cold = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        warm = warm_reselect(instance, incumbent)
        warm_s = min(warm_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        cold = local_search_select(instance)
        cold_s = min(cold_s, time.perf_counter() - t0)

    speedup = cold_s / warm_s
    incumbent_cost = instance.capped_workload_cost(incumbent)
    warm_cost = instance.capped_workload_cost(warm.selected)
    pool = int(warm.solver.split("[")[1].split("/")[0])
    lines = [
        fmt_row(["solver", "best ms", "Eq.5 cost"], [12, 12, 12]),
        fmt_row(["cold", cold_s * 1e3, float(cold.cost)], [12, 12, 12]),
        fmt_row(["warm", warm_s * 1e3, float(warm_cost)], [12, 12, 12]),
        f"speedup: {speedup:.1f}x  (pool {pool}/{M_REPLICAS} columns, "
        f"incumbent cost {incumbent_cost:.3f})",
    ]
    emit("bench_reselect_warm", "BENCH: warm reselection solve", lines,
         capsys)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_reselect.json"), "w") as f:
        json.dump({
            "m_replicas": M_REPLICAS,
            "n_queries": N_QUERIES,
            "pool_columns": pool,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "speedup": speedup,
            "incumbent_cost": incumbent_cost,
            "warm_cost": warm_cost,
            "cold_cost": float(cold.cost),
        }, f, indent=2, sort_keys=True)
        f.write("\n")
    # The warm start is a floor: never worse than the incumbent.
    assert warm_cost <= incumbent_cost + 1e-9
    assert speedup >= 3.0, (
        f"warm solve only {speedup:.1f}x faster than cold "
        f"({warm_s * 1e3:.2f} ms vs {cold_s * 1e3:.2f} ms)")
