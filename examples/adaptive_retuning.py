#!/usr/bin/env python3
"""The retuning what-if as the workload drifts.

BLOT systems "adaptively optimize the configuration of the physical
storage organization based on analyzing the historical queries" (paper
Section II-E).  This demo deploys a replica set tuned for analytics-style
big scans, then lets a month of interactive traffic (tiny range queries)
arrive; the query log is compressed into a grouped workload and the
selection re-run against it, quantifying what a redeploy would win.  On a
live store the ``ReselectionController`` (docs/adaptivity.md) runs this
same comparison continuously and performs the swap.

    python examples/adaptive_retuning.py
"""

import numpy as np

from repro import (
    AdvisorConfig,
    GroupedQuery,
    ReplicaAdvisor,
    Workload,
    cost_model_for,
    make_cluster,
    paper_encoding_schemes,
    synthetic_shanghai_taxis,
)
from repro.core import QueryLogger
from repro.partition import small_partitioning_schemes


def live_queries(universe, frac, n, rng):
    out = []
    for _ in range(n):
        w = universe.width * frac
        h = universe.height * frac
        t = universe.duration * frac
        out.append(GroupedQuery(w, h, t).at(
            rng.uniform(universe.x_min + w / 2, universe.x_max - w / 2),
            rng.uniform(universe.y_min + h / 2, universe.y_max - h / 2),
            rng.uniform(universe.t_min + t / 2, universe.t_max - t / 2),
        ))
    return out


def what_if(advisor, budget, deployed, log):
    """Cost of the deployed set vs a re-selection, both on the logged
    workload (so the improvement is apples-to-apples)."""
    workload = log.to_workload(max_grouped_queries=16)
    instance = advisor.build_instance(workload, budget)
    column = {instance.name_of(j): j for j in range(instance.n_replicas)}
    current = instance.workload_cost(
        [column[name] for name in deployed.replica_names])
    return current, advisor.recommend(workload, budget, method="exact")


def main() -> None:
    sample = synthetic_shanghai_taxis(15_000, seed=55)
    cluster = make_cluster("amazon-s3-emr", seed=8)
    model = cost_model_for(cluster, [s.name for s in paper_encoding_schemes()])
    advisor = ReplicaAdvisor(
        sample,
        small_partitioning_schemes((4, 16, 64, 256), (4, 16, 64)),
        paper_encoding_schemes(),
        model,
        AdvisorConfig(n_records=65_000_000),
    )
    u = advisor.universe

    # Day 0: the DBA expects analytics scans.
    expected = Workload([
        (GroupedQuery(u.width * 0.7, u.height * 0.7, u.duration * 0.5), 0.8),
        (GroupedQuery(u.width * 0.3, u.height * 0.3, u.duration * 0.2), 0.2),
    ])
    budget = advisor.single_replica_budget(expected, copies=3)
    deployed = advisor.recommend(expected, budget, method="exact")
    print("deployed for the expected scan workload:")
    for name in deployed.replica_names:
        print(f"  {name}")

    # Reality: interactive dashboards issue tiny queries.
    rng = np.random.default_rng(9)
    log = QueryLogger()
    print("\nobserving live traffic (40 tiny interactive queries)...")
    for q in live_queries(u, 0.004, 40, rng):
        log.record(q)

    current, candidate = what_if(advisor, budget, deployed, log)
    improvement = 1.0 - candidate.cost / current
    print(f"retune evaluation: deployed-set cost {current:.1f}s, "
          f"re-optimized {candidate.cost:.1f}s "
          f"({improvement:.0%} improvement)")
    if improvement >= 0.05:
        deployed = candidate
        log.clear()  # a new epoch starts
        print("replica set redeployed:")
        for name in deployed.replica_names:
            print(f"  {name}")
    else:
        print("drift below threshold; keeping the deployed set")

    # And stable traffic afterwards does not thrash.
    for q in live_queries(u, 0.004, 25, rng):
        log.record(q)
    current, candidate = what_if(advisor, budget, deployed, log)
    print(f"\nsecond evaluation on the same traffic: improvement "
          f"{1.0 - candidate.cost / current:.1%} — no thrashing")


if __name__ == "__main__":
    main()
