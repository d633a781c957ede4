#!/usr/bin/env python3
"""A day in the life of a BLOT deployment.

End-to-end operational pipeline combining the library's moving parts:

1. bootstrap replicas from the initial data load, durable under a
   write-ahead-log directory;
2. ingest live GPS batches into the delta buffer (queries stay correct
   throughout, auto-compaction folds the buffer into fresh replicas
   and routes with scan costs the store measures on its own units);
3. log the served queries, detect workload drift and retune the replica
   set with the advisor;
4. report storage, selectivity estimates and final query statistics.

    python examples/ingest_pipeline.py
"""

import tempfile

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
from repro.costmodel import Histogram3D
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner, small_partitioning_schemes
from repro.storage import IngestingBlotStore, ReplicaSpec


def main(wal_dir: str) -> None:
    rng = np.random.default_rng(13)

    # --- day 0: bootstrap -------------------------------------------------
    full = synthetic_shanghai_taxis(30_000, seed=77, num_taxis=48)
    initial = full.take(np.arange(0, 12_000))
    batches = [full.take(np.arange(12_000 + i * 3_000,
                                   12_000 + (i + 1) * 3_000))
               for i in range(6)]

    store = IngestingBlotStore(
        initial,
        [
            ReplicaSpec(CompositeScheme(KdTreePartitioner(16), 8),
                        encoding_scheme_by_name("COL-GZIP"), name="fine"),
            ReplicaSpec(CompositeScheme(KdTreePartitioner(4), 4),
                        encoding_scheme_by_name("COL-LZMA2"), name="coarse"),
        ],
        wal_dir=wal_dir,
        auto_compact_at=8_000,
    )
    print(f"bootstrapped with {len(initial):,} records, "
          f"replicas: {store.base.replica_names()}")

    # --- live traffic -----------------------------------------------------
    u = full.bounding_box()
    hist = Histogram3D.build(initial, resolution=(12, 12, 8), universe=u)
    print("\ningesting live batches:")
    compactions_seen = 0
    for i, batch in enumerate(batches, 1):
        store.append(batch)
        if store.compactions > compactions_seen:
            # Statistics go stale as data grows: refresh at compaction,
            # like real systems piggyback stats rebuilds on maintenance.
            compactions_seen = store.compactions
            hist = Histogram3D.build(store.dataset(),
                                     resolution=(12, 12, 8), universe=u)
        frac = float(rng.uniform(0.05, 0.3))
        w, h, t = u.width * frac, u.height * frac, u.duration * frac
        q = GroupedQuery(w, h, t).at(
            rng.uniform(u.x_min + w / 2, u.x_max - w / 2),
            rng.uniform(u.y_min + h / 2, u.y_max - h / 2),
            rng.uniform(u.t_min + t / 2, u.t_max - t / 2))
        res = store.query(q)
        predicted = hist.scaled(len(store)).estimate_count(q.box())
        print(f"  batch {i}: {len(store):,} records "
              f"(buffer {store.buffered_records:,}, "
              f"compactions {store.compactions}); query returned "
              f"{res.stats.records_returned:,} (histogram predicted "
              f"{predicted:,.0f})")

    # --- retune from the log ------------------------------------------------
    # The advisor prices replica sets for the paper's EMR deployment.
    print("\nworkload drift check:")
    cluster = make_cluster("amazon-s3-emr", seed=2)
    model = cost_model_for(cluster, [s.name for s in paper_encoding_schemes()])
    advisor = ReplicaAdvisor(
        store.dataset().sample(10_000, rng),
        small_partitioning_schemes((4, 16, 64), (4, 16)),
        paper_encoding_schemes(),
        model,
        AdvisorConfig(n_records=65_000_000, universe=u),
    )
    expected = Workload([
        (GroupedQuery(u.width * 0.6, u.height * 0.6, u.duration * 0.5), 1.0),
    ])
    budget = advisor.single_replica_budget(expected, copies=3)
    deployed = advisor.recommend(expected, budget, method="exact")
    log = QueryLogger()
    for _ in range(15):  # interactive dashboards took over
        frac = 0.01
        w, h, t = u.width * frac, u.height * frac, u.duration * frac
        log.record(GroupedQuery(w, h, t).at(
            rng.uniform(u.x_min + w / 2, u.x_max - w / 2),
            rng.uniform(u.y_min + h / 2, u.y_max - h / 2),
            rng.uniform(u.t_min + t / 2, u.t_max - t / 2)))
    # The what-if: deployed set vs a re-selection, both priced on the
    # logged workload.  (On a live BlotStore the ReselectionController
    # runs this continuously and swaps replicas — docs/adaptivity.md.)
    observed = log.to_workload(max_grouped_queries=16)
    instance = advisor.build_instance(observed, budget)
    column = {instance.name_of(j): j for j in range(instance.n_replicas)}
    current = instance.workload_cost(
        [column[name] for name in deployed.replica_names])
    candidate = advisor.recommend(observed, budget, method="exact")
    improvement = 1.0 - candidate.cost / current
    print(f"  drift improvement available: {improvement:.0%} "
          f"-> retune: {improvement >= 0.05}")
    if improvement >= 0.05:
        print(f"  new replica set: {', '.join(candidate.replica_names)}")

    # --- close of day -----------------------------------------------------
    store.compact()
    print(f"\nend of day: {len(store):,} records in "
          f"{len(store.base.replica_names())} replicas, "
          f"{store.base.total_storage_bytes() / 1e6:.1f} MB on disk, "
          f"{store.compactions} compactions")
    store.close()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as wal_dir:
        main(wal_dir)
