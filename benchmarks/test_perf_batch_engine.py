"""Performance gate for the batch query-execution path.

Two claims are asserted, not just reported:

1. ``route_workload`` — the engine's one ranking pass over a whole
   batch, one intersect-matrix broadcast per replica — routes a
   1000-query workload over 10 replicas at least 5x faster than the
   per-query ``route()`` loop (the same pass over a batch of one), while
   producing the identical plan.
2. Re-executing an overlapping workload with the decoded-partition cache
   enabled reads strictly fewer bytes than the first pass and reports a
   non-zero cache hit rate.

Results land in ``benchmarks/results/BENCH_batch_engine.json`` (uploaded
as a CI artifact) alongside the usual text block.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore
from repro.workload import positioned_random_workload

from benchmarks._report import RESULTS_DIR, emit, fmt_row

N_QUERIES = 1000

#: 10 diverse replicas: 5 kd-tree granularities x 2 encodings.
REPLICA_SPECS = [
    (leaves, slices, enc)
    for leaves, slices in ((4, 2), (8, 4), (16, 4), (32, 8), (64, 8))
    for enc in ("ROW-PLAIN", "COL-SNAPPY")
]


@pytest.fixture(scope="module")
def batch_store():
    ds = synthetic_shanghai_taxis(6000, seed=2014, num_taxis=32)
    model = CostModel({
        "ROW-PLAIN": EncodingCostParams(scan_rate=11_800, extra_time=30.0),
        "COL-SNAPPY": EncodingCostParams(scan_rate=17_500, extra_time=30.5),
    })
    store = BlotStore(ds, cost_model=model, cache_bytes=256 << 20)
    for leaves, slices, enc in REPLICA_SPECS:
        store.add_replica(
            CompositeScheme(KdTreePartitioner(leaves), slices),
            encoding_scheme_by_name(enc), InMemoryStore(),
            name=f"KD{leaves}xT{slices}/{enc}",
        )
    return ds, store


@pytest.fixture(scope="module")
def workload(batch_store):
    ds, _ = batch_store
    rng = np.random.default_rng(7)
    return positioned_random_workload(
        ds.bounding_box(), N_QUERIES, rng, max_fraction=0.4)


def test_route_batch_speedup(batch_store, workload, benchmark, capsys):
    """Batch routing >= 5x faster than the per-query route() loop on a
    1k-query x 10-replica workload, with an identical plan."""
    ds, store = batch_store
    queries = workload.queries()
    assert len(store.replica_names()) == 10

    # Warm both paths once (profile memoization, numpy imports).
    store.route(queries[0])
    store.route_workload(workload)

    t0 = time.perf_counter()
    looped = [store.route(q) for q in queries]
    loop_seconds = time.perf_counter() - t0

    batch_seconds = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        plan = store.route_workload(workload)
        batch_seconds = min(batch_seconds, time.perf_counter() - t0)
    benchmark.pedantic(lambda: store.route_workload(workload),
                       rounds=3, iterations=1)

    assert plan.assigned_names() == looped
    speedup = loop_seconds / batch_seconds
    lines = [
        fmt_row(["path", "seconds", "q/s"], [14, 10, 12]),
        fmt_row(["route() loop", loop_seconds, N_QUERIES / loop_seconds],
                [14, 10, 12]),
        fmt_row(["route_batch", batch_seconds, N_QUERIES / batch_seconds],
                [14, 10, 12]),
        f"speedup: {speedup:.1f}x ({N_QUERIES} queries x "
        f"{len(store.replica_names())} replicas)",
    ]
    emit("bench_route_batch", "BENCH: vectorized batch routing", lines, capsys)
    _merge_json({
        "n_queries": N_QUERIES,
        "n_replicas": len(store.replica_names()),
        "route_loop_seconds": loop_seconds,
        "route_batch_seconds": batch_seconds,
        "route_speedup": speedup,
    })
    assert speedup >= 5.0, f"batch routing only {speedup:.1f}x faster"


def test_cached_reexecution_reads_fewer_bytes(batch_store, workload, capsys):
    """With the decoded-partition cache, a second pass over an overlapping
    workload reads strictly fewer bytes and reports a hit rate > 0."""
    _, store = batch_store
    first = store.execute_workload(workload)
    second = store.execute_workload(workload)

    assert second.stats.records_returned == first.stats.records_returned
    assert second.stats.bytes_read < first.stats.bytes_read
    assert second.stats.cache_hit_rate > 0.0

    lines = [
        fmt_row(["pass", "MB read", "decodes", "hit rate", "q/s"],
                [6, 10, 9, 10, 10]),
        fmt_row(["1st", first.stats.bytes_read / 1e6,
                 first.stats.partitions_decoded, first.stats.cache_hit_rate,
                 first.stats.n_queries / first.stats.seconds],
                [6, 10, 9, 10, 10]),
        fmt_row(["2nd", second.stats.bytes_read / 1e6,
                 second.stats.partitions_decoded, second.stats.cache_hit_rate,
                 second.stats.n_queries / second.stats.seconds],
                [6, 10, 9, 10, 10]),
    ]
    emit("bench_partition_cache", "BENCH: decoded-partition cache", lines,
         capsys)
    _merge_json({
        "first_pass_bytes": first.stats.bytes_read,
        "second_pass_bytes": second.stats.bytes_read,
        "second_pass_hit_rate": second.stats.cache_hit_rate,
        "first_pass_seconds": first.stats.seconds,
        "second_pass_seconds": second.stats.seconds,
    })


def test_execute_workload_golden_sample(batch_store, workload):
    """Spot-check the batch results against sequential query() on the
    same plan (the full equivalence test lives in tier-1)."""
    _, store = batch_store
    result = store.execute_workload(workload)
    assigned = result.plan.assigned_names()
    rng = np.random.default_rng(3)
    for i in rng.choice(len(assigned), size=25, replace=False):
        i = int(i)
        seq = store.query(workload.queries()[i], replica=assigned[i])
        assert np.array_equal(result.results[i].records.column("t"),
                              seq.records.column("t"))


def _merge_json(fields: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_batch_engine.json")
    data = {}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
    data.update(fields)
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
