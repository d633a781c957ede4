"""Performance gate for the serving tier's batched dispatch.

The front door's :class:`~repro.serve.Batcher` exists for one reason:
``execute_workload`` decodes each involved partition once per *batch*,
so coalescing concurrent queries into one routed dispatch amortizes
decode work that naive one-query-per-request dispatch repeats.  This
gate drives the same concurrent traffic through both shapes (thread
workers, identical store, identical queries) and asserts:

1. batching actually coalesces — far fewer flushes than queries; and
2. batched dispatch clears a throughput floor over naive dispatch.

Results land in ``benchmarks/results/BENCH_serving.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np
import pytest

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, GridPartitioner, KdTreePartitioner
from repro.serve import ShardServer
from repro.storage import materialize_store
from repro.workload import positioned_random_workload

from benchmarks._report import RESULTS_DIR, emit, fmt_row

N_QUERIES = 150


@pytest.fixture(scope="module")
def served_config(tmp_path_factory):
    ds = synthetic_shanghai_taxis(8000, seed=2014, num_taxis=32)
    root = tmp_path_factory.mktemp("bench-serve")
    return materialize_store(
        ds,
        [
            (GridPartitioner(4, 4),
             encoding_scheme_by_name("ROW-PLAIN"), "grid-plain"),
            (CompositeScheme(KdTreePartitioner(16), 4),
             encoding_scheme_by_name("COL-GZIP"), "kd-gzip"),
        ],
        str(root),
    )


@pytest.fixture(scope="module")
def serving_queries(served_config):
    from repro.storage import hydrate_store

    store = hydrate_store(served_config)
    try:
        universe = store.universe
    finally:
        store.close()
    rng = np.random.default_rng(7)
    # Overlapping mid-sized extents: the regime where shared partition
    # decodes dominate and batching has real work to amortize.
    return positioned_random_workload(universe, N_QUERIES, rng,
                                      min_fraction=0.05,
                                      max_fraction=0.4).queries()


def _drive(config, queries, **server_kwargs):
    """Answer all queries concurrently; wall seconds + server stats."""
    async def go():
        async with ShardServer(config, n_shards=2, worker_mode="thread",
                               **server_kwargs) as server:
            # Warm the workers (imports, first decode) off the clock.
            await server.query(queries[0])
            t0 = time.perf_counter()
            results = await server.execute(queries)
            seconds = time.perf_counter() - t0
            stats = server.server_stats()
        return seconds, results, stats

    seconds, results, stats = asyncio.run(go())
    assert not any(isinstance(r, BaseException) for r in results)
    return seconds, stats


def test_batched_dispatch_beats_naive(served_config, serving_queries, capsys):
    """Coalesced dispatch >= 1.5x the throughput of one-query-per-request
    dispatch on the identical sharded store."""
    naive_seconds = batched_seconds = float("inf")
    for _ in range(3):
        s, naive_stats = _drive(served_config, serving_queries, max_batch=1)
        naive_seconds = min(naive_seconds, s)
        s, batched_stats = _drive(served_config, serving_queries,
                                  max_batch=64)
        batched_seconds = min(batched_seconds, s)

    # Naive mode flushes every query alone; batching must coalesce hard.
    assert naive_stats["batches_flushed"] >= N_QUERIES
    assert batched_stats["batches_flushed"] <= N_QUERIES // 4

    naive_qps = N_QUERIES / naive_seconds
    batched_qps = N_QUERIES / batched_seconds
    speedup = batched_qps / naive_qps
    lines = [
        fmt_row(["dispatch", "seconds", "q/s", "batches"], [10, 10, 12, 9]),
        fmt_row(["naive", naive_seconds, naive_qps,
                 naive_stats["batches_flushed"]], [10, 10, 12, 9]),
        fmt_row(["batched", batched_seconds, batched_qps,
                 batched_stats["batches_flushed"]], [10, 10, 12, 9]),
        f"speedup: {speedup:.1f}x ({N_QUERIES} queries, 2 thread shards)",
    ]
    emit("bench_serving_dispatch", "BENCH: serving-tier batched dispatch",
         lines, capsys)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_serving.json"), "w") as f:
        json.dump({
            "n_queries": N_QUERIES,
            "naive_seconds": naive_seconds,
            "batched_seconds": batched_seconds,
            "naive_qps": naive_qps,
            "batched_qps": batched_qps,
            "dispatch_speedup": speedup,
            "batched_flushes": batched_stats["batches_flushed"],
        }, f, indent=2, sort_keys=True)
        f.write("\n")
    assert speedup >= 1.5, (
        f"batched dispatch only {speedup:.2f}x naive throughput")
