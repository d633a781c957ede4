"""The deployment shape: real ``spawn`` worker processes.

These tests prove the API-redesign claim end to end — a
:class:`~repro.storage.StoreConfig` crosses a genuine process boundary,
each worker rehydrates its masked shard view, and the union of shard
answers is bit-equal to the single-process engine.  Thread-mode
coverage lives in ``test_server.py``; this file keeps the query count
small because each worker pays a real interpreter start.
"""

import asyncio
import dataclasses
import multiprocessing

from repro.serve import ShardServer
from repro.storage import hydrate_store
from repro.verify.oracle import canonical, datasets_identical


def hydrated_cost_params(config):
    """The Eq. 6 rows a store hydrated from ``config`` routes with."""
    store = hydrate_store(config)
    try:
        model = store.cost_model
        return tuple((name, model.params_for(name).scan_rate,
                      model.params_for(name).extra_time)
                     for name in model.encoding_names)
    finally:
        store.close()


def test_spawn_workers_answer_bit_equal(config, queries, baseline):
    subset = queries[:6]
    # A spawned process hydrates exactly the rows the config carries.
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        assert pool.apply(hydrated_cost_params, (config,)) == \
            tuple(sorted(config.cost_params))

    async def go():
        async with ShardServer(config, n_shards=2,
                               worker_mode="process") as server:
            results = await server.execute(subset)
            stats = server.server_stats()
        return results, stats

    results, stats = asyncio.run(go())
    assert stats["queries_served"] == len(subset)
    for got, want in zip(results, baseline):
        assert not isinstance(got, BaseException), got
        assert datasets_identical(canonical(got), want)


def test_spawn_workers_report_metrics(config, queries):
    observed = dataclasses.replace(config, observability=True)

    async def go():
        async with ShardServer(observed, n_shards=2,
                               worker_mode="process") as server:
            await server.query(queries[0])
            return await server.metrics_snapshot()

    snap = asyncio.run(go())
    assert sorted(snap["shards"]) == [0, 1]
    # Each worker hydrated its own telemetry bundle; the counters it
    # published while scanning surface in the merged fleet view,
    # alongside the front door's own request accounting.
    merged_total = sum(c["value"] for c in snap["merged"]["counters"])
    shard_total = sum(c["value"]
                      for s in snap["shards"].values()
                      for c in s["counters"])
    frontdoor_total = sum(c["value"]
                          for c in snap["frontdoor"]["counters"])
    assert shard_total > 0
    assert merged_total == shard_total + frontdoor_total
