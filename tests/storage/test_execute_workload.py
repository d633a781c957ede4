"""Tests for the batch workload execution path of the engine."""

import numpy as np
import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import (
    BlotStore,
    FaultSpec,
    InMemoryStore,
    StoredReplica,
)
from repro.verify import datasets_identical, oracle_answer
from repro.workload import GroupedQuery, Workload, positioned_random_workload


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(4000, seed=19, num_taxis=16)


def make_store(ds, cache_bytes=None):
    model = CostModel({
        "ROW-PLAIN": EncodingCostParams(scan_rate=2_000, extra_time=0.01),
        "COL-GZIP": EncodingCostParams(scan_rate=2_500, extra_time=0.02),
    })
    store = BlotStore(ds, cost_model=model, cache_bytes=cache_bytes)
    store.add_replica(CompositeScheme(KdTreePartitioner(8), 4),
                      encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore(),
                      name="coarse")
    store.add_replica(CompositeScheme(KdTreePartitioner(32), 8),
                      encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
                      name="fine")
    return store


def make_workload(ds, n, seed=3, max_fraction=0.4):
    rng = np.random.default_rng(seed)
    return positioned_random_workload(ds.bounding_box(), n, rng,
                                      max_fraction=max_fraction)


class TestGoldenEquivalence:
    def test_results_identical_to_sequential_query(self, ds):
        store = make_store(ds)
        workload = make_workload(ds, 30)
        result = store.execute_workload(workload)
        assigned = result.plan.assigned_names()
        for i, (q, _) in enumerate(workload):
            seq = store.query(q, replica=assigned[i])
            batch = result.results[i]
            assert batch.stats.replica_name == seq.stats.replica_name
            assert batch.stats.partitions_involved == seq.stats.partitions_involved
            assert batch.stats.records_scanned == seq.stats.records_scanned
            assert batch.stats.records_returned == seq.stats.records_returned
            # Identical records in identical order.
            for col in ("oid", "t", "x", "y"):
                assert np.array_equal(batch.records.column(col),
                                      seq.records.column(col))

    def test_routing_agrees_with_per_query_route(self, ds):
        store = make_store(ds)
        workload = make_workload(ds, 30, seed=5)
        plan = store.route_workload(workload)
        assert plan.assigned_names() == [store.route(q) for q in workload.queries()]


class TestWorkloadStats:
    def test_per_replica_counts_cover_workload(self, ds):
        store = make_store(ds)
        workload = make_workload(ds, 25)
        result = store.execute_workload(workload)
        s = result.stats
        assert s.n_queries == len(workload)
        assert sum(s.per_replica_queries.values()) == len(workload)
        assert s.seconds > 0
        assert s.bytes_read > 0
        assert s.records_returned == sum(
            r.stats.records_returned for r in result.results)

    def test_shared_partitions_read_once(self, ds):
        store = make_store(ds)
        workload = make_workload(ds, 25)
        result = store.execute_workload(workload)
        sequential_bytes = sum(
            store.query(q, replica=name).stats.bytes_read
            for q, name in zip(workload.queries(),
                               result.plan.assigned_names())
        )
        # The union scan reads every shared partition once; the per-query
        # loop re-reads it per query.
        assert result.stats.bytes_read < sequential_bytes
        # Per-query charges sum to the unique-read total.
        assert sum(r.stats.bytes_read for r in result.results) == \
            result.stats.bytes_read

    def test_no_cache_reports_zero_rate(self, ds):
        store = make_store(ds)
        result = store.execute_workload(make_workload(ds, 10))
        assert result.stats.cache_hits == 0
        assert result.stats.cache_hit_rate == 0.0


class TestCachedExecution:
    def test_second_pass_reads_strictly_fewer_bytes(self, ds):
        store = make_store(ds, cache_bytes=128 << 20)
        workload = make_workload(ds, 25)
        first = store.execute_workload(workload)
        second = store.execute_workload(workload)
        assert second.stats.bytes_read < first.stats.bytes_read
        assert second.stats.cache_hit_rate > 0
        assert second.stats.records_returned == first.stats.records_returned

    def test_tiny_cache_still_correct(self, ds):
        # A cache too small to hold even one partition degenerates to the
        # uncached path without affecting results.
        uncached = make_store(ds)
        tiny = make_store(ds, cache_bytes=8)
        workload = make_workload(ds, 12)
        a = uncached.execute_workload(workload)
        b = tiny.execute_workload(workload)
        assert a.stats.records_returned == b.stats.records_returned
        assert b.stats.bytes_read == a.stats.bytes_read

    def test_query_and_count_share_the_cache(self, ds):
        store = make_store(ds, cache_bytes=128 << 20)
        q = make_workload(ds, 1, seed=9).queries()[0]
        name = store.route(q)
        warm = store.query(q, replica=name)
        assert warm.stats.bytes_read > 0
        again = store.query(q, replica=name)
        assert again.stats.bytes_read == 0  # served from cache
        _, count_stats = store.count(q, replica=name)
        assert count_stats.bytes_read == 0
        assert store.cache_stats().hits > 0


class TestValidation:
    def test_grouped_queries_rejected(self, ds):
        store = make_store(ds)
        workload = Workload([(GroupedQuery(0.1, 0.1, 10.0), 1.0)])
        with pytest.raises(ValueError, match="positioned"):
            store.execute_workload(workload)


class TestSingleReplica:
    def test_single_replica_needs_no_cost_model(self, ds):
        store = BlotStore(ds)
        store.add_replica(CompositeScheme(KdTreePartitioner(8), 4),
                          encoding_scheme_by_name("ROW-PLAIN"),
                          InMemoryStore(), name="only")
        workload = make_workload(ds, 8)
        result = store.execute_workload(workload)
        assert result.stats.per_replica_queries == {"only": len(workload)}
        for (q, _), r in zip(workload, result.results):
            assert r.stats.records_returned == \
                store.query(q).stats.records_returned


class TestPinnedWithoutCostModel:
    def test_pinned_batch_is_served_and_fails_over_in_name_order(self, ds):
        """``replica=`` needs no cost model on a batch, exactly as on
        ``query``: the pin serves, and a failed pin falls back in name
        order."""
        store = BlotStore(ds)
        for leaves, name in ((8, "a"), (16, "b"), (4, "c")):
            store.add_replica(CompositeScheme(KdTreePartitioner(leaves), 2),
                              encoding_scheme_by_name("ROW-PLAIN"),
                              InMemoryStore(), name=name)
        workload = make_workload(ds, 6)
        result = store.execute_each(workload, replica="a")
        assert result.stats.per_replica_queries == {"a": len(workload)}
        for q, r in zip(workload.queries(), result.results):
            single = store.query(q, replica="a")
            assert datasets_identical(r.records, single.records)
            assert datasets_identical(r.records, oracle_answer(ds, q.box()))
        store.set_fault_injector(FaultSpec(fail_replicas=("a",)).build())
        failed_over = store.execute_each(workload, replica="a")
        assert failed_over.stats.per_replica_queries == {"b": len(workload)}
        assert [store.query(q, replica="a").stats.replica_name
                for q in workload.queries()] == ["b"] * len(workload)


class TestBatchIntersectsOnce:
    def test_routed_batch_plans_from_its_routing_masks(self, ds,
                                                        monkeypatch):
        """Routing's intersect pass is the plan's: a routed batch never
        intersects a replica's boxes a second time."""
        store = make_store(ds)
        calls = []
        involved = StoredReplica.involved_partitions

        def counted(replica, box):
            calls.append(replica.name)
            return involved(replica, box)

        monkeypatch.setattr(StoredReplica, "involved_partitions", counted)
        result = store.execute_workload(make_workload(ds, 20))
        assert len(result.results) == 20
        assert calls == []
