"""Tests for failover routing, retries, repair-on-exhaustion and the
unified ExecOptions surface of the failure-aware engine."""

import warnings

import numpy as np
import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import (
    BlotStore,
    DegradedReadError,
    ExecOptions,
    FaultInjector,
    InMemoryStore,
    open_store,
)
from repro.workload import positioned_random_workload


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(4000, seed=23, num_taxis=16)


MODEL = CostModel({
    "ROW-PLAIN": EncodingCostParams(scan_rate=5_000, extra_time=0.01),
    "COL-GZIP": EncodingCostParams(scan_rate=2_000, extra_time=0.05),
})


def make_twin_store(ds, cache_bytes=None, injector=None):
    """Two replicas sharing ONE partitioning (different encodings), so a
    failover changes nothing about which partitions a query involves —
    records come back in the identical order from either replica.  The
    ROW-PLAIN replica is strictly cheaper, so routing always picks it
    while healthy."""
    store = BlotStore(ds, cost_model=MODEL, cache_bytes=cache_bytes,
                      fault_injector=injector)
    scheme = CompositeScheme(KdTreePartitioner(8), 4)
    store.add_replica(scheme, encoding_scheme_by_name("ROW-PLAIN"),
                      InMemoryStore(), name="fast")
    store.add_replica(scheme, encoding_scheme_by_name("COL-GZIP"),
                      InMemoryStore(), name="slow")
    return store


def make_workload(ds, n, seed=3):
    rng = np.random.default_rng(seed)
    return positioned_random_workload(ds.bounding_box(), n, rng,
                                      max_fraction=0.4)


class TestQueryFailover:
    def test_replica_outage_fails_over_to_next_cheapest(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        bb = ds.bounding_box()
        healthy = store.query(bb)
        assert healthy.stats.replica_name == "fast"
        assert healthy.stats.failovers == 0

        inj.fail_replica("fast")
        degraded = store.query(bb)
        assert degraded.stats.replica_name == "slow"
        assert degraded.stats.failovers == 1
        for col in ("oid", "t", "x", "y"):
            assert np.array_equal(degraded.records.column(col),
                                  healthy.records.column(col))

    def test_all_replicas_down_raises_degraded_read_error(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        inj.fail_replica("fast")
        inj.fail_replica("slow")
        with pytest.raises(DegradedReadError) as e:
            store.query(ds.bounding_box())
        names = [name for name, _ in e.value.attempts]
        assert names == ["fast", "slow"]

    def test_count_fails_over(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        total, _ = store.count(ds.bounding_box())
        inj.fail_replica("fast")
        degraded_total, stats = store.count(ds.bounding_box())
        assert degraded_total == total == len(ds)
        assert stats.replica_name == "slow"
        assert stats.failovers == 1

    def test_transient_fault_survived_by_retries(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        pid = next(i for i, k in enumerate(store.replica("fast").unit_keys)
                   if k is not None)
        inj.fail_partition("fast", pid, times=2)
        res = store.query(ds.bounding_box(), options=ExecOptions(retries=2))
        assert res.stats.replica_name == "fast"
        assert res.stats.retries == 2
        assert res.stats.failovers == 0

    def test_no_retries_means_immediate_failover(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        pid = next(i for i, k in enumerate(store.replica("fast").unit_keys)
                   if k is not None)
        inj.fail_partition("fast", pid, times=1)
        res = store.query(ds.bounding_box(), options=ExecOptions(retries=0))
        assert res.stats.replica_name == "slow"
        assert res.stats.failovers == 1

    def test_failover_disabled_raises(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        inj.fail_replica("fast")
        with pytest.raises(DegradedReadError):
            store.query(ds.bounding_box(), replica="fast",
                        options=ExecOptions(failover=False, repair=False))

    def test_failed_replica_cache_is_invalidated(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, cache_bytes=64_000_000, injector=inj)
        store.query(ds.bounding_box())
        assert len(store.partition_cache) > 0
        inj.fail_replica("fast")
        store.query(ds.bounding_box())
        stats = store.partition_cache.stats()
        # every surviving entry belongs to the fallback replica
        assert stats.entries > 0
        inj.heal_replica("fast")
        # the failed replica's entries were dropped, so a fresh query
        # re-reads from storage rather than serving stale memory
        res = store.query(ds.bounding_box(), replica="fast")
        assert res.stats.bytes_read > 0


def read_everything(store, ds, fold, replica, opts):
    """One of the two scalar reads that must share one failure path:
    ``"query"`` — a range query over the whole dataset — or ``"count"``
    — a count over the bounding box pulled in a hair on every face, so
    every edge partition is a *boundary* partition ``count()`` has to
    read rather than answer from metadata.  Returns ``(records matched,
    records expected, stats)``."""
    bb = ds.bounding_box()
    if fold == "query":
        res = store.query(bb, replica=replica, options=opts)
        return res.stats.records_returned, len(ds), res.stats
    eps = 1e-9
    clipped = Box3(bb.x_min + bb.width * eps, bb.x_max - bb.width * eps,
                   bb.y_min + bb.height * eps, bb.y_max - bb.height * eps,
                   bb.t_min + bb.duration * eps, bb.t_max - bb.duration * eps)
    total, stats = store.count(clipped, replica=replica, options=opts)
    return total, ds.count_in_box(clipped), stats


class TestRepairOnExhaustion:
    def test_real_damage_repaired_from_diverse_replica(self, ds):
        for name in ("query", "count"):
            store = make_twin_store(ds)
            fast = store.replica("fast")
            pid = next(i for i, k in enumerate(fast.unit_keys)
                       if k is not None)
            fast.store.delete(fast.unit_keys[pid])
            opts = ExecOptions(failover=False, retries=0)
            got, want, stats = read_everything(store, ds, name, "fast", opts)
            assert stats.replica_name == "fast", name
            assert got == want, name
            # the unit was rewritten: a second read needs no repair
            assert len(fast.store.get(fast.unit_keys[pid])) > 0, name

    def test_injected_partition_fault_repaired_and_healed(self, ds):
        for name in ("query", "count"):
            inj = FaultInjector()
            store = make_twin_store(ds, injector=inj)
            pid = next(i for i, k in
                       enumerate(store.replica("fast").unit_keys)
                       if k is not None)
            inj.fail_partition("fast", pid)
            opts = ExecOptions(failover=False, retries=0)
            got, want, stats = read_everything(store, ds, name, "fast", opts)
            assert stats.replica_name == "fast", name
            assert got == want, name
            assert not inj.partition_failed("fast", pid), name

    def test_repair_impossible_when_sources_also_down(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        pid = next(i for i, k in enumerate(store.replica("fast").unit_keys)
                   if k is not None)
        inj.fail_partition("fast", pid)
        inj.fail_replica("slow")
        with pytest.raises(DegradedReadError):
            store.query(ds.bounding_box())


class TestWorkloadFailover:
    def test_golden_identical_results_under_single_replica_failure(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        workload = make_workload(ds, 25)
        healthy = store.execute_workload(workload)
        assert healthy.stats.per_replica_queries == {"fast": 25}
        assert not healthy.stats.degraded

        inj.fail_replica("fast")
        degraded = store.execute_workload(workload)
        assert degraded.stats.per_replica_queries == {"slow": 25}
        assert degraded.stats.failovers == 25
        assert degraded.stats.failed_replicas == ("fast",)
        assert degraded.stats.degraded_cost_delta > 0
        for h, d in zip(healthy.results, degraded.results):
            assert d.stats.replica_name == "slow"
            for col in ("oid", "t", "x", "y"):
                assert np.array_equal(d.records.column(col),
                                      h.records.column(col))

    def test_workload_all_replicas_down_raises(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        inj.fail_replica("fast")
        inj.fail_replica("slow")
        with pytest.raises(DegradedReadError):
            store.execute_workload(make_workload(ds, 5))

    def test_diverse_partitionings_multiset_equal_under_failover(self, ds):
        """With genuinely diverse partitionings the fallback replica
        returns the same record *set* (order may differ)."""
        inj = FaultInjector()
        store = BlotStore(ds, cost_model=MODEL, fault_injector=inj)
        store.add_replica(CompositeScheme(KdTreePartitioner(8), 4),
                          encoding_scheme_by_name("ROW-PLAIN"),
                          InMemoryStore(), name="coarse")
        store.add_replica(CompositeScheme(KdTreePartitioner(32), 8),
                          encoding_scheme_by_name("COL-GZIP"),
                          InMemoryStore(), name="fine")
        workload = make_workload(ds, 20, seed=11)
        healthy = store.execute_workload(workload)
        victim = max(healthy.stats.per_replica_queries,
                     key=healthy.stats.per_replica_queries.get)
        inj.fail_replica(victim)
        degraded = store.execute_workload(workload)
        assert degraded.stats.failovers > 0
        for h, d in zip(healthy.results, degraded.results):
            assert len(h.records) == len(d.records)
            assert sorted(zip(h.records.column("oid"), h.records.column("t"))) \
                == sorted(zip(d.records.column("oid"), d.records.column("t")))

    def test_workload_repairs_partition_level_damage(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        workload = make_workload(ds, 10)
        baseline = store.execute_workload(workload)
        pid = next(i for i, k in enumerate(store.replica("fast").unit_keys)
                   if k is not None)
        inj.fail_partition("fast", pid)
        # failover disabled: a query touching pid exhausts its only
        # candidate and must be served through the repair path
        result = store.execute_workload(
            workload, options=ExecOptions(failover=False, retries=0))
        assert result.stats.repairs >= 1
        assert not inj.partition_failed("fast", pid)
        assert [r.stats.records_returned for r in result.results] \
            == [r.stats.records_returned for r in baseline.results]


class TestExecuteEach:
    """``execute_each`` is ``execute_workload`` with one outcome per
    query: an unreadable partition costs only the queries that needed
    it, and each of those gets its own structured error."""

    def test_unserved_queries_come_back_as_errors_not_raises(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        workload = make_workload(ds, 12)
        baseline = store.execute_workload(workload)
        fast = store.replica("fast")
        pid = next(i for i, k in enumerate(fast.unit_keys) if k is not None)
        inj.fail_partition("fast", pid)
        pinned = ExecOptions(failover=False, repair=False, retries=0)
        touched = [pid in fast.involved_partitions(q.box())
                   for q in workload.queries()]
        assert any(touched) and not all(touched)

        each = store.execute_each(workload, replica="fast", options=pinned)
        assert each.stats.n_queries == 12
        for hit, got, want in zip(touched, each.results, baseline.results):
            if hit:
                assert isinstance(got, DegradedReadError)
                assert [name for name, _ in got.attempts] == ["fast"]
            else:
                assert got.stats.replica_name == "fast"
                for col in ("oid", "t", "x", "y"):
                    assert np.array_equal(got.records.column(col),
                                          want.records.column(col))
        # the all-or-nothing form raises the first of those errors
        with pytest.raises(DegradedReadError):
            store.execute_workload(workload, options=pinned)

    def test_pin_fails_over_like_a_pinned_query(self, ds):
        inj = FaultInjector()
        store = make_twin_store(ds, injector=inj)
        workload = make_workload(ds, 8)
        baseline = store.execute_workload(workload)
        inj.fail_replica("slow")
        each = store.execute_each(workload, replica="slow")
        assert each.stats.per_replica_queries == {"fast": 8}
        assert each.stats.failovers == 8
        for got, want in zip(each.results, baseline.results):
            assert got.stats.failovers == 1
            assert np.array_equal(got.records.column("oid"),
                                  want.records.column("oid"))


class TestExecOptionsSurface:
    def test_bare_parallelism_keyword_removed(self, ds):
        store = make_twin_store(ds)
        with pytest.raises(TypeError):
            store.query(ds.bounding_box(), parallelism=2)
        with pytest.raises(TypeError):
            store.execute_workload(make_workload(ds, 3), parallelism=2)

    def test_options_do_not_warn(self, ds):
        store = make_twin_store(ds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.query(ds.bounding_box(), options=ExecOptions(retries=1))

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ExecOptions(retries=-1)

    def test_use_cache_false_bypasses_cache(self, ds):
        store = make_twin_store(ds, cache_bytes=64_000_000)
        before = store.cache_stats()
        store.query(ds.bounding_box(), options=ExecOptions(use_cache=False))
        after = store.cache_stats()
        assert after.lookups == before.lookups
        assert after.entries == before.entries


class TestOpenStore:
    def test_open_store_builds_and_registers(self, ds):
        scheme = CompositeScheme(KdTreePartitioner(8), 4)
        store = open_store(
            ds,
            replicas=[
                (scheme, encoding_scheme_by_name("ROW-PLAIN"),
                 InMemoryStore(), "fast"),
                (scheme, encoding_scheme_by_name("COL-GZIP"),
                 InMemoryStore(), "slow"),
            ],
            cost_model=MODEL,
        )
        assert store.replica_names() == ["fast", "slow"]
        assert store.query(ds.bounding_box()).stats.records_returned == len(ds)

    def test_open_store_attaches_injector_to_replicas(self, ds):
        inj = FaultInjector()
        scheme = CompositeScheme(KdTreePartitioner(8), 4)
        store = open_store(
            ds,
            replicas=[(scheme, encoding_scheme_by_name("ROW-PLAIN"),
                       InMemoryStore(), "only")],
            fault_injector=inj,
        )
        inj.fail_replica("only")
        with pytest.raises(DegradedReadError):
            store.query(ds.bounding_box())

    def test_open_store_rejects_bad_spec(self, ds):
        with pytest.raises(TypeError, match="StoredReplica"):
            open_store(ds, replicas=["nonsense"])
