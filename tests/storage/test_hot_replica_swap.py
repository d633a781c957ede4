"""Hot replica retire/swap: memoized read state must not survive.

The regression this file pins: the decoded-partition cache and the
zone-prune memo are both keyed ``(replica_name, pid)``, and before the
fix nothing evicted either when a replica was rebuilt under its old
name.  A rebuilt replica generally partitions the dataset differently,
so a stale hit pairs the *old* replica's partition contents with the
*new* replica's partition boxes — silently wrong query results.
"""

import numpy as np
import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import (
    BlotStore,
    InMemoryStore,
    StoredReplica,
    build_replica,
)
from repro.workload import Query, Workload


def make_model():
    return CostModel({
        "COL-GZIP": EncodingCostParams(scan_rate=100_000, extra_time=0.001),
        "ROW-PLAIN": EncodingCostParams(scan_rate=250_000, extra_time=0.0),
    })


@pytest.fixture()
def ds():
    return synthetic_shanghai_taxis(2500, seed=43, num_taxis=10)


@pytest.fixture()
def store(ds):
    blot = BlotStore(ds, cost_model=make_model(), cache_bytes=1 << 24)
    blot.add_replica(CompositeScheme(KdTreePartitioner(4), 2),
                     encoding_scheme_by_name("COL-GZIP"),
                     InMemoryStore(), name="hot")
    blot.add_replica(CompositeScheme(KdTreePartitioner(8), 2),
                     encoding_scheme_by_name("ROW-PLAIN"),
                     InMemoryStore(), name="cold")
    return blot


def mid_query(ds, frac=0.4):
    bb = ds.bounding_box()
    w, h, t = bb.width * frac, bb.height * frac, bb.duration * frac
    return Query(w, h, t, bb.x_min + bb.width / 2, bb.y_min + bb.height / 2,
                 bb.t_min + bb.duration / 2)


def pairs(records):
    return sorted(zip(records.column("oid"), records.column("t")))


class TestSwapReplica:
    def test_swap_invalidates_cache_and_zone_memo(self, ds, store):
        q = mid_query(ds)
        store.query(q, replica="hot")                    # populate
        warm = store.query(q, replica="hot")
        assert warm.stats.bytes_read == 0                # served from cache
        assert any(k[0] == "hot" for k in store._zone_info)

        rebuilt = build_replica(
            ds, CompositeScheme(KdTreePartitioner(16), 2),
            encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
            name="hot")
        displaced = store.swap_replica(rebuilt)
        assert displaced.n_partitions == 8               # the old KD4xT2

        # Every (hot, pid) cache entry and zone-memo row is gone...
        assert store.partition_cache.get(("hot", 0)) is None
        assert store.partition_cache.stats().invalidations > 0
        assert not any(k[0] == "hot" for k in store._zone_info)

        # ...so the next read misses the cache, re-fetches the rebuilt
        # replica's units, and stays bit-equal to the oracle.
        res = store.query(q, replica="hot")
        assert res.stats.bytes_read > 0
        assert pairs(res.records) == pairs(ds.filter_box(q.box()))

    def test_swap_unknown_name_rejected(self, ds, store):
        stranger = build_replica(
            ds, CompositeScheme(KdTreePartitioner(4), 2),
            encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
            name="never-registered")
        with pytest.raises(KeyError):
            store.swap_replica(stranger)

    def test_other_replicas_cache_survives_a_swap(self, ds, store):
        q = mid_query(ds)
        store.query(q, replica="cold")
        rebuilt = build_replica(
            ds, CompositeScheme(KdTreePartitioner(16), 2),
            encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
            name="hot")
        store.swap_replica(rebuilt)
        warm = store.query(q, replica="cold")
        assert warm.stats.bytes_read == 0                # still cached


class TestRetireReplica:
    def test_retire_drops_routing_and_state(self, ds, store):
        q = mid_query(ds)
        store.query(q, replica="cold")
        retired = store.retire_replica("cold")
        assert retired.name == "cold"
        assert store.replica_names() == ["hot"]
        assert store.partition_cache.get(("cold", 0)) is None
        assert not any(k[0] == "cold" for k in store._zone_info)
        # Reads keep working against the survivor.
        res = store.query(q)
        assert pairs(res.records) == pairs(ds.filter_box(q.box()))

    def test_cannot_retire_last_replica(self, store):
        store.retire_replica("cold")
        with pytest.raises(ValueError, match="last replica"):
            store.retire_replica("hot")

    def test_retire_unknown_raises(self, store):
        with pytest.raises(KeyError):
            store.retire_replica("nope")

    def test_stale_plan_fails_over_past_a_retired_replica(self, ds, store):
        """A batch plan computed before a hot retire must not error:
        queries assigned to the retired replica walk down their Eq. 6-7
        ranking and the results stay bit-equal to the oracle."""
        rng = np.random.default_rng(5)
        bb = ds.bounding_box()
        queries = []
        for _ in range(12):
            frac = rng.uniform(0.1, 0.5)
            w, h, t = bb.width * frac, bb.height * frac, bb.duration * frac
            queries.append(Query(
                w, h, t,
                rng.uniform(bb.x_min + w / 2, bb.x_max - w / 2),
                rng.uniform(bb.y_min + h / 2, bb.y_max - h / 2),
                rng.uniform(bb.t_min + t / 2, bb.t_max - t / 2)))
        workload = Workload([(q, 1.0) for q in queries])
        plan = store.route_workload(workload)
        victim = plan.assigned_names()[0]
        store.retire_replica(victim)

        result = store.execute_workload(workload, plan=plan)
        assert result.stats.failovers > 0
        for q, qr in zip(queries, result.results):
            assert pairs(qr.records) == pairs(ds.filter_box(q.box()))
            assert qr.stats.replica_name != victim

    def test_per_query_path_survives_concurrent_retire(self, ds, store):
        """The sequential path's candidate list can also go stale; a
        pinned read against a just-retired replica raises KeyError from
        the pin check, but an unpinned read never sees the gap."""
        q = mid_query(ds)
        store.retire_replica("cold")
        res = store.query(q)
        assert pairs(res.records) == pairs(ds.filter_box(q.box()))

    @pytest.mark.parametrize("call", ["query", "execute_workload"])
    def test_retire_landing_inside_routing_is_a_failover(
            self, ds, store, monkeypatch, call):
        """The interleaving a background reselection can produce: the
        retire lands *between* routing's reads of the serving set.  The
        read routed against one published set, so it fails over past the
        retired replica — bit-equal, no bare ``KeyError``."""
        q = mid_query(ds)
        profile = StoredReplica.profile
        retired = []

        def profile_then_retire(replica, **kwargs):
            if not retired:
                victim = "hot" if replica.name == "cold" else "cold"
                retired.append(store.retire_replica(victim).name)
            return profile(replica, **kwargs)

        monkeypatch.setattr(StoredReplica, "profile", profile_then_retire)
        if call == "query":
            answer = store.query(q)
        else:
            (answer,) = store.execute_workload(Workload([(q, 1.0)])).results
        assert len(retired) == 1
        assert store.replica_names() == [answer.stats.replica_name]
        assert pairs(answer.records) == pairs(ds.filter_box(q.box()))
