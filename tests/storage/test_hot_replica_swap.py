"""Hot replica retire + re-register: read memos must not cross replicas.

The regression this file pins: the decoded-partition cache and the
zone-prune memo used to be keyed ``(replica_name, pid)`` and kept valid
by evicting a name's keys when it was retired.  A read that was still
scanning the retired replica then wrote its partitions back under the
name, and a replica re-registered under that name — which generally
partitions the dataset differently — was served the old replica's
partition contents or pruned by its zone bounds: silently wrong
answers.  The memos now belong to the replica object
(``StoredReplica.serial`` / ``zone_memo``), so a late writer can only
write where no live replica reads.
"""

from dataclasses import replace

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
from repro.verify import (
    datasets_identical,
    edge_pinned_boxes,
    oracle_answer,
    random_boxes,
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


def rebuild(ds, old, leaves, slices):
    """``old``'s name and encoding over a different kd partitioning."""
    return build_replica(
        ds, CompositeScheme(KdTreePartitioner(leaves), slices),
        old.encoding, InMemoryStore(), name=old.name)


def reregister(store, rebuilt):
    """Replace the same-name replica: retire it, register ``rebuilt``."""
    old = store.retire_replica(rebuilt.name)
    store.register_replica(rebuilt)
    return old


def holds_nothing_of(store, old):
    """The retired replica object has no decoded partition cached."""
    cache = store.partition_cache
    return all(cache.get((old.serial, pid)) is None
               for pid in range(old.n_partitions))


class TestReregisterReplica:
    def test_rebuilt_replica_misses_the_cache(self, ds, store):
        q = mid_query(ds)
        store.query(q, replica="hot")                    # populate
        warm = store.query(q, replica="hot")
        assert warm.stats.bytes_read == 0                # served from cache

        rebuilt = rebuild(ds, store.replica("hot"), 16, 2)
        displaced = reregister(store, rebuilt)
        assert displaced.n_partitions == 8               # the old KD4xT2
        assert rebuilt.serial != displaced.serial
        assert holds_nothing_of(store, displaced)

        # The rebuilt replica misses the cache, fetches its own units,
        # and stays bit-equal to the oracle.
        res = store.query(q, replica="hot")
        assert res.stats.bytes_read > 0
        assert datasets_identical(res.records, oracle_answer(ds, q.box()))

    def test_other_replicas_cache_survives(self, ds, store):
        q = mid_query(ds)
        store.query(q, replica="cold")
        reregister(store, rebuild(ds, store.replica("hot"), 16, 2))
        warm = store.query(q, replica="cold")
        assert warm.stats.bytes_read == 0                # still cached

    def test_a_replaced_copy_is_a_new_replica_object(self, ds, store):
        """A shard's masked view (``dataclasses.replace``) may hold other
        units: it gets its own serial and an empty zone memo."""
        hot = store.replica("hot")
        store.query(mid_query(ds), replica="hot")
        assert hot.zone_memo
        copy = replace(hot, unit_keys=hot.unit_keys)
        assert copy.serial != hot.serial
        assert copy.zone_memo == {}


def reregister_on_first_fetch(monkeypatch, store, ds, names, leaves,
                              slices):
    """Wrap the unit stores of the ``names`` replicas: the first unit
    fetch from one of them retires that replica and registers a rebuild
    of it under the same name, then returns the fetched unit — so the
    read that fetched it goes on decoding the retired replica.  Returns
    the list the ``(old, rebuilt)`` pair is appended to."""
    fired = []
    for name in names:
        old = store.replica(name)
        get_view = old.store.get_view

        def fetch(key, old=old, get_view=get_view):
            if not fired:
                rebuilt = rebuild(ds, old, leaves, slices)
                assert rebuilt.n_partitions != old.n_partitions
                fired.append((reregister(store, rebuilt), rebuilt))
            return get_view(key)

        monkeypatch.setattr(old.store, "get_view", fetch)
    return fired


def read_in_flight(store, call, q, replica):
    """One read of ``q`` through ``call``: (records or count) — pinned
    to ``replica`` unless that is None."""
    if call == "query":
        return store.query(q, replica=replica).records
    if call == "count":
        return store.count(q, replica=replica)[0]
    (result,) = store.execute_each(Workload([(q, 1.0)]),
                                   replica=replica).results
    return result.records


def assert_oracle_equal(ds, q, got):
    want = oracle_answer(ds, q.box())
    if isinstance(got, int):
        assert got == len(want)
    else:
        assert datasets_identical(got, want)


def assert_reads_after_oracle_equal(ds, store, name, seed):
    """Every box of a random + partition-face-pinned set, read pinned to
    ``name``: a stale cache hit *or* a stale zone-memo prune shows."""
    rebuilt = store.replica(name)
    boxes = random_boxes(ds, 24, seed)
    boxes += edge_pinned_boxes(ds, rebuilt.partitioning.boxes())
    for box in boxes:
        got = store.query(box, replica=name).records
        assert datasets_identical(got, oracle_answer(ds, box)), box


CALLS = ("query", "count", "execute_workload")


class TestReregisterDuringARead:
    """A retire + re-register landing *inside* a read's unit fetch: the
    in-flight read finishes on the replica it was planned on, and every
    read after it sees only the rebuilt replica."""

    @pytest.mark.parametrize("call", CALLS)
    def test_pinned_read(self, ds, store, monkeypatch, call):
        """``hot`` rebuilt with more partitions inside a pinned read:
        the read and every read after it are oracle-equal."""
        fired = reregister_on_first_fetch(monkeypatch, store, ds, ["hot"],
                                          16, 2)
        q = mid_query(ds)
        assert_oracle_equal(ds, q, read_in_flight(store, call, q, "hot"))
        (_, rebuilt), = fired
        assert store.replica("hot") is rebuilt
        assert_reads_after_oracle_equal(ds, store, "hot", seed=7)

    @pytest.mark.parametrize("call", CALLS)
    def test_routed_read(self, ds, store, monkeypatch, call):
        """Whichever replica a routed read is served by is rebuilt
        under its name with a different partitioning mid-read."""
        fired = reregister_on_first_fetch(monkeypatch, store, ds,
                                          ["hot", "cold"], 2, 8)
        q = mid_query(ds, frac=0.6)
        assert_oracle_equal(ds, q, read_in_flight(store, call, q, None))
        (old, rebuilt), = fired
        assert store.replica(old.name) is rebuilt
        assert_reads_after_oracle_equal(ds, store, old.name, seed=11)
        # Routed reads over the new set agree too.
        for box in random_boxes(ds, 8, 13):
            got = store.query(box).records
            assert datasets_identical(got, oracle_answer(ds, box))


class TestRetireReplica:
    def test_retire_drops_routing_and_state(self, ds, store):
        q = mid_query(ds)
        store.query(q, replica="cold")
        retired = store.retire_replica("cold")
        assert retired.name == "cold"
        assert store.replica_names() == ["hot"]
        assert holds_nothing_of(store, retired)
        # Reads keep working against the survivor.
        res = store.query(q)
        assert datasets_identical(res.records, oracle_answer(ds, q.box()))

    def test_cannot_retire_last_replica(self, store):
        store.retire_replica("cold")
        with pytest.raises(ValueError, match="last replica"):
            store.retire_replica("hot")

    def test_retire_unknown_raises(self, store):
        with pytest.raises(KeyError):
            store.retire_replica("nope")

    def test_stale_plan_fails_over_past_a_retired_replica(self, ds, store):
        """A batch ranking made before a hot retire must not error:
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
        rank = store._rank
        retired = []

        def rank_then_retire(*args, **kwargs):
            reads, plan = rank(*args, **kwargs)
            retired.append(store.retire_replica(plan.assigned_names()[0]))
            return reads, plan

        store._rank = rank_then_retire
        result = store.execute_workload(workload)
        (victim,) = [r.name for r in retired]
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
