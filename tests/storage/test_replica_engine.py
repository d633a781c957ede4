"""Tests for replica building and the BlotStore query engine."""

import numpy as np
import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import Dataset, synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore, ReplicaExists, build_replica
from repro.workload import Query


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(3000, seed=31, num_taxis=12)


@pytest.fixture(scope="module")
def replica(ds):
    return build_replica(
        ds,
        CompositeScheme(KdTreePartitioner(8), 4),
        encoding_scheme_by_name("COL-GZIP"),
        InMemoryStore(),
    )


def random_query(ds, rng, frac=0.2):
    bb = ds.bounding_box()
    w, h, t = bb.width * frac, bb.height * frac, bb.duration * frac
    return Query(
        w, h, t,
        rng.uniform(bb.x_min + w / 2, bb.x_max - w / 2),
        rng.uniform(bb.y_min + h / 2, bb.y_max - h / 2),
        rng.uniform(bb.t_min + t / 2, bb.t_max - t / 2),
    )


class TestBuildReplica:
    def test_all_records_stored(self, ds, replica):
        total = sum(
            len(replica.read_partition(i)) for i in range(replica.n_partitions)
        )
        assert total == len(ds)

    def test_partitions_time_sorted(self, replica):
        part = replica.read_partition(0)
        assert np.all(np.diff(part.column("t")) >= 0)

    def test_storage_bytes_positive_and_matches_store(self, replica):
        assert replica.storage_bytes() == replica.store.total_bytes()
        assert replica.storage_bytes() > 0

    def test_profile_defaults(self, ds, replica):
        prof = replica.profile()
        assert prof.n_records == len(ds)
        assert prof.encoding_name == "COL-GZIP"
        assert prof.storage_bytes == replica.storage_bytes()

    def test_profile_scaling(self, replica):
        prof = replica.profile(n_records=1_000_000, storage_bytes=5e9)
        assert prof.n_records == 1_000_000

    def test_default_name(self, replica):
        assert replica.name == "KD8xT4/COL-GZIP"

    def test_unit_key_count_validated(self, replica):
        from repro.storage.replica import StoredReplica
        with pytest.raises(ValueError, match="unit keys"):
            StoredReplica(
                replica.name, replica.partitioning, replica.encoding,
                replica.store, replica.unit_keys[:-1],
            )

    @pytest.mark.parametrize("encoding", ["COL-PLAIN", "ROW-PLAIN", "COL-GZIP"])
    def test_units_equal_each_partition_encoded_alone(self, encoding):
        # Four timestamps and three taxis: (t, oid) ties everywhere, so
        # the in-partition order rests on the sort being stable, and the
        # equi-depth time cuts collapse, leaving partitions empty.  40k
        # records span several encode chunks.
        rng = np.random.default_rng(5)
        n = 40_000
        base = synthetic_shanghai_taxis(n, seed=5, num_taxis=12)
        cols = base.columns
        cols["t"] = 1.2e9 + rng.integers(0, 4, n) * 30.0
        cols["oid"] = rng.integers(0, 3, n).astype(np.int32)
        cols["speed"] = np.arange(n, dtype=np.float32)  # order witness
        data = Dataset(cols)
        scheme = CompositeScheme(KdTreePartitioner(8), 8)
        enc = encoding_scheme_by_name(encoding)
        built = build_replica(data, scheme, enc, InMemoryStore())
        labels = built.partitioning.labels
        empty = 0
        for pid, key in enumerate(built.unit_keys):
            part = data.take(np.flatnonzero(labels == pid))
            if len(part) == 0:
                assert key is None
                empty += 1
                continue
            assert built.store.get(key) == enc.encode(part.sorted_by_time())
        assert empty > 0


class TestQueryProcessing:
    @pytest.fixture(scope="class")
    def store_with_replica(self, ds):
        store = BlotStore(ds)
        store.add_replica(
            CompositeScheme(KdTreePartitioner(8), 4),
            encoding_scheme_by_name("COL-GZIP"),
            InMemoryStore(),
        )
        return store

    def test_query_matches_brute_force(self, ds, store_with_replica):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = random_query(ds, rng)
            got = store_with_replica.query(q)
            expected = ds.filter_box(q.box())
            assert len(got.records) == len(expected)
            # Same multiset of (oid, t) pairs.
            a = sorted(zip(got.records.column("oid"), got.records.column("t")))
            b = sorted(zip(expected.column("oid"), expected.column("t")))
            assert a == b

    def test_box_query_accepted(self, ds, store_with_replica):
        bb = ds.bounding_box()
        got = store_with_replica.query(bb)
        assert len(got.records) == len(ds)

    def test_stats_accounting(self, ds, store_with_replica):
        rng = np.random.default_rng(1)
        q = random_query(ds, rng, frac=0.1)
        res = store_with_replica.query(q)
        s = res.stats
        assert s.partitions_involved >= 1
        assert s.records_scanned >= s.records_returned
        assert s.bytes_read > 0
        assert s.seconds >= 0
        assert 0 <= s.scanned_fraction <= 1

    def test_small_query_scans_fraction(self, ds, store_with_replica):
        rng = np.random.default_rng(2)
        q = random_query(ds, rng, frac=0.05)
        res = store_with_replica.query(q)
        assert res.stats.scanned_fraction < 1.0

    def test_empty_result(self, ds, store_with_replica):
        bb = ds.bounding_box()
        q = Query(1e-9, 1e-9, 1e-9, bb.x_min, bb.y_min, bb.t_min)
        res = store_with_replica.query(q)
        # Possibly a record sits exactly at the corner; just check stats.
        assert res.stats.records_returned == len(res.records)


class TestRouting:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            BlotStore(Dataset.empty())

    def test_duplicate_replica_rejected(self, ds):
        store = BlotStore(ds)
        scheme = CompositeScheme(KdTreePartitioner(4), 2)
        enc = encoding_scheme_by_name("ROW-PLAIN")
        store.add_replica(scheme, enc, InMemoryStore())
        with pytest.raises(ReplicaExists):
            store.add_replica(scheme, enc, InMemoryStore())

    def test_single_replica_routes_trivially(self, ds):
        store = BlotStore(ds)
        store.add_replica(
            CompositeScheme(KdTreePartitioner(4), 2),
            encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore(),
        )
        q = random_query(ds, np.random.default_rng(3))
        assert store.route(q) == store.replica_names()[0]

    def test_multi_replica_requires_cost_model(self, ds):
        store = BlotStore(ds)
        store.add_replica(CompositeScheme(KdTreePartitioner(4), 2),
                          encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore())
        store.add_replica(CompositeScheme(KdTreePartitioner(16), 4),
                          encoding_scheme_by_name("COL-GZIP"), InMemoryStore())
        q = random_query(ds, np.random.default_rng(4))
        with pytest.raises(ValueError, match="cost model"):
            store.route(q)

    def test_cost_model_routing_prefers_fine_replica_for_small_query(self, ds):
        # Scan-dominated regime: slow scan, negligible per-partition setup,
        # so the finer layout that prunes more records wins small queries.
        model = CostModel({
            "ROW-PLAIN": EncodingCostParams(scan_rate=2_000, extra_time=0.001),
            "COL-GZIP": EncodingCostParams(scan_rate=2_000, extra_time=0.001),
        })
        store = BlotStore(ds, cost_model=model)
        store.add_replica(CompositeScheme(KdTreePartitioner(4), 2),
                          encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore(),
                          name="coarse")
        store.add_replica(CompositeScheme(KdTreePartitioner(64), 8),
                          encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
                          name="fine")
        bb = ds.bounding_box()
        small = Query(bb.width * 0.02, bb.height * 0.02, bb.duration * 0.02,
                      bb.centroid.x, bb.centroid.y, bb.centroid.t)
        assert store.route(small) == "fine"
        res = store.query(small)
        assert res.stats.replica_name == "fine"

    def test_equal_cost_tie_breaks_lexicographically(self, ds):
        """Two identical replicas under different names have exactly equal
        costs for every query; routing must deterministically pick the
        lexicographically smallest name, not registration order."""
        model = CostModel({
            "ROW-PLAIN": EncodingCostParams(scan_rate=2_000, extra_time=0.01),
        })
        store = BlotStore(ds, cost_model=model)
        scheme = CompositeScheme(KdTreePartitioner(8), 4)
        enc = encoding_scheme_by_name("ROW-PLAIN")
        # Register the lexicographically *larger* name first, so a
        # registration-order tiebreak would get this wrong.
        store.add_replica(scheme, enc, InMemoryStore(), name="zeta")
        store.add_replica(scheme, enc, InMemoryStore(), name="alpha")
        rng = np.random.default_rng(9)
        queries = [random_query(ds, rng) for _ in range(5)]
        for q in queries:
            assert store.route(q) == "alpha"
        from repro.workload import Workload
        plan = store.route_workload(Workload.unweighted(queries))
        assert plan.assigned_names() == ["alpha"] * len(queries)

    def test_no_replicas(self, ds):
        store = BlotStore(ds)
        with pytest.raises(ValueError, match="no replicas"):
            store.route(random_query(ds, np.random.default_rng(5)))

    def test_unknown_replica_name(self, ds):
        store = BlotStore(ds)
        with pytest.raises(KeyError):
            store.replica("nope")

    def test_total_storage(self, ds):
        store = BlotStore(ds)
        store.add_replica(CompositeScheme(KdTreePartitioner(4), 2),
                          encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore())
        store.add_replica(CompositeScheme(KdTreePartitioner(16), 4),
                          encoding_scheme_by_name("COL-GZIP"), InMemoryStore())
        names = store.replica_names()
        assert store.total_storage_bytes() == sum(
            store.replica(n).storage_bytes() for n in names
        )
        # The compressed replica is smaller than the plain one.
        plain = next(n for n in names if "ROW-PLAIN" in n)
        gz = next(n for n in names if "COL-GZIP" in n)
        assert store.replica(gz).storage_bytes() < store.replica(plain).storage_bytes()
