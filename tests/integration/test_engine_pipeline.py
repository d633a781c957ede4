"""Integration: the real storage engine end-to-end.

Generate a fleet, build three genuinely diverse replicas (different
partitionings *and* encodings), route queries with a locally calibrated
cost model, and verify results are identical across replicas while the
router picks the cheapest estimate.
"""

import numpy as np
import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.costmodel.calibrate import measure_cost_params
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore, build_replica
from repro.workload import Query, positioned_random_workload

#: Fixed Eq. 6 rows in which a unit's setup costs as much as decoding
#: 100-200 of its records, so a query pays for every unit it touches.
PREMISE_MODEL = CostModel({
    "ROW-PLAIN": EncodingCostParams(scan_rate=2.0e6, extra_time=1e-4),
    "COL-GZIP": EncodingCostParams(scan_rate=1.5e6, extra_time=1e-4),
    "COL-LZMA2": EncodingCostParams(scan_rate=1.0e6, extra_time=1e-4),
})


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(8000, seed=71, num_taxis=24)


@pytest.fixture(scope="module")
def replicas(ds):
    layouts = (("coarse-plain", KdTreePartitioner(4), 2, "ROW-PLAIN"),
               ("mid-gzip", KdTreePartitioner(16), 4, "COL-GZIP"),
               ("fine-lzma", KdTreePartitioner(64), 8, "COL-LZMA2"))
    return [build_replica(ds, CompositeScheme(spatial, slices),
                          encoding_scheme_by_name(encoding), InMemoryStore(),
                          name=name)
            for name, spatial, slices, encoding in layouts]


@pytest.fixture(scope="module")
def cost_model(replicas):
    """Eq. 6 rows timed on the three replicas' written units."""
    return CostModel({
        name: EncodingCostParams(scan_rate=scan_rate, extra_time=extra_time)
        for name, scan_rate, extra_time in measure_cost_params(replicas)})


@pytest.fixture(scope="module")
def store(ds, cost_model, replicas):
    store = BlotStore(ds, cost_model=cost_model)
    for replica in replicas:
        store.register_replica(replica)
    return store


@pytest.fixture(scope="module")
def queries(ds):
    w = positioned_random_workload(ds.bounding_box(), 12,
                                   np.random.default_rng(5),
                                   min_fraction=0.01, max_fraction=0.6)
    return [q for q in w.queries()]


class TestDiverseReplicaEngine:
    def test_replicas_share_logical_view(self, store, queries):
        """Definition 4: diverse replicas answer every query identically."""
        for q in queries[:6]:
            results = []
            for name in store.replica_names():
                res = store.query(q, replica=name)
                key = sorted(zip(res.records.column("oid"),
                                 res.records.column("t")))
                results.append(key)
            assert results[0] == results[1] == results[2]

    def test_replicas_differ_physically(self, store):
        sizes = {n: store.replica(n).storage_bytes() for n in store.replica_names()}
        assert len(set(sizes.values())) == 3
        parts = {n: store.replica(n).n_partitions for n in store.replica_names()}
        assert parts["coarse-plain"] == 8
        assert parts["fine-lzma"] == 512

    def test_router_matches_manual_argmin(self, store, cost_model, ds, queries):
        n = len(ds)
        for q in queries:
            expected = min(
                store.replica_names(),
                key=lambda name: cost_model.query_cost(
                    q, store.replica(name).profile(n_records=n)),
            )
            assert store.route(q) == expected

    def test_routed_estimate_never_above_fixed(self, store, cost_model, ds, queries):
        n = len(ds)
        for q in queries:
            routed = store.route(q)
            routed_cost = cost_model.query_cost(
                q, store.replica(routed).profile(n_records=n))
            for name in store.replica_names():
                other = cost_model.query_cost(
                    q, store.replica(name).profile(n_records=n))
                assert routed_cost <= other + 1e-12

    def test_small_and_large_queries_route_differently(self, store, ds):
        """With wildly different range sizes, one replica is not best for
        both (the premise of the whole paper): a tiny box goes to the
        finest partitioning, a near-full scan to the coarsest.

        Routed under :data:`PREMISE_MODEL` over the same replicas: the
        locally calibrated rows depend on the host, and where ROW-PLAIN
        decodes fast enough the coarse replica is cheapest at every size.
        """
        fixed = BlotStore(ds, cost_model=PREMISE_MODEL)
        for name in store.replica_names():
            fixed.register_replica(store.replica(name))
        bb = ds.bounding_box()
        c = bb.centroid
        tiny = Query(bb.width * 0.01, bb.height * 0.01, bb.duration * 0.01,
                     c.x, c.y, c.t)
        huge = Query(bb.width * 0.95, bb.height * 0.95, bb.duration * 0.95,
                     c.x, c.y, c.t)
        assert fixed.route(tiny) == "fine-lzma"
        assert fixed.route(huge) == "coarse-plain"

    def test_per_query_scan_accounting_consistent(self, store, queries):
        for q in queries[:4]:
            res = store.query(q)
            brute = store.dataset.filter_box(q.box())
            assert res.stats.records_returned == len(brute)
            assert res.stats.records_scanned >= len(brute)
