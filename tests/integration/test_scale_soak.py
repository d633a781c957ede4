"""Bounded soak test: a larger-than-usual end-to-end run.

60k records, two diverse replicas, mixed query sizes, fast counts,
a repair — all in one flow, with loose wall-clock sanity
bounds so regressions in the hot paths surface here before they surface
in the benchmark suite.
"""

import time

import numpy as np
import pytest

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore, repair_partition
from repro.workload import Query


@pytest.fixture(scope="module")
def big_store():
    t0 = time.perf_counter()
    ds = synthetic_shanghai_taxis(60_000, seed=223, num_taxis=96)
    store = BlotStore(ds)
    store.add_replica(CompositeScheme(KdTreePartitioner(64), 8),
                      encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
                      name="fine")
    store.add_replica(CompositeScheme(KdTreePartitioner(8), 4),
                      encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore(),
                      name="coarse")
    build_seconds = time.perf_counter() - t0
    return ds, store, build_seconds


def random_queries(ds, n, rng):
    bb = ds.bounding_box()
    out = []
    for _ in range(n):
        frac = float(np.exp(rng.uniform(np.log(0.02), np.log(0.7))))
        w, h, t = bb.width * frac, bb.height * frac, bb.duration * frac
        out.append(Query(
            w, h, t,
            rng.uniform(bb.x_min + w / 2, bb.x_max - w / 2),
            rng.uniform(bb.y_min + h / 2, bb.y_max - h / 2),
            rng.uniform(bb.t_min + t / 2, bb.t_max - t / 2)))
    return out


class TestScaleSoak:
    def test_build_time_sane(self, big_store):
        _, _, build_seconds = big_store
        assert build_seconds < 60

    def test_query_correctness_at_scale(self, big_store):
        ds, store, _ = big_store
        rng = np.random.default_rng(0)
        for q in random_queries(ds, 12, rng):
            expected = ds.count_in_box(q.box())
            assert store.query(q, replica="fine").stats.records_returned \
                == expected
            assert store.query(q, replica="coarse").stats.records_returned \
                == expected

    def test_fast_count_at_scale(self, big_store):
        ds, store, _ = big_store
        rng = np.random.default_rng(1)
        for q in random_queries(ds, 12, rng):
            count, _ = store.count(q, replica="fine")
            assert count == ds.count_in_box(q.box())

    def test_repair_at_scale(self, big_store):
        ds, store, _ = big_store
        fine = store.replica("fine")
        coarse = store.replica("coarse")
        victim = next(p for p in range(fine.n_partitions)
                      if fine.unit_keys[p] is not None)
        original = fine.store.get(fine.unit_keys[victim])
        fine.store.delete(fine.unit_keys[victim])
        restored = repair_partition(fine, victim, coarse)
        assert restored == int(fine.partitioning.counts[victim])
        assert fine.store.get(fine.unit_keys[victim]) == original

    def test_query_latency_sane(self, big_store):
        ds, store, _ = big_store
        bb = ds.bounding_box()
        q = Query(bb.width * 0.1, bb.height * 0.1, bb.duration * 0.1,
                  bb.centroid.x, bb.centroid.y, bb.centroid.t)
        t0 = time.perf_counter()
        for _ in range(3):
            store.query(q, replica="fine")
        assert (time.perf_counter() - t0) / 3 < 5.0