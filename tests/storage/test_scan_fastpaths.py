"""Tests for the engine's lazy scan/decode fast paths.

These pin the PR's headline behaviors through the observability
counters: fully-contained ``count()`` answers from metadata with *zero*
column decodes, zone maps prune boundary partitions entirely, and the
lazy x/y/t-first path skips payload column decodes when nothing
survives the filter — all while results stay bit-identical to brute
force.
"""

import numpy as np
import pytest

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.obs import Observability
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore
from repro.workload.query import Query


def counter_totals(obs):
    totals = {}
    for c in obs.metrics.snapshot()["counters"]:
        totals[c["name"]] = totals.get(c["name"], 0.0) + c["value"]
    return totals


def build(ds, *, cache_bytes=None, encoding="COL-GZIP"):
    obs = Observability()
    store = BlotStore(ds, cache_bytes=cache_bytes, observability=obs)
    store.add_replica(CompositeScheme(KdTreePartitioner(16), 4),
                      encoding_scheme_by_name(encoding), InMemoryStore(),
                      name="r")
    return store, obs


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(4000, seed=42, num_taxis=12).sorted_by_time()


class TestCountMetadataFastPath:
    def test_fully_containing_count_decodes_nothing(self, ds):
        store, obs = build(ds)
        total, stats = store.count(Query.from_box(ds.bounding_box()))
        totals = counter_totals(obs)
        assert total == len(ds)
        assert totals.get("repro_count_metadata_partitions_total", 0) > 0
        assert totals.get("repro_columns_decoded_total", 0) == 0
        assert stats.bytes_read == 0

    def test_boundary_count_decodes_only_xyt(self, ds):
        store, obs = build(ds)
        bb = ds.bounding_box()
        # Clip the box just inside the universe so partitions straddle it.
        box = Box3(bb.x_min + bb.width * 0.1, bb.x_max - bb.width * 0.1,
                   bb.y_min + bb.height * 0.1, bb.y_max - bb.height * 0.1,
                   bb.t_min + bb.duration * 0.1, bb.t_max - bb.duration * 0.1)
        total, _ = store.count(box)
        assert total == ds.count_in_box(box)
        totals = counter_totals(obs)
        decoded = totals.get("repro_columns_decoded_total", 0)
        skipped = totals.get("repro_columns_skipped_total", 0)
        # Boundary partitions decode x/y/t only: 6 payload columns are
        # skipped for every partition that decoded 3.
        assert decoded > 0
        assert skipped == decoded * 2


class TestZonePruning:
    def test_empty_corner_query_prunes(self, ds):
        store, obs = build(ds)
        bb = ds.bounding_box()
        # A sliver hugging the universe edge intersects partition boxes
        # whose actual records sit elsewhere — exactly what zone maps
        # prune and the router's coarse box test cannot.
        q = Box3(bb.x_min, bb.x_min + bb.width * 1e-6,
                 bb.y_min, bb.y_min + bb.height * 1e-6,
                 bb.t_min, bb.t_max)
        res = store.query(q)
        expected = ds.filter_box(q)
        assert len(res.records) == len(expected)
        totals = counter_totals(obs)
        assert totals.get("repro_partitions_pruned_total", 0) > 0

    def test_row_encoding_never_prunes(self, ds):
        store, obs = build(ds, encoding="ROW-GZIP")
        bb = ds.bounding_box()
        q = Box3(bb.x_min, bb.x_min + bb.width * 1e-6,
                 bb.y_min, bb.y_min + bb.height * 1e-6,
                 bb.t_min, bb.t_max)
        res = store.query(q)
        assert len(res.records) == len(ds.filter_box(q))
        totals = counter_totals(obs)
        assert totals.get("repro_partitions_pruned_total", 0) == 0
        assert totals.get("repro_columns_decoded_total", 0) == 0


class TestResultsIdenticalAcrossFastPaths:
    def test_random_queries_match_brute_force(self, ds):
        store, _ = build(ds)
        rng = np.random.default_rng(11)
        bb = ds.bounding_box()
        for frac in (0.01, 0.1, 0.5, 1.0):
            for _ in range(5):
                w, h, t = bb.width * frac, bb.height * frac, bb.duration * frac
                q = Box3.from_center_size(
                    (rng.uniform(bb.x_min + w / 2, bb.x_max - w / 2),
                     rng.uniform(bb.y_min + h / 2, bb.y_max - h / 2),
                     rng.uniform(bb.t_min + t / 2, bb.t_max - t / 2)),
                    w, h, t)
                got = store.query(q).records
                want = ds.filter_box(q)
                assert len(got) == len(want)
                a = sorted(zip(got.column("oid"), got.column("t")))
                b = sorted(zip(want.column("oid"), want.column("t")))
                assert a == b


class TestCacheInteraction:
    def test_repeat_query_reads_zero_bytes_even_when_pruned(self, ds):
        store, _ = build(ds, cache_bytes=256 << 20)
        bb = ds.bounding_box()
        q = Box3(bb.x_min, bb.x_min + bb.width * 1e-6,
                 bb.y_min, bb.y_min + bb.height * 1e-6,
                 bb.t_min, bb.t_max)
        first = store.query(q)
        second = store.query(q)
        assert first.stats.bytes_read > 0
        assert second.stats.bytes_read == 0
        assert len(second.records) == len(first.records)

    def test_cached_store_skips_no_columns(self, ds):
        """With a cache the engine decodes fully (the cache stores full
        partitions), so no partial decodes are recorded."""
        store, obs = build(ds, cache_bytes=256 << 20)
        bb = ds.bounding_box()
        box = Box3(bb.x_min + bb.width * 0.2, bb.x_max - bb.width * 0.2,
                   bb.y_min + bb.height * 0.2, bb.y_max - bb.height * 0.2,
                   bb.t_min, bb.t_max)
        store.query(box)
        totals = counter_totals(obs)
        assert totals.get("repro_columns_skipped_total", 0) == 0
