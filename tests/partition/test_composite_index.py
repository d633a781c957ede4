"""Tests for composite schemes, the paper's 25-scheme grid, and the
range -> involved-partitions lookup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3, boxes_intersect_count
from repro.partition import (
    CompositeScheme,
    KdTreePartitioner,
    Partitioning,
    check_partitioning,
    paper_partitioning_schemes,
    small_partitioning_schemes,
)
from repro.storage import InMemoryStore, build_replica


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(4000, seed=19, num_taxis=16)


class TestComposite:
    def test_name(self):
        s = CompositeScheme(KdTreePartitioner(16), 8)
        assert s.name == "KD16xT8"

    def test_partition_count(self):
        assert CompositeScheme(KdTreePartitioner(16), 8).n_partitions == 128

    def test_invalid_slices(self):
        with pytest.raises(ValueError):
            CompositeScheme(KdTreePartitioner(4), 0)

    def test_invariants(self, ds):
        p = CompositeScheme(KdTreePartitioner(8), 4).build(ds)
        check_partitioning(p, ds)

    def test_near_equal_counts(self, ds):
        p = CompositeScheme(KdTreePartitioner(8), 4).build(ds)
        assert p.skew() < 1.3

    def test_every_cell_covers_full_time_range(self, ds):
        p = CompositeScheme(KdTreePartitioner(4), 4).build(ds)
        bb = ds.bounding_box()
        arr = p.box_array.reshape(4, 4, 6)
        assert np.allclose(arr[:, 0, 4], bb.t_min)
        assert np.allclose(arr[:, -1, 5], bb.t_max)

    def test_paper_grid_is_25_schemes(self):
        schemes = paper_partitioning_schemes()
        assert len(schemes) == 25
        names = {s.name for s in schemes}
        assert "KD16xT16" in names and "KD4096xT256" in names
        counts = sorted(s.n_partitions for s in schemes)
        assert counts[0] == 16 * 16 and counts[-1] == 4096 * 256

    def test_small_grid_structure(self):
        schemes = small_partitioning_schemes()
        assert len(schemes) == 9
        assert all(isinstance(s, CompositeScheme) for s in schemes)


class TestPartitioningContainer:
    def test_labels_out_of_range_rejected(self, ds):
        p = CompositeScheme(KdTreePartitioner(4), 2).build(ds)
        with pytest.raises(ValueError, match="labels"):
            Partitioning(p.scheme_name, p.universe, p.box_array,
                         np.full(10, p.n_partitions, dtype=np.int64))

    def test_bad_box_array_rejected(self, ds):
        with pytest.raises(ValueError, match="box_array"):
            Partitioning("x", ds.bounding_box(), np.zeros((2, 5)),
                         np.zeros(1, dtype=np.int64))

    def test_records_of_matches_labels(self, ds):
        # Every record lands in exactly one partition, and the counts are
        # the per-partition tallies of the labels.
        p = CompositeScheme(KdTreePartitioner(4), 2).build(ds)
        assert p.labels.shape == (len(ds),)
        assert p.counts.sum() == len(ds)
        np.testing.assert_array_equal(
            p.counts, np.bincount(p.labels, minlength=p.n_partitions))

    def test_involved_small_query(self, ds):
        p = CompositeScheme(KdTreePartitioner(4), 4).build(ds)
        bb = ds.bounding_box()
        c = bb.centroid
        q = Box3.from_center_size(c, bb.width / 100, bb.height / 100, bb.duration / 100)
        inv = p.involved(q)
        assert 1 <= len(inv) < p.n_partitions

    def test_involved_universe_query(self, ds):
        p = CompositeScheme(KdTreePartitioner(4), 4).build(ds)
        assert len(p.involved(ds.bounding_box())) == p.n_partitions


def brute_force_involved(partitioning, query):
    """The oracle: ``Box3.intersects`` on every partition box, in id order."""
    return np.array([pid for pid, b in enumerate(partitioning.boxes())
                     if b.intersects(query)], dtype=np.intp)


class TestPartitionIndex:
    """The paper's global partition index (Section II-B) is the box
    array itself: ``StoredReplica.involved_partitions`` is one
    vectorized intersection pass over it."""

    @pytest.fixture(scope="class")
    def built(self, ds):
        return build_replica(ds, CompositeScheme(KdTreePartitioner(16), 8),
                             encoding_scheme_by_name("ROW-PLAIN"),
                             InMemoryStore())

    def test_len(self, built):
        assert len(built.partitioning.box_array) == built.n_partitions == 128

    def test_matches_linear_scan(self, built, ds):
        bb = ds.bounding_box()
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = (
                rng.uniform(bb.x_min, bb.x_max),
                rng.uniform(bb.y_min, bb.y_max),
                rng.uniform(bb.t_min, bb.t_max),
            )
            q = Box3.from_center_size(
                c, bb.width * rng.uniform(0, 0.5),
                bb.height * rng.uniform(0, 0.5),
                bb.duration * rng.uniform(0, 0.5),
            )
            assert np.array_equal(built.involved_partitions(q),
                                  brute_force_involved(built.partitioning, q))

    def test_count_involved(self, built, ds):
        assert built.involved_partitions(ds.bounding_box()).tolist() == list(
            range(built.n_partitions))

    @settings(max_examples=25, deadline=None)
    @given(
        cx=st.floats(120.0, 122.0), cy=st.floats(30.0, 32.0),
        w=st.floats(0.0, 2.0), h=st.floats(0.0, 2.0), frac=st.floats(0.0, 1.0),
        snap=st.integers(0, 127),
    )
    def test_property_index_exact(self, built, cx, cy, w, h, frac, snap):
        u = built.partitioning.universe
        q = Box3.from_center_size(
            (cx, cy, u.t_min + frac * u.duration), w, h, u.duration * frac,
        )
        # Put one face exactly on a partition's edge: closed boxes touch.
        edge = built.partitioning.box_array[snap]
        q = Box3(edge[1], max(edge[1], q.x_max), q.y_min, q.y_max,
                 q.t_min, q.t_max)
        involved = built.involved_partitions(q)
        assert np.array_equal(involved,
                              brute_force_involved(built.partitioning, q))
        assert involved.size == boxes_intersect_count(
            built.partitioning.box_array, q)
