"""Tests for the equal-count k-d tree partitioner."""

import numpy as np
import pytest

from repro.data import Dataset, synthetic_shanghai_taxis
from repro.partition import KdTreePartitioner, check_partitioning


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(4000, seed=13, num_taxis=16)


class TestKdTree:
    def test_invalid_leaf_count(self):
        with pytest.raises(ValueError):
            KdTreePartitioner(0)

    def test_name(self):
        assert KdTreePartitioner(16).name == "KD16"

    def test_single_leaf_is_universe(self, ds):
        p = KdTreePartitioner(1).build(ds)
        assert p.n_partitions == 1
        assert np.all(p.labels == 0)
        assert p.boxes()[0] == ds.bounding_box()

    @pytest.mark.parametrize("leaves", [2, 4, 16, 64])
    def test_leaf_count(self, ds, leaves):
        p = KdTreePartitioner(leaves).build(ds)
        assert p.n_partitions == leaves

    @pytest.mark.parametrize("leaves", [4, 16, 64])
    def test_equal_counts(self, ds, leaves):
        p = KdTreePartitioner(leaves).build(ds)
        assert p.counts.max() - p.counts.min() <= 1
        assert p.counts.sum() == len(ds)

    def test_non_power_of_two_leaves(self, ds):
        p = KdTreePartitioner(5).build(ds)
        assert p.n_partitions == 5
        # Counts within a factor given uneven subtree split: still balanced.
        assert p.counts.max() <= np.ceil(len(ds) / 5) + 1

    @pytest.mark.parametrize("leaves", [1, 4, 16, 37])
    def test_invariants(self, ds, leaves):
        p = KdTreePartitioner(leaves).build(ds)
        check_partitioning(p, ds)

    def test_low_skew(self, ds):
        p = KdTreePartitioner(64).build(ds)
        assert p.skew() < 1.05

    def test_explicit_universe_respected(self, ds):
        bb = ds.bounding_box()
        bigger = bb.expanded(0.5, 0.5, 1000.0)
        p = KdTreePartitioner(16).build(ds, universe=bigger)
        assert p.universe == bigger
        check_partitioning(p, ds)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            KdTreePartitioner(4).build(Dataset.empty())

    def test_deterministic(self, ds):
        a = KdTreePartitioner(16).build(ds)
        b = KdTreePartitioner(16).build(ds)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.box_array, b.box_array)

    def test_duplicate_coordinates_handled(self):
        # All records at the same point: splits become degenerate but valid.
        base = synthetic_shanghai_taxis(64, seed=1, num_taxis=4)
        cols = base.columns
        cols["x"] = np.full(64, 121.0)
        cols["y"] = np.full(64, 31.0)
        ds = Dataset(cols)
        p = KdTreePartitioner(8).build(ds)
        assert p.counts.sum() == 64
        check_partitioning(p, ds)

    def test_sample_built_boxes_generalize(self, ds):
        """Boxes built on a sample classify the full data reasonably evenly
        (the paper builds replicas for 100 GB from a small sample)."""
        rng = np.random.default_rng(3)
        sample = ds.sample(800, rng)
        p = KdTreePartitioner(16).build(sample, universe=ds.bounding_box())
        # Assign the full dataset to the sample-derived boxes.
        counts = []
        for row in p.box_array:
            from repro.geometry import Box3
            counts.append(ds.count_in_box(Box3(*row)))
        # Shared boundaries may double-count boundary records.
        assert sum(counts) >= len(ds)
        assert max(counts) < len(ds) / 16 * 2.5
