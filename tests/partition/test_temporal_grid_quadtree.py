"""Tests for temporal slicing and uniform grids."""

import numpy as np
import pytest

from repro.data import Dataset, synthetic_shanghai_taxis
from repro.geometry import Box3
from repro.partition import (
    GridPartitioner,
    TemporalSlicer,
    check_partitioning,
    equi_depth_boundaries,
    slice_labels,
)


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(3000, seed=17, num_taxis=12)


class TestEquiDepthBoundaries:
    def test_basic(self):
        times = np.arange(100, dtype=np.float64)
        b = equi_depth_boundaries(times, 4, 0.0, 99.0)
        assert b[0] == 0.0 and b[-1] == 99.0
        assert len(b) == 5
        assert np.all(np.diff(b) >= 0)

    def test_empty_times_uniform(self):
        b = equi_depth_boundaries(np.empty(0), 4, 0.0, 8.0)
        assert np.allclose(b, [0, 2, 4, 6, 8])

    def test_single_slice(self):
        b = equi_depth_boundaries(np.array([5.0]), 1, 0.0, 10.0)
        assert np.allclose(b, [0, 10])

    def test_invalid_slices(self):
        with pytest.raises(ValueError):
            equi_depth_boundaries(np.array([1.0]), 0, 0, 1)

    def test_labels_in_range(self):
        times = np.random.default_rng(0).uniform(0, 100, 500)
        b = equi_depth_boundaries(times, 8, 0, 100)
        lab = slice_labels(times, b)
        assert lab.min() >= 0 and lab.max() <= 7

    def test_near_equal_depth(self):
        times = np.sort(np.random.default_rng(1).uniform(0, 100, 1000))
        b = equi_depth_boundaries(times, 10, 0, 100)
        lab = slice_labels(times, b)
        counts = np.bincount(lab, minlength=10)
        assert counts.max() <= 1000 / 10 * 1.3


class TestTemporalSlicer:
    def test_invariants(self, ds):
        p = TemporalSlicer(8).build(ds)
        check_partitioning(p, ds)

    def test_counts_near_equal(self, ds):
        p = TemporalSlicer(8).build(ds)
        assert p.skew() < 1.2

    def test_slices_cover_time(self, ds):
        p = TemporalSlicer(5).build(ds)
        bb = ds.bounding_box()
        assert p.box_array[0, 4] == bb.t_min
        assert p.box_array[-1, 5] == bb.t_max

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TemporalSlicer(4).build(Dataset.empty())

    def test_invalid_slice_count(self):
        with pytest.raises(ValueError):
            TemporalSlicer(0)


class TestGrid:
    def test_invariants(self, ds):
        p = GridPartitioner(4, 3, 2).build(ds)
        check_partitioning(p, ds)

    def test_partition_count(self, ds):
        assert GridPartitioner(4, 3, 2).build(ds).n_partitions == 24

    def test_name(self):
        assert GridPartitioner(2, 2, 5).name == "G2x2x5"

    def test_cells_equal_extent(self, ds):
        p = GridPartitioner(4, 4, 1).build(ds)
        widths = p.box_array[:, 1] - p.box_array[:, 0]
        assert np.allclose(widths, widths[0])

    def test_grid_is_skewed_on_taxi_data(self, ds):
        # Hotspot concentration makes equal-extent cells uneven.
        p = GridPartitioner(8, 8, 1).build(ds)
        assert p.skew() > 2.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            GridPartitioner(0, 1, 1)

    def test_involved_on_grid(self, ds):
        p = GridPartitioner(4, 4, 1).build(ds)
        bb = ds.bounding_box()
        q = Box3(bb.x_min, bb.x_min + 1e-9, bb.y_min, bb.y_min + 1e-9, bb.t_min, bb.t_max)
        assert len(p.involved(q)) == 1
