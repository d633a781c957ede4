"""Cross-cutting edge-case sweep.

Small behaviours that don't warrant their own module files: degenerate
inputs, empty containers, trivial accessors — the long tail a library
user will eventually hit.
"""

import numpy as np
import pytest

from repro.costmodel import EncodingCostParams
from repro.data import Dataset, synthetic_shanghai_taxis
from repro.encoding import EncodingScheme, NoCompression, paper_encoding_schemes
from repro.geometry import Box3, Point3, boxes_to_array
from repro.partition import Partitioning, TemporalSlicer
from repro.storage import QueryStats
from repro.workload import GroupedQuery, Workload


class TestGeometryEdges:
    def test_point_translated(self):
        assert Point3(1, 2, 3).translated(1, -1, 0.5) == Point3(2, 1, 3.5)

    def test_point_as_tuple(self):
        assert Point3(1, 2, 3).as_tuple() == (1, 2, 3)

    def test_boxes_to_array_empty(self):
        arr = boxes_to_array([])
        assert arr.shape == (0, 6)

    def test_zero_volume_box_intersection(self):
        point_box = Box3(1, 1, 2, 2, 3, 3)
        assert point_box.intersects(Box3(0, 2, 0, 3, 0, 4))
        assert point_box.volume == 0

    def test_union_commutative(self):
        a, b = Box3(0, 1, 0, 1, 0, 1), Box3(2, 3, -1, 0.5, 0, 2)
        assert a.union(b) == b.union(a)


class TestDatasetEdges:
    def test_sorted_by_multiple_keys(self):
        ds = synthetic_shanghai_taxis(200, seed=199, num_taxis=4)
        both = ds.sorted_by("oid", "t")
        oid, t = both.column("oid"), both.column("t")
        for i in range(1, len(both)):
            assert (oid[i], t[i]) >= (oid[i - 1], t[i - 1])

    def test_split_at_empty_list(self):
        ds = synthetic_shanghai_taxis(50, seed=199, num_taxis=4)
        parts = ds.split_at([])
        assert len(parts) == 1 and parts[0] == ds

    def test_eq_against_non_dataset(self):
        ds = Dataset.empty()
        assert (ds == 42) is False or (ds == 42) is NotImplemented or True
        assert ds != 42

    def test_head_zero(self):
        ds = synthetic_shanghai_taxis(50, seed=199, num_taxis=4)
        assert len(ds.head(0)) == 0


class TestPartitioningEdges:
    def test_skew_of_all_empty_partitions(self):
        u = Box3(0, 1, 0, 1, 0, 1)
        p = Partitioning("x", u, boxes_to_array([u]),
                         np.empty(0, dtype=np.int64))
        assert p.skew() == 1.0

    def test_from_boxes_counts_mismatch(self):
        u = Box3(0, 1, 0, 1, 0, 1)
        with pytest.raises(ValueError, match="counts"):
            Partitioning.from_boxes("x", u, boxes_to_array([u]),
                                    np.array([1, 2]))

    def test_single_temporal_slice(self):
        ds = synthetic_shanghai_taxis(100, seed=199, num_taxis=4)
        p = TemporalSlicer(1).build(ds)
        assert p.n_partitions == 1
        assert np.all(p.labels == 0)


class TestEncodingEdges:
    def test_is_columnar_flag(self):
        assert EncodingScheme("COL", NoCompression()).is_columnar
        assert not EncodingScheme("ROW", NoCompression()).is_columnar

    def test_scheme_names_unique(self):
        names = [s.name for s in paper_encoding_schemes()]
        assert len(names) == len(set(names))


class TestStatsEdges:
    def test_scanned_fraction_zero_total(self):
        stats = QueryStats("r", 0, 0, 0, 0, 0.0, total_records=0)
        assert stats.scanned_fraction == 0.0

    def test_cost_params_partition_cost_zero_records(self):
        params = EncodingCostParams(scan_rate=100.0, extra_time=1.5)
        assert params.partition_cost(0) == pytest.approx(1.5)


class TestWorkloadEdges:
    def test_empty_workload_iteration(self):
        w = Workload([])
        assert list(w) == []
        assert w.total_weight() == 0.0

    def test_grouped_of_empty(self):
        assert len(Workload([]).grouped()) == 0

    def test_workload_eq_non_workload(self):
        assert Workload([]) != "workload"

    def test_selectivity_of_degenerate_query(self):
        g = GroupedQuery(0, 0, 0)
        assert g.selectivity(Box3(0, 1, 0, 1, 0, 1)) == 0.0
