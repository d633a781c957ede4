"""Unit tests for the columnar Dataset container."""

import numpy as np
import pytest

from repro.data import Dataset, Record
from repro.data.record import FIELD_NAMES, empty_columns, validate_columns
from repro.geometry import Box3


def make_records(n=10, seed=0):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n):
        recs.append(Record(
            oid=i % 3,
            t=float(1000 + i * 10),
            x=float(rng.uniform(0, 10)),
            y=float(rng.uniform(0, 10)),
            speed=float(rng.uniform(0, 60)),
            heading=float(rng.uniform(0, 360)),
            occupied=int(i % 2),
            trip_id=i // 2,
            odometer=float(i),
        ))
    return recs


@pytest.fixture
def ds():
    return Dataset.from_records(make_records(20))


class TestConstruction:
    def test_empty(self):
        assert len(Dataset.empty()) == 0

    def test_from_records_roundtrip(self):
        recs = make_records(5)
        ds = Dataset.from_records(recs)
        got = list(ds.records())
        assert len(got) == 5
        for a, b in zip(recs, got):
            assert a.oid == b.oid
            assert a.t == pytest.approx(b.t)
            assert a.x == pytest.approx(b.x)
            assert a.occupied == b.occupied

    def test_missing_column_rejected(self):
        cols = empty_columns()
        del cols["speed"]
        with pytest.raises(ValueError, match="missing"):
            Dataset(cols)

    def test_extra_column_rejected(self):
        cols = empty_columns()
        cols["bogus"] = np.zeros(0)
        with pytest.raises(ValueError, match="unexpected"):
            Dataset(cols)

    def test_wrong_dtype_rejected(self):
        cols = empty_columns()
        cols["oid"] = cols["oid"].astype(np.int64)
        with pytest.raises(ValueError, match="dtype"):
            Dataset(cols)

    def test_ragged_columns_rejected(self):
        cols = empty_columns()
        cols["oid"] = np.zeros(3, dtype=np.int32)
        with pytest.raises(ValueError, match="length"):
            Dataset(cols)

    def test_validate_columns_returns_length(self):
        cols = {name: np.zeros(4, dtype=col.dtype) for name, col in empty_columns().items()}
        assert validate_columns(cols) == 4

    def test_concat(self, ds):
        both = Dataset.concat([ds, ds])
        assert len(both) == 2 * len(ds)

    def test_concat_empty_list(self):
        assert len(Dataset.concat([])) == 0


class TestAccessors:
    def test_record_at(self, ds):
        r = ds.record_at(3)
        assert isinstance(r, Record)
        assert r.t == ds.column("t")[3]

    def test_eq_same(self, ds):
        assert ds == Dataset(ds.columns)

    def test_eq_different_length(self, ds):
        assert ds != ds.head(5)

    def test_eq_is_reflexive_with_nan(self, ds):
        cols = ds.columns
        cols["x"] = cols["x"].copy()
        cols["x"][2] = np.nan
        with_nan = Dataset(cols)
        assert with_nan == with_nan
        assert with_nan == Dataset(with_nan.columns)

    def test_eq_tells_signed_zeros_apart(self, ds):
        def with_heading(value):
            cols = ds.columns
            cols["heading"] = cols["heading"].copy()
            cols["heading"][0] = value
            return Dataset(cols)

        assert with_heading(0.0) != with_heading(-0.0)
        assert with_heading(-0.0) == with_heading(-0.0)

    def test_eq_compares_stored_order(self, ds):
        assert ds != ds.take(np.arange(len(ds))[::-1])

    def test_not_hashable(self, ds):
        with pytest.raises(TypeError):
            hash(ds)

    def test_repr(self, ds):
        assert "Dataset" in repr(ds)


class TestGeometry:
    def test_bounding_box_contains_all(self, ds):
        bb = ds.bounding_box()
        for r in ds.records():
            assert bb.contains_point((r.x, r.y, r.t))

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            Dataset.empty().bounding_box()

    def test_filter_box_subset(self, ds):
        bb = ds.bounding_box()
        half = Box3(bb.x_min, bb.centroid.x, bb.y_min, bb.y_max, bb.t_min, bb.t_max)
        sub = ds.filter_box(half)
        assert 0 < len(sub) <= len(ds)
        assert np.all(sub.column("x") <= bb.centroid.x)

    def test_filter_box_plus_complement_covers(self, ds):
        bb = ds.bounding_box()
        mid = bb.centroid.x
        left = ds.count_in_box(Box3(bb.x_min, mid, bb.y_min, bb.y_max, bb.t_min, bb.t_max))
        right = ds.count_in_box(
            Box3(np.nextafter(mid, bb.x_max), bb.x_max, bb.y_min, bb.y_max, bb.t_min, bb.t_max)
        )
        assert left + right == len(ds)

    def test_count_in_box_matches_filter(self, ds):
        bb = ds.bounding_box()
        assert ds.count_in_box(bb) == len(ds.filter_box(bb)) == len(ds)


class TestReshaping:
    def test_head(self, ds):
        assert len(ds.head(3)) == 3

    def test_head_longer_than_data(self, ds):
        assert len(ds.head(10_000)) == len(ds)

    def test_sample_smaller(self, ds):
        rng = np.random.default_rng(1)
        s = ds.sample(5, rng)
        assert len(s) == 5

    def test_sample_all(self, ds):
        rng = np.random.default_rng(1)
        assert ds.sample(len(ds) + 5, rng) is ds

    def test_sorted_by_time(self, ds):
        shuffled = ds.take(np.random.default_rng(2).permutation(len(ds)))
        t = shuffled.sorted_by_time().column("t")
        assert np.all(np.diff(t) >= 0)

    def test_sorted_by_requires_key(self, ds):
        with pytest.raises(ValueError):
            ds.sorted_by()

    def test_split_at(self, ds):
        parts = ds.split_at([5, 12])
        assert [len(p) for p in parts] == [5, 7, len(ds) - 12]
        assert Dataset.concat(parts) == ds

    def test_take_mask(self, ds):
        mask = ds.column("occupied") == 1
        sub = ds.take(mask)
        assert np.all(sub.column("occupied") == 1)


class TestSizes:
    def test_binary_size(self, ds):
        expected = sum(ds.column(n).nbytes for n in FIELD_NAMES)
        assert ds.binary_size_bytes() == expected

    def test_csv_size_positive(self, ds):
        assert ds.csv_size_bytes() > len(ds) * 20  # at least ~20 bytes/record

    def test_csv_size_empty(self):
        assert Dataset.empty().csv_size_bytes() == 0
