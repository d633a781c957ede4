"""Adversarial property tests for the codecs.

Hypothesis generates datasets with extreme values — NaN, ±inf, huge
magnitudes, negative zero, empty columns — and every encoding scheme must
round-trip them (the columnar codec's fixed-point and integral-delta fast
paths must detect when they do not apply and fall back losslessly).  The
grouped encoder must give every group exactly the bytes a lone encode of
it gives, whichever fast path each group takes.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset, synthetic_shanghai_taxis
from repro.data.record import FIELDS
from repro.encoding import (
    all_encoding_schemes,
    decode_columns,
    decode_rows,
    encode_columns,
    encode_rows,
    encoding_scheme_by_name,
)

_FLOAT64 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"),
                     1e-300, -1e300, 121.123456]),
)
_FLOAT32 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0.0, -0.0, float("inf"), float("nan"), 3.4e38]),
)


@st.composite
def datasets(draw, max_size=40):
    n = draw(st.integers(0, max_size))
    cols = {}
    for f in FIELDS:
        if f.name == "oid":
            cols["oid"] = np.array(
                draw(st.lists(st.integers(-2**31, 2**31 - 1),
                              min_size=n, max_size=n)), dtype=np.int32)
        elif f.name == "trip_id":
            cols["trip_id"] = np.array(
                draw(st.lists(st.integers(-2**31, 2**31 - 1),
                              min_size=n, max_size=n)), dtype=np.int32)
        elif f.name == "occupied":
            cols["occupied"] = np.array(
                draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)),
                dtype=np.uint8)
        elif f.dtype == np.float64:
            cols[f.name] = np.array(
                draw(st.lists(_FLOAT64, min_size=n, max_size=n)),
                dtype=np.float64)
        else:
            cols[f.name] = np.array(
                draw(st.lists(_FLOAT32, min_size=n, max_size=n)),
                dtype=np.float32)
    return Dataset(cols)


#: Values that take the columnar fast paths: integral float64 (the
#: integral-delta kind) and decimals at each column's scale hint (the
#: fixed-point kind).  Mixed with the adversarial values above, small
#: groups land on every kind and large ones mostly fall back to XOR.
_HINTED = {"x": 6, "y": 6, "speed": 1, "heading": 1, "odometer": 2}


def _column_values(name, dtype):
    wild = _FLOAT64 if dtype == np.float64 else _FLOAT32
    integral = st.integers(-2**53, 2**53).map(float)
    if name in _HINTED:
        scale = 10 ** _HINTED[name]
        tame = st.integers(-10**9, 10**9).map(lambda k: k / scale)
    else:
        tame = st.one_of(integral, st.sampled_from([2.0**62, 1.5e9 + 0.25]))
    return st.one_of(tame, tame, integral, wild)


@st.composite
def grouped(draw, max_size=24):
    """A dataset mixing fast-path and fallback values, plus group bounds:
    random cuts (empty groups included) or one record per group."""
    n = draw(st.integers(0, max_size))
    cols = {}
    for f in FIELDS:
        if f.name == "occupied":
            values = st.integers(0, 2)
        elif np.issubdtype(f.dtype, np.integer):
            values = st.integers(-2**31, 2**31 - 1)
        else:
            values = _column_values(f.name, f.dtype)
        cols[f.name] = np.array(
            draw(st.lists(values, min_size=n, max_size=n)), dtype=f.dtype)
    if draw(st.booleans()):
        bounds = list(range(n + 1)) if n else [0, 0]
    else:
        cuts = draw(st.lists(st.integers(0, n), max_size=6))
        bounds = [0, *sorted(cuts), n]
    return Dataset(cols), bounds


def columns_bit_equal(a: Dataset, b: Dataset) -> bool:
    """Strict bitwise equality per column: NaN == NaN, and -0.0 != +0.0.

    Every codec must round-trip the exact bit patterns — diverse replicas
    are only interchangeable if their decoded bytes are identical, so a
    fast path normalising -0.0 to +0.0 is a correctness bug (it once hid
    in the fixed-point and integral-float64 delta paths)."""
    for f in FIELDS:
        ca, cb = a.column(f.name), b.column(f.name)
        if ca.tobytes() != cb.tobytes():
            return False
    return True


class TestAdversarialRoundtrips:
    @settings(max_examples=50, deadline=None)
    @given(ds=datasets())
    def test_row_codec(self, ds):
        assert columns_bit_equal(decode_rows(encode_rows(ds)), ds)

    @settings(max_examples=50, deadline=None)
    @given(ds=datasets())
    def test_columnar_codec(self, ds):
        assert columns_bit_equal(decode_columns(encode_columns(ds)), ds)

    @settings(max_examples=12, deadline=None)
    @given(ds=datasets(max_size=15))
    def test_full_schemes(self, ds):
        for scheme in all_encoding_schemes():
            assert columns_bit_equal(scheme.decode(scheme.encode(ds)), ds), \
                scheme.name


class TestEncodeGroups:
    @settings(max_examples=30, deadline=None)
    @given(case=grouped())
    def test_groups_equal_lone_encodes(self, case):
        ds, bounds = case
        for scheme in all_encoding_schemes():
            alone = [scheme.encode(ds.take(np.arange(lo, hi)))
                     for lo, hi in zip(bounds[:-1], bounds[1:])]
            assert scheme.encode_groups(ds, bounds) == alone, scheme.name

    def test_empty_dataset(self):
        empty = Dataset.empty()
        for scheme in all_encoding_schemes():
            assert scheme.encode_groups(empty, [0, 0]) == [scheme.encode(empty)]
            assert scheme.encode_groups(empty, [0, 0, 0]) == \
                [scheme.encode(empty)] * 2

    def test_bounds_must_cover_the_dataset(self):
        ds = synthetic_shanghai_taxis(10, seed=1, num_taxis=2)
        scheme = encoding_scheme_by_name("COL-PLAIN")
        for bad in ([1, 10], [0, 9], [0, 6, 4, 10], [0]):
            with pytest.raises(ValueError, match="bounds"):
                scheme.encode_groups(ds, bad)


class TestSnappyPins:
    """The SHA-256 of both Snappy encodings of one seeded 20k-record
    sample, pinned when the match loop still hashed each window in
    Python: the numpy window hashes must choose the same matches."""

    PINS = {
        "ROW-SNAPPY":
            "940da9aa117074e7d96610484f0cd21ae32b3bbc9dc0ef66b4db73bd99e51282",
        "COL-SNAPPY":
            "c4b21f88a50c9cc1722fcbe1ec5a9f898e058d56725e65fdf29aa3c9fbef63bc",
    }

    def test_snappy_bytes_pinned(self):
        ds = synthetic_shanghai_taxis(20_000, seed=17).sorted_by_time()
        for name, digest in self.PINS.items():
            blob = encoding_scheme_by_name(name).encode(ds)
            assert hashlib.sha256(blob).hexdigest() == digest, name


class TestSpecificHazards:
    def make(self, **overrides):
        n = None
        for v in overrides.values():
            n = len(v)
        base = {}
        for f in FIELDS:
            base[f.name] = np.zeros(n, dtype=f.dtype)
        base.update({
            k: np.asarray(v, dtype=dict((f.name, f.dtype) for f in FIELDS)[k])
            for k, v in overrides.items()
        })
        return Dataset(base)

    def test_nan_coordinates(self):
        ds = self.make(x=[float("nan"), 1.0, float("nan")])
        back = decode_columns(encode_columns(ds))
        assert math.isnan(back.column("x")[0])
        assert back.column("x")[1] == 1.0

    def test_infinite_timestamps(self):
        ds = self.make(t=[float("inf"), 0.0, float("-inf")])
        back = decode_columns(encode_columns(ds))
        assert back.column("t")[0] == float("inf")
        assert back.column("t")[2] == float("-inf")

    def test_giant_integral_floats_fall_back(self):
        # Integral but beyond the int64-exact window: must not use the
        # integral-delta path blindly.
        big = 2.0 ** 62
        ds = self.make(t=[big, big + 2**10, big - 2**10])
        back = decode_columns(encode_columns(ds))
        assert np.array_equal(back.column("t"), ds.column("t"))

    def test_fixed_point_lookalike_with_outlier(self):
        # Mostly micro-degree values plus one non-representable outlier:
        # the scaled path must reject the whole column, not corrupt it.
        vals = [121.123456, 121.123457, np.pi]
        ds = self.make(x=vals)
        back = decode_columns(encode_columns(ds))
        assert np.array_equal(back.column("x"), ds.column("x"))

    def test_negative_zero_speed(self):
        ds = self.make(speed=[-0.0, 0.0, 1.5])
        back = decode_columns(encode_columns(ds))
        assert back.column("speed").tobytes() == ds.column("speed").tobytes()

    def test_negative_zero_survives_fixed_point_path(self):
        """Regression: the scaled fixed-point guard compared with ``==``,
        so a column of otherwise scale-representable values containing
        -0.0 took the int64-mantissa path and came back as +0.0."""
        for name in ("heading", "speed", "odometer", "x", "y"):
            ds = self.make(**{name: [-0.0, 0.5, 1.5]})
            back = decode_columns(encode_columns(ds))
            col = back.column(name)
            assert col.tobytes() == ds.column(name).tobytes(), name
            assert math.copysign(1.0, float(col[0])) == -1.0, name

    def test_negative_zero_survives_integral_delta_path(self):
        """Regression: integral float64 columns (whole-second timestamps)
        took the int64 delta path, and int64(-0.0) == 0 drops the sign."""
        ds = self.make(t=[-0.0, 1.0, 2.0])
        back = decode_columns(encode_columns(ds))
        assert back.column("t").tobytes() == ds.column("t").tobytes()
        assert math.copysign(1.0, float(back.column("t")[0])) == -1.0

    def test_alternating_occupancy_worst_case_rle(self):
        ds = self.make(occupied=[0, 1] * 20)
        back = decode_columns(encode_columns(ds))
        assert np.array_equal(back.column("occupied"), ds.column("occupied"))
