"""Property tests for canonical half-open placement.

Replica recovery (repro.storage.recovery) recomputes a partition's exact
contents from its box alone, which is only sound if every partitioner
assigns records by the canonical rule: per dimension ``lo <= v < hi``,
with upper faces closed on the universe boundary.  These tests pin that
invariant for every scheme, including adversarial datasets full of
boundary ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset, synthetic_shanghai_taxis
from repro.data.record import FIELDS
from repro.partition import (
    CompositeScheme,
    GridPartitioner,
    KdTreePartitioner,
    TemporalSlicer,
)
from repro.storage.recovery import canonical_mask

SCHEMES = [
    KdTreePartitioner(16),
    GridPartitioner(4, 3, 2),
    TemporalSlicer(8),
    CompositeScheme(KdTreePartitioner(8), 4),
]


def dataset_from_points(xs, ys, ts):
    n = len(xs)
    cols = {}
    for f in FIELDS:
        if f.name == "x":
            cols["x"] = np.array(xs, dtype=np.float64)
        elif f.name == "y":
            cols["y"] = np.array(ys, dtype=np.float64)
        elif f.name == "t":
            cols["t"] = np.array(ts, dtype=np.float64)
        elif f.name == "oid":
            cols["oid"] = np.arange(n, dtype=np.int32)
        else:
            cols[f.name] = np.zeros(n, dtype=f.dtype)
    return Dataset(cols)


@pytest.fixture(scope="module")
def taxi():
    return synthetic_shanghai_taxis(3000, seed=107, num_taxis=12)


class TestCanonicalAssignment:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_labels_match_canonical_rule(self, taxi, scheme):
        """The builder's labels equal the canonical recomputation."""
        p = scheme.build(taxi)
        for pid in range(p.n_partitions):
            mask = canonical_mask(p, taxi, pid)
            assert np.array_equal(mask, p.labels == pid), (scheme.name, pid)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_every_record_owned_exactly_once(self, taxi, scheme):
        p = scheme.build(taxi)
        owners = np.zeros(len(taxi), dtype=np.int64)
        for pid in range(p.n_partitions):
            owners += canonical_mask(p, taxi, pid)
        assert np.all(owners == 1), scheme.name

    @settings(max_examples=20, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from([120.0, 120.5, 121.0, 121.5, 122.0]),
                st.sampled_from([30.0, 30.5, 31.0, 31.5, 32.0]),
                st.sampled_from([0.0, 250.0, 500.0, 750.0, 1000.0]),
            ),
            min_size=16, max_size=80,
        ),
        leaves=st.sampled_from([2, 4, 8]),
        slices=st.sampled_from([1, 2, 4]),
    )
    def test_property_tie_heavy_data(self, data, leaves, slices):
        """Adversarial datasets where almost every coordinate ties:
        canonical placement must still assign exactly once and match the
        builder's labels."""
        xs, ys, ts = zip(*data)
        ds = dataset_from_points(xs, ys, ts)
        scheme = CompositeScheme(KdTreePartitioner(leaves), slices)
        p = scheme.build(ds)
        owners = np.zeros(len(ds), dtype=np.int64)
        for pid in range(p.n_partitions):
            mask = canonical_mask(p, ds, pid)
            assert np.array_equal(mask, p.labels == pid)
            owners += mask
        assert np.all(owners == 1)

    def test_records_on_universe_upper_faces_owned(self):
        """Records exactly at the universe maxima must not fall off the
        grid (the closed-upper-face special case)."""
        ds = dataset_from_points(
            [120.0, 122.0, 122.0], [30.0, 32.0, 31.0], [0.0, 1000.0, 1000.0],
        )
        for scheme in (GridPartitioner(3, 3, 3), KdTreePartitioner(4),
                       TemporalSlicer(4)):
            p = scheme.build(ds)
            owners = np.zeros(len(ds), dtype=np.int64)
            for pid in range(p.n_partitions):
                mask = canonical_mask(p, ds, pid)
                assert np.array_equal(mask, p.labels == pid), scheme.name
                owners += mask
            assert np.all(owners == 1), scheme.name
