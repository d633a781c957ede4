"""Property tests for the geometric invariants diverse replicas rely on:
every partitioning must tile the universe (Definition 1/2), place every
record in exactly one canonical cell, and keep the Eq. 12 intersection
probabilities inside [0, 1] for any query extent."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset
from repro.data.record import FIELDS
from repro.geometry import Box3
from repro.geometry.box import intersection_probabilities
from repro.partition import (
    CompositeScheme,
    GridPartitioner,
    KdTreePartitioner,
    check_partitioning,
)
from repro.storage.recovery import canonical_mask

_COORD = st.floats(-180.0, 180.0, allow_nan=False, width=64)


@st.composite
def coordinate_datasets(draw, min_size=2, max_size=50):
    """Datasets with adversarial x/y/t: arbitrary floats, plus forced
    duplicates so partition cuts land exactly on record coordinates."""
    n = draw(st.integers(min_size, max_size))
    xs = draw(st.lists(_COORD, min_size=n, max_size=n))
    ys = draw(st.lists(_COORD, min_size=n, max_size=n))
    ts = draw(st.lists(st.floats(0.0, 1e6, allow_nan=False, width=64),
                       min_size=n, max_size=n))
    if n >= 4 and draw(st.booleans()):
        xs[1] = xs[0]  # duplicate coordinate: a KD cut lands exactly here
        ts[3] = ts[2]
    cols = {f.name: np.zeros(n, dtype=f.dtype) for f in FIELDS}
    cols["x"] = np.array(xs, dtype=np.float64)
    cols["y"] = np.array(ys, dtype=np.float64)
    cols["t"] = np.array(ts, dtype=np.float64)
    cols["oid"] = np.arange(n, dtype=np.int32)
    return Dataset(cols)


def schemes():
    return [
        KdTreePartitioner(4),
        GridPartitioner(2, 2),
        CompositeScheme(KdTreePartitioner(2), 2),
    ]


class TestTilingInvariants:
    @settings(max_examples=40, deadline=None)
    @given(ds=coordinate_datasets())
    def test_definition_invariants_hold(self, ds):
        """check_partitioning enforces cover + containment + volume sum."""
        universe = ds.bounding_box()
        for scheme in schemes():
            p = scheme.build(ds, universe)
            check_partitioning(p, ds)

    @settings(max_examples=40, deadline=None)
    @given(ds=coordinate_datasets())
    def test_every_record_counted_exactly_once(self, ds):
        for scheme in schemes():
            p = scheme.build(ds, ds.bounding_box())
            assert int(np.sum(p.counts)) == len(ds), scheme

    @settings(max_examples=25, deadline=None)
    @given(ds=coordinate_datasets(max_size=30))
    def test_canonical_ownership_is_a_partition_of_records(self, ds):
        """The half-open canonical box tests must assign every record to
        exactly one partition — the property that makes boundary records
        impossible to double-count or drop during recovery."""
        for scheme in schemes():
            p = scheme.build(ds, ds.bounding_box())
            owners = np.zeros(len(ds), dtype=np.int64)
            for pid in range(p.n_partitions):
                owners += canonical_mask(p, ds, pid).astype(np.int64)
            assert np.all(owners == 1), scheme


class TestEq12Probabilities:
    @settings(max_examples=60, deadline=None)
    @given(
        ds=coordinate_datasets(min_size=4, max_size=40),
        w=st.floats(0.0, 500.0),
        h=st.floats(0.0, 500.0),
        t=st.floats(0.0, 2e6),
    )
    def test_probabilities_are_probabilities(self, ds, w, h, t):
        """Eq. 12 must stay in [0, 1] for every partition and any extent,
        including zero-size and universe-dwarfing queries."""
        universe = ds.bounding_box()
        p = KdTreePartitioner(4).build(ds, universe)
        probs = intersection_probabilities(p.box_array, universe, (w, h, t))
        assert probs.shape == (p.n_partitions,)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    @settings(max_examples=30, deadline=None)
    @given(ds=coordinate_datasets(min_size=4, max_size=40))
    def test_universe_query_intersects_everything(self, ds):
        universe = ds.bounding_box()
        p = KdTreePartitioner(4).build(ds, universe)
        probs = intersection_probabilities(
            p.box_array, universe,
            (universe.width, universe.height, universe.duration))
        assert np.allclose(probs, 1.0)


class TestBox3Invariants:
    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.tuples(_COORD, _COORD, _COORD),
        span=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0),
                       st.floats(0.0, 100.0)),
    )
    def test_contains_own_corners(self, lo, span):
        box = Box3(lo[0], lo[0] + span[0], lo[1], lo[1] + span[1],
                   lo[2], lo[2] + span[2])
        assert box.contains_point((box.x_min, box.y_min, box.t_min))
        assert box.contains_point((box.x_max, box.y_max, box.t_max))
        assert box.contains_box(box) and box.intersects(box)
        assert box.volume >= 0.0
