"""Property test: the storage engine equals brute force on every query.

Hypothesis drives random positioned queries (arbitrary sizes/positions,
including degenerate and universe-crossing boxes) against replicas with
different partitionings and encodings; results must always equal a naive
filter of the raw dataset.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition import CompositeScheme, GridPartitioner, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore


@pytest.fixture(scope="module")
def setup():
    ds = synthetic_shanghai_taxis(2500, seed=113, num_taxis=10)
    store = BlotStore(ds)
    store.add_replica(CompositeScheme(KdTreePartitioner(16), 4),
                      encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
                      name="kd")
    store.add_replica(GridPartitioner(5, 5, 3),
                      encoding_scheme_by_name("ROW-SNAPPY"), InMemoryStore(),
                      name="grid")
    return ds, store


def result_key(records):
    return sorted(zip(records.column("oid").tolist(),
                      records.column("t").tolist(),
                      records.column("x").tolist()))


class TestEngineEqualsBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(
        cx=st.floats(119.5, 122.5), cy=st.floats(29.5, 32.5),
        tfrac=st.floats(-0.2, 1.2),
        w=st.floats(0.0, 3.0), h=st.floats(0.0, 3.0), dfrac=st.floats(0.0, 1.5),
        replica=st.sampled_from(["kd", "grid"]),
    )
    def test_random_queries(self, setup, cx, cy, tfrac, w, h, dfrac, replica):
        ds, store = setup
        bb = ds.bounding_box()
        ct = bb.t_min + tfrac * bb.duration
        box = Box3.from_center_size((cx, cy, ct), w, h, bb.duration * dfrac)
        got = store.query(box, replica=replica)
        expected = ds.filter_box(box)
        assert got.stats.records_returned == len(expected)
        assert result_key(got.records) == result_key(expected)
        assert got.stats.records_scanned >= len(expected)

    @settings(max_examples=15, deadline=None)
    @given(
        cx=st.floats(120.2, 121.8), cy=st.floats(30.2, 31.8),
        w=st.floats(0.01, 1.0),
    )
    def test_replicas_agree(self, setup, cx, cy, w):
        """Diverse replicas return identical results for the same query."""
        ds, store = setup
        bb = ds.bounding_box()
        box = Box3.from_center_size((cx, cy, bb.centroid.t), w, w, bb.duration)
        a = store.query(box, replica="kd")
        b = store.query(box, replica="grid")
        assert result_key(a.records) == result_key(b.records)

    def test_degenerate_point_query(self, setup):
        ds, store = setup
        r = ds.record_at(137)
        box = Box3(r.x, r.x, r.y, r.y, r.t, r.t)
        got = store.query(box, replica="kd")
        assert got.stats.records_returned >= 1
        assert any(
            oid == r.oid and t == r.t
            for oid, t, _ in result_key(got.records)
        )
