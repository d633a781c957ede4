"""Property-style consistency: ``count()`` must equal ``len(query().records)``
for the same box on every replica, including boxes that straddle partition
boundaries (where count() mixes metadata counts with decoded filtering)."""

import numpy as np
import pytest

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition import CompositeScheme, GridPartitioner, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore


@pytest.fixture(scope="module")
def setup():
    ds = synthetic_shanghai_taxis(5000, seed=211, num_taxis=20)
    store = BlotStore(ds)
    store.add_replica(CompositeScheme(KdTreePartitioner(16), 8),
                      encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
                      name="kd")
    store.add_replica(CompositeScheme(GridPartitioner(4, 4), 4),
                      encoding_scheme_by_name("ROW-SNAPPY"), InMemoryStore(),
                      name="grid")
    return ds, store


def random_box(ds, rng, frac):
    bb = ds.bounding_box()
    w, h, t = bb.width * frac, bb.height * frac, bb.duration * frac
    return Box3.from_center_size(
        (rng.uniform(bb.x_min + w / 2, bb.x_max - w / 2),
         rng.uniform(bb.y_min + h / 2, bb.y_max - h / 2),
         rng.uniform(bb.t_min + t / 2, bb.t_max - t / 2)),
        w, h, t)


class TestCountQueryConsistency:
    def test_random_boxes_all_replicas(self, setup):
        ds, store = setup
        rng = np.random.default_rng(0)
        for replica in store.replica_names():
            for frac in (0.02, 0.1, 0.3, 0.6, 0.9):
                for _ in range(4):
                    box = random_box(ds, rng, frac)
                    count, _ = store.count(box, replica=replica)
                    full = store.query(box, replica=replica)
                    assert count == len(full.records) == ds.count_in_box(box)

    def test_partition_boundary_boxes(self, setup):
        """Boxes snapped exactly to partition edges: closed-boundary
        semantics must agree between the metadata fast path (contained
        partitions) and decoded filtering (boundary partitions)."""
        ds, store = setup
        for replica in store.replica_names():
            stored = store.replica(replica)
            arr = stored.partitioning.box_array
            for pid in (0, len(arr) // 2, len(arr) - 1):
                part_box = Box3(*arr[pid])
                for box in (
                    part_box,  # exactly one partition
                    part_box.expanded(dx=part_box.width * 0.5),
                    part_box.expanded(dt=-part_box.duration * 0.25),
                ):
                    count, _ = store.count(box, replica=replica)
                    assert count == ds.count_in_box(box)

    def test_universe_box(self, setup):
        ds, store = setup
        for replica in store.replica_names():
            count, _ = store.count(ds.bounding_box(), replica=replica)
            assert count == len(ds)
