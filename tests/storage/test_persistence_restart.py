"""Restart-style persistence: replicas reopened purely from disk.

Simulates a process restart: replicas and manifests are written under a
directory, every in-memory object is discarded, and a fresh process
reopens the store from the manifests alone — then queries, verifies and
repairs against it.
"""

import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import (
    BlotStore,
    DirectoryStore,
    build_replica,
    load_replica,
    repair_partition,
    save_manifest,
    verify_replica,
)
from repro.verify import diff_results, oracle_answer


@pytest.fixture(scope="module")
def disk_layout(tmp_path_factory):
    """Build two replicas + manifests under a directory, return paths."""
    root = tmp_path_factory.mktemp("blot")
    ds = synthetic_shanghai_taxis(4000, seed=149, num_taxis=12)
    layouts = {
        "fine": (CompositeScheme(KdTreePartitioner(16), 4), "COL-GZIP"),
        "coarse": (CompositeScheme(KdTreePartitioner(4), 2), "ROW-LZMA2"),
    }
    paths = {}
    for name, (scheme, enc) in layouts.items():
        store_dir = str(root / name)
        replica = build_replica(ds, scheme, encoding_scheme_by_name(enc),
                                DirectoryStore(store_dir), name=name)
        manifest_path = str(root / f"{name}.manifest.json")
        save_manifest(replica, manifest_path)
        paths[name] = (store_dir, manifest_path)
    return ds, paths


def reopen(paths, name):
    store_dir, manifest_path = paths[name]
    return load_replica(manifest_path, DirectoryStore(store_dir))


class TestRestart:
    def test_reopen_and_query(self, disk_layout):
        ds, paths = disk_layout
        replica = reopen(paths, "fine")
        bb = ds.bounding_box()
        q = Box3(bb.x_min, bb.centroid.x, bb.y_min, bb.centroid.y,
                 bb.t_min, bb.t_max)
        got = sum(
            len(replica.read_partition(int(p)).filter_box(q))
            for p in replica.involved_partitions(q)
        )
        assert got == ds.count_in_box(q)

    def test_reopened_replicas_serve_an_engine(self, disk_layout):
        ds, paths = disk_layout
        model = CostModel({
            "COL-GZIP": EncodingCostParams(scan_rate=5_000, extra_time=0.01),
            "ROW-LZMA2": EncodingCostParams(scan_rate=5_000, extra_time=0.01),
        })
        store = BlotStore(ds, cost_model=model)
        store.register_replica(reopen(paths, "fine"))
        store.register_replica(reopen(paths, "coarse"))
        bb = ds.bounding_box()
        box = Box3.from_center_size(
            bb.centroid.as_tuple(), bb.width * 0.2, bb.height * 0.2,
            bb.duration * 0.2)
        res = store.query(box)
        want = oracle_answer(ds, box)
        assert len(want) > 0
        diff = diff_results(want, res.records)
        assert diff is None, diff.describe()
        assert res.stats.records_returned == len(res.records)

    def test_verify_after_restart(self, disk_layout):
        import json
        ds, paths = disk_layout
        replica = reopen(paths, "coarse")
        with open(paths["coarse"][1]) as f:
            manifest = json.load(f)
        assert verify_replica(replica, manifest) == []

    def test_cross_restart_repair(self, disk_layout):
        """Damage a unit on disk, reopen both replicas cold, repair."""
        import json
        ds, paths = disk_layout
        fine = reopen(paths, "fine")
        coarse = reopen(paths, "coarse")
        victim = next(p for p in range(fine.n_partitions)
                      if fine.unit_keys[p] is not None)
        key = fine.unit_keys[victim]
        blob = bytearray(fine.store.get(key))
        blob[0] ^= 0x5A
        fine.store.delete(key)
        fine.store.put(key, bytes(blob))
        with open(paths["fine"][1]) as f:
            manifest = json.load(f)
        assert verify_replica(fine, manifest) == [victim]
        restored = repair_partition(fine, victim, coarse)
        assert restored == int(fine.partitioning.counts[victim])
        assert verify_replica(fine, manifest) == []
