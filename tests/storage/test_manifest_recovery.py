"""Tests for replica manifests, integrity verification, and recovery of
diverse replicas from each other (paper Sections I / II-E)."""

import numpy as np
import pytest

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import (
    InMemoryStore,
    RecoveryError,
    build_manifest,
    build_replica,
    load_replica,
    recover_dataset,
    repair_partition,
    repair_replica,
    save_manifest,
    verify_replica,
)


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(5000, seed=91, num_taxis=16)


@pytest.fixture()
def replicas(ds):
    """Two diverse replicas of the same dataset (fresh per test: recovery
    tests mutate stores)."""
    a = build_replica(ds, CompositeScheme(KdTreePartitioner(8), 4),
                      encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
                      name="a")
    b = build_replica(ds, CompositeScheme(KdTreePartitioner(32), 2),
                      encoding_scheme_by_name("ROW-LZMA2"), InMemoryStore(),
                      name="b")
    return a, b


def damage_unit(replica, pid, mode="corrupt"):
    key = replica.unit_keys[pid]
    assert key is not None
    if mode == "corrupt":
        blob = bytearray(replica.store.get(key))
        blob[len(blob) // 2] ^= 0xFF
        replica.store.delete(key)
        replica.store.put(key, bytes(blob))
    elif mode == "truncate":
        blob = replica.store.get(key)
        replica.store.delete(key)
        replica.store.put(key, blob[:-7])
    elif mode == "lose":
        replica.store.delete(key)
    else:
        raise AssertionError(mode)


class TestManifest:
    def test_roundtrip_via_file(self, replicas, tmp_path):
        a, _ = replicas
        path = str(tmp_path / "a.manifest.json")
        save_manifest(a, path)
        reopened = load_replica(path, a.store)
        assert reopened.name == a.name
        assert reopened.n_partitions == a.n_partitions
        assert np.array_equal(reopened.partitioning.box_array,
                              a.partitioning.box_array)
        assert np.array_equal(reopened.partitioning.counts,
                              a.partitioning.counts)
        assert reopened.encoding.name == "COL-GZIP"

    def test_reopened_replica_answers_queries(self, ds, replicas, tmp_path):
        a, _ = replicas
        manifest = build_manifest(a)
        reopened = load_replica(manifest, a.store)
        bb = ds.bounding_box()
        q = Box3(bb.x_min, bb.centroid.x, bb.y_min, bb.y_max, bb.t_min, bb.t_max)
        got = sum(len(reopened.read_partition(int(p)).filter_box(q))
                  for p in reopened.involved_partitions(q))
        assert got == ds.count_in_box(q)

    def test_bad_version_rejected(self, replicas):
        a, _ = replicas
        manifest = build_manifest(a)
        manifest["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            load_replica(manifest, a.store)

    def test_unit_naming_another_encoding_refused(self, replicas):
        """A replica has one encoding: a manifest whose unit entry names a
        different one is refused, not reopened as a mixed replica."""
        a, _ = replicas
        manifest = build_manifest(a)
        pid = next(i for i, unit in enumerate(manifest["units"]) if unit)
        manifest["units"][pid]["encoding"] = "ROW-PLAIN"
        with pytest.raises(ValueError, match=f"'a' partition {pid} .*ROW-PLAIN"):
            load_replica(manifest, a.store)

    def test_unit_naming_the_manifest_encoding_accepted(self, replicas):
        a, _ = replicas
        manifest = build_manifest(a)
        for unit in manifest["units"]:
            if unit is not None:
                assert "encoding" not in unit
                unit["encoding"] = "COL-GZIP"
        assert load_replica(manifest, a.store).encoding.name == "COL-GZIP"

    def test_verify_clean(self, replicas):
        a, _ = replicas
        assert verify_replica(a, build_manifest(a)) == []

    @pytest.mark.parametrize("mode", ["corrupt", "truncate", "lose"])
    def test_verify_detects_damage(self, replicas, mode):
        a, _ = replicas
        manifest = build_manifest(a)
        damage_unit(a, 5, mode)
        assert verify_replica(a, manifest) == [5]

    def test_verify_wrong_replica(self, replicas):
        a, b = replicas
        with pytest.raises(ValueError, match="manifest"):
            verify_replica(b, build_manifest(a))


class TestRecoverDataset:
    def test_logical_view_identical(self, ds, replicas):
        a, b = replicas
        assert recover_dataset(a) == recover_dataset(b)
        assert len(recover_dataset(a)) == len(ds)

    def test_rebuild_total_loss(self, ds, replicas):
        a, _ = replicas
        rebuilt = build_replica(
            recover_dataset(a), CompositeScheme(KdTreePartitioner(16), 2),
            encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore(), name="c",
            universe=a.partitioning.universe,
        )
        assert recover_dataset(rebuilt) == recover_dataset(a)
        assert rebuilt.n_partitions == 32


class TestRepairPartition:
    @pytest.mark.parametrize("mode", ["corrupt", "truncate", "lose"])
    def test_single_unit_repair(self, ds, replicas, mode):
        a, b = replicas
        manifest = build_manifest(a)
        before = a.store.get(a.unit_keys[3])
        damage_unit(a, 3, mode)
        assert verify_replica(a, manifest) == [3]
        restored = repair_partition(a, 3, source=b)
        assert restored == int(a.partitioning.counts[3])
        assert verify_replica(a, manifest) == []
        assert a.store.get(a.unit_keys[3]) == before

    def test_repair_restores_query_correctness(self, ds, replicas):
        a, b = replicas
        damage_unit(a, 0, "lose")
        repair_partition(a, 0, source=b)
        total = sum(len(a.read_partition(p)) for p in range(a.n_partitions)
                    if a.unit_keys[p] is not None)
        assert total == len(ds)
        assert recover_dataset(a) == recover_dataset(b)

    def test_multi_unit_repair_including_adjacent(self, ds, replicas):
        a, b = replicas
        manifest = build_manifest(a)
        victims = [0, 1, 2, 9]  # 0,1,2 are temporally adjacent slices
        for pid in victims:
            damage_unit(a, pid, "corrupt")
        restored = repair_replica(a, victims, source=b)
        assert restored == int(a.partitioning.counts[victims].sum())
        assert verify_replica(a, manifest) == []

    def test_repair_every_partition_from_diverse_source(self, ds, replicas):
        """Extreme case: all units damaged, recovered one by one."""
        a, b = replicas
        manifest = build_manifest(a)
        all_pids = [p for p in range(a.n_partitions)
                    if a.unit_keys[p] is not None]
        for pid in all_pids:
            damage_unit(a, pid, "corrupt")
        restored = repair_replica(a, all_pids, source=b)
        assert restored == len(ds)
        assert verify_replica(a, manifest) == []

    def test_out_of_range_partition(self, replicas):
        a, b = replicas
        with pytest.raises(ValueError, match="out of range"):
            repair_partition(a, 10_000, source=b)

    def test_count_mismatch_detected(self, ds, replicas):
        """If the source lies (misses records), metadata catches it."""
        a, _ = replicas
        # A 'source' holding only half the data.
        half = ds.head(len(ds) // 2)
        bad_source = build_replica(
            half, CompositeScheme(KdTreePartitioner(4), 2),
            encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore(), name="bad",
        )
        damage_unit(a, 3, "lose")
        with pytest.raises(RecoveryError, match="recovered"):
            repair_partition(a, 3, source=bad_source)
