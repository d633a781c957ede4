"""Tests for the byte-budgeted decoded-partition LRU cache."""

import threading

import numpy as np
import pytest

from repro.data import Dataset
from repro.data.record import FIELDS
from repro.storage import PartitionCache


def dataset_of(n):
    return Dataset({
        f.name: (np.arange(n) if f.name == "t" else np.zeros(n)).astype(f.dtype)
        for f in FIELDS
    })


ROW_BYTES = dataset_of(1).binary_size_bytes()


def assert_conserved(cache):
    """Every entry that ever entered the cache is resident, evicted or
    invalidated — nothing vanishes unaccounted."""
    s = cache.stats()
    assert s.entries == s.inserts - s.evictions - s.invalidations


# Keys are ``(StoredReplica.serial, partition_id)``; serials 0, 1 and 2
# stand for three replicas.


class TestPartitionCache:
    def test_miss_then_hit(self):
        cache = PartitionCache(10_000)
        assert cache.get((0, 0)) is None
        ds = dataset_of(5)
        cache.put((0, 0), ds)
        assert cache.get((0, 0)) is ds
        s = cache.stats()
        assert (s.hits, s.misses) == (1, 1)
        assert s.hit_rate == 0.5
        assert s.current_bytes == ds.binary_size_bytes()

    def test_keys_namespaced_by_replica(self):
        cache = PartitionCache(10_000)
        cache.put((1, 7), dataset_of(3))
        assert cache.get((2, 7)) is None

    def test_lru_eviction_order(self):
        cache = PartitionCache(3 * ROW_BYTES)
        cache.put((0, 0), dataset_of(1))
        cache.put((0, 1), dataset_of(1))
        cache.put((0, 2), dataset_of(1))
        cache.get((0, 0))  # refresh 0: 1 is now least recently used
        cache.put((0, 3), dataset_of(1))
        assert cache.get((0, 1)) is None
        assert cache.get((0, 0)) is not None
        assert cache.get((0, 3)) is not None
        assert cache.stats().evictions == 1

    def test_byte_budget_respected(self):
        cache = PartitionCache(10 * ROW_BYTES)
        for pid in range(50):
            cache.put((0, pid), dataset_of(2))
        s = cache.stats()
        assert s.current_bytes <= cache.capacity_bytes
        assert s.entries == 5
        assert s.evictions == 45
        assert s.inserts == 50
        assert_conserved(cache)

    def test_oversized_entry_not_cached(self):
        cache = PartitionCache(ROW_BYTES)
        cache.put((0, 0), dataset_of(100))
        assert len(cache) == 0
        assert cache.get((0, 0)) is None
        # A rejected put is not an insert: conservation still holds.
        assert cache.stats().inserts == 0
        assert_conserved(cache)

    def test_reinsert_replaces_bytes(self):
        cache = PartitionCache(100 * ROW_BYTES)
        cache.put((0, 0), dataset_of(10))
        cache.put((0, 0), dataset_of(20))
        assert cache.stats().current_bytes == dataset_of(20).binary_size_bytes()
        assert len(cache) == 1
        # Refreshing a resident key is not a second insert.
        assert cache.stats().inserts == 1
        assert_conserved(cache)

    def test_invalidate_replica(self):
        cache = PartitionCache(100 * ROW_BYTES)
        cache.put((1, 0), dataset_of(1))
        cache.put((1, 1), dataset_of(1))
        cache.put((2, 0), dataset_of(1))
        assert cache.invalidate_replica(1) == 2
        assert cache.get((2, 0)) is not None
        assert cache.get((1, 0)) is None
        assert cache.stats().invalidations == 2
        assert_conserved(cache)

    def test_clear_keeps_counters(self):
        cache = PartitionCache(100 * ROW_BYTES)
        cache.put((0, 0), dataset_of(1))
        cache.get((0, 0))
        cache.clear()
        s = cache.stats()
        assert s.entries == 0 and s.current_bytes == 0
        assert s.hits == 1
        # clear() accounts its drops as invalidations.
        assert s.invalidations == 1
        assert_conserved(cache)

    def test_positive_capacity_required(self):
        with pytest.raises(ValueError, match="positive"):
            PartitionCache(0)

    def test_concurrent_access(self):
        cache = PartitionCache(20 * ROW_BYTES)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    key = (0, (base + i) % 30)
                    if cache.get(key) is None:
                        cache.put(key, dataset_of(1))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        s = cache.stats()
        assert s.current_bytes <= cache.capacity_bytes
        assert s.hits + s.misses == 8 * 200
        assert_conserved(cache)

    def test_conservation_through_every_drop_path(self):
        cache = PartitionCache(5 * ROW_BYTES)
        for pid in range(8):          # 3 evictions
            cache.put((1, pid), dataset_of(1))
        cache.put((2, 0), dataset_of(1))   # evicts one more
        cache.invalidate((1, 7))            # 1 invalidation
        cache.invalidate((1, 7))            # no-op: already gone
        cache.invalidate_replica(2)         # 1 invalidation
        assert_conserved(cache)
        cache.clear()                         # the rest become invalidations
        s = cache.stats()
        assert s.entries == 0
        assert s.inserts == 9
        assert s.inserts == s.evictions + s.invalidations
        assert_conserved(cache)

    def test_metrics_mirror_stats(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        cache = PartitionCache(5 * ROW_BYTES, metrics=metrics)
        for pid in range(8):
            cache.put((0, pid), dataset_of(1))
        cache.get((0, 7))
        cache.get((0, 0))   # evicted: a miss
        cache.invalidate((0, 7))
        s = cache.stats()
        assert metrics.counter_value("repro_cache_hits_total") == s.hits
        assert metrics.counter_value("repro_cache_misses_total") == s.misses
        assert metrics.counter_value("repro_cache_evictions_total") == s.evictions
        assert metrics.counter_value("repro_cache_inserts_total") == s.inserts
        assert metrics.counter_value(
            "repro_cache_invalidations_total") == s.invalidations

    def test_late_metrics_bind_reconciles(self):
        from repro.obs import MetricsRegistry

        cache = PartitionCache(100 * ROW_BYTES)
        cache.put((0, 0), dataset_of(1))
        cache.get((0, 0))
        cache.get((0, 1))
        metrics = MetricsRegistry()
        cache.bind_metrics(metrics)
        assert metrics.counter_value("repro_cache_hits_total") == 1
        assert metrics.counter_value("repro_cache_misses_total") == 1
        assert metrics.counter_value("repro_cache_inserts_total") == 1
