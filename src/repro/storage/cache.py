"""A byte-budgeted LRU cache of decoded partitions.

Range queries over a workload overlap heavily — consecutive queries often
touch the same hot partitions — yet the three-step query mechanism
(Section II-D) re-reads and re-decodes every involved partition from its
storage unit each time.  :class:`PartitionCache` keeps recently decoded
partitions in memory, keyed by ``(replica serial, partition_id)`` and
bounded by the *decoded* size of the cached records, so an overlapping
workload decodes each hot partition once.

The cache is shared by :meth:`repro.storage.BlotStore.query`,
:meth:`~repro.storage.BlotStore.count` and
:meth:`~repro.storage.BlotStore.execute_workload`, and is thread-safe so
reads made on several caller threads at once can share it.

Accounting invariant: every entry that ever entered the cache left it
through exactly one of eviction (budget pressure), invalidation
(explicit drop — a failed read, a repair, a retire, ``clear()``) or is
still resident, so

    entries == inserts - evictions - invalidations

holds at all times (asserted in the cache tests).  ``inserts`` counts
*new* keys only — re-inserting a resident key refreshes it in place.

When a :class:`~repro.obs.MetricsRegistry` is attached the cache also
publishes its counters (``repro_cache_*``) and the resident-bytes gauge
into it on every operation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.data.dataset import Dataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.metrics import MetricsRegistry

#: Cache key: ``(StoredReplica.serial, partition_id)``.  The serial names
#: one replica object, so a replica rebuilt under an old name misses.
CacheKey = tuple[int, int]


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Hit/miss/eviction/invalidation counters plus the byte footprint.

    ``inserts`` counts distinct-key insertions; refreshing a resident
    key is not an insert.  ``invalidations`` counts entries dropped by
    :meth:`PartitionCache.invalidate`, ``invalidate_replica`` (a failed
    replica, a retired one) and ``clear`` — so ``entries`` always
    reconciles:
    ``entries == inserts - evictions - invalidations``.
    """

    hits: int
    misses: int
    evictions: int
    current_bytes: int
    capacity_bytes: int
    entries: int
    inserts: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class PartitionCache:
    """Thread-safe LRU over decoded partitions with a byte budget.

    ``capacity_bytes`` bounds the sum of the cached datasets' decoded
    (in-memory binary) sizes; inserting past the budget evicts the least
    recently used entries.  A single partition larger than the whole
    budget is never cached.  ``metrics`` optionally mirrors the counters
    into a :class:`~repro.obs.MetricsRegistry`.
    """

    def __init__(self, capacity_bytes: int,
                 metrics: "MetricsRegistry | None" = None):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = int(capacity_bytes)
        self._entries: OrderedDict[CacheKey, tuple[Dataset, int]] = OrderedDict()
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._inserts = 0
        self._invalidations = 0
        self._lock = threading.Lock()
        self._m_hits = self._m_misses = self._m_evictions = None
        self._m_inserts = self._m_invalidations = self._m_bytes = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics: "MetricsRegistry") -> None:
        """Publish this cache's counters into ``metrics`` from now on
        (lifetime-so-far totals are copied in, so registry and
        :meth:`stats` agree even when bound late)."""
        self._m_hits = metrics.counter("repro_cache_hits_total")
        self._m_misses = metrics.counter("repro_cache_misses_total")
        self._m_evictions = metrics.counter("repro_cache_evictions_total")
        self._m_inserts = metrics.counter("repro_cache_inserts_total")
        self._m_invalidations = metrics.counter(
            "repro_cache_invalidations_total")
        self._m_bytes = metrics.gauge("repro_cache_resident_bytes")
        with self._lock:
            self._m_hits.inc(self._hits - self._m_hits.value)
            self._m_misses.inc(self._misses - self._m_misses.value)
            self._m_evictions.inc(self._evictions - self._m_evictions.value)
            self._m_inserts.inc(self._inserts - self._m_inserts.value)
            self._m_invalidations.inc(
                self._invalidations - self._m_invalidations.value)
            self._m_bytes.set(self._current_bytes)

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Dataset | None:
        """The decoded partition for ``key``, or None on a miss.

        A hit refreshes the entry's recency.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                if self._m_misses is not None:
                    self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            return entry[0]

    def put(self, key: CacheKey, records: Dataset) -> None:
        """Insert a decoded partition, evicting LRU entries to stay within
        the byte budget.  Re-inserting an existing key refreshes it."""
        nbytes = records.binary_size_bytes()
        with self._lock:
            if nbytes > self._capacity:
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._current_bytes -= old[1]
            else:
                self._inserts += 1
                if self._m_inserts is not None:
                    self._m_inserts.inc()
            self._entries[key] = (records, nbytes)
            self._current_bytes += nbytes
            while self._current_bytes > self._capacity:
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self._current_bytes -= evicted_bytes
                self._evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()
            if self._m_bytes is not None:
                self._m_bytes.set(self._current_bytes)

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one cached partition (e.g. after its unit failed a read
        or was repaired); returns True when an entry was removed."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._current_bytes -= entry[1]
            self._invalidations += 1
            if self._m_invalidations is not None:
                self._m_invalidations.inc()
            if self._m_bytes is not None:
                self._m_bytes.set(self._current_bytes)
            return True

    def invalidate_replica(self, serial: int) -> int:
        """Drop every cached partition of the replica with ``serial``
        (e.g. after an outage or a retire); returns the number of
        entries removed."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == serial]
            for key in stale:
                _, nbytes = self._entries.pop(key)
                self._current_bytes -= nbytes
            self._invalidations += len(stale)
            if self._m_invalidations is not None and stale:
                self._m_invalidations.inc(len(stale))
            if self._m_bytes is not None:
                self._m_bytes.set(self._current_bytes)
            return len(stale)

    def clear(self) -> None:
        """Drop all entries.  Counters are preserved; the dropped entries
        are accounted as invalidations so the conservation invariant
        (``entries == inserts - evictions - invalidations``) holds."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._current_bytes = 0
            self._invalidations += dropped
            if self._m_invalidations is not None and dropped:
                self._m_invalidations.inc(dropped)
            if self._m_bytes is not None:
                self._m_bytes.set(0)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                current_bytes=self._current_bytes,
                capacity_bytes=self._capacity,
                entries=len(self._entries),
                inserts=self._inserts,
                invalidations=self._invalidations,
            )
