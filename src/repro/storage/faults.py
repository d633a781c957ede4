"""Deterministic fault injection for the storage engine.

The paper's fault-tolerance argument (Sections I–III) treats replica
loss as a first-class state: a replica set must survive node failures
while staying inside the storage budget, and diverse replicas recover
each other because they share one logical view of the data.  This
module provides the failure side of that story for testing and drills:
a :class:`FaultInjector` that the engine consults before every storage
unit read and that can

- fail a whole replica (the node hosting it is down),
- fail single partitions, persistently or for the next *k* reads
  (a transient fault that a retry survives),
- fail a deterministic pseudo-random subset of partitions
  (``partition_fail_rate``, keyed by ``seed``), and
- slow reads down (an injected latency per storage access).

Everything is deterministic given the seed and the explicit schedule:
a partition that fails once keeps failing on every retry (unless the
fault was registered as transient), so drills are reproducible.

The exceptions forming the failure vocabulary of the engine —
:class:`InjectedFault` for a fault fired by the injector,
:class:`PartitionReadError` for any partition read that stayed failed
after retries (injected or real — missing unit, corrupt bytes), and
:class:`DegradedReadError` when a query exhausted every replica and
repair could not restore a readable copy — are defined in
:mod:`repro.errors`.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass

from repro.errors import InjectedFault


@dataclass(frozen=True, slots=True)
class FaultStats:
    """Lifetime counters of one :class:`FaultInjector`."""

    reads_checked: int
    faults_injected: int
    reads_slowed: int
    failed_replicas: tuple[str, ...]
    failed_partitions: int


def _hash_unit(seed: int, replica_name: str, partition_id: int) -> float:
    """A stable uniform draw in [0, 1) per (seed, replica, partition)."""
    token = f"{seed}:{replica_name}:{partition_id}".encode()
    return zlib.crc32(token) / 2 ** 32


class FaultInjector:
    """Seedable, deterministic failure schedule for storage unit reads.

    The engine calls :meth:`on_read` before fetching a unit; the
    injector raises :class:`InjectedFault` (or sleeps, for slowdowns)
    according to the schedule.  All mutators are thread-safe — reads
    may run on several caller threads at once.

    ``partition_fail_rate`` fails a pseudo-random fraction of all
    ``(replica, partition)`` units, keyed by ``seed``: the same seed
    always fails the same units, and a failed unit keeps failing on
    every retry.  :meth:`heal_partition` (called by the engine after a
    successful repair) overrides both explicit and rate-based faults for
    that unit.
    """

    def __init__(self, seed: int = 0, partition_fail_rate: float = 0.0,
                 slow_seconds: float = 0.0, metrics=None):
        if not 0.0 <= partition_fail_rate <= 1.0:
            raise ValueError("partition_fail_rate must be in [0, 1]")
        if slow_seconds < 0:
            raise ValueError("slow_seconds must be non-negative")
        self._seed = int(seed)
        self._rate = float(partition_fail_rate)
        self._slow_default = float(slow_seconds)
        self._slow_by_replica: dict[str, float] = {}
        self._failed_replicas: set[str] = set()
        #: (replica, pid) -> remaining failures (None = persistent).
        self._failed_partitions: dict[tuple[str, int], int | None] = {}
        self._healed: set[tuple[str, int]] = set()
        self._reads_checked = 0
        self._faults_injected = 0
        self._reads_slowed = 0
        self._lock = threading.Lock()
        self._m_checked = self._m_injected = self._m_slowed = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics) -> None:
        """Mirror the lifetime counters into a
        :class:`~repro.obs.MetricsRegistry` from now on (counts so far
        are copied in, so a late bind still reconciles)."""
        self._m_checked = metrics.counter("repro_fault_reads_checked_total")
        self._m_injected = metrics.counter("repro_faults_injected_total")
        self._m_slowed = metrics.counter("repro_fault_reads_slowed_total")
        with self._lock:
            self._m_checked.inc(self._reads_checked - self._m_checked.value)
            self._m_injected.inc(self._faults_injected - self._m_injected.value)
            self._m_slowed.inc(self._reads_slowed - self._m_slowed.value)

    # -- schedule mutators -------------------------------------------------

    def fail_replica(self, replica_name: str) -> None:
        """Mark a whole replica as down (its node is unreachable)."""
        with self._lock:
            self._failed_replicas.add(replica_name)

    def heal_replica(self, replica_name: str) -> None:
        """Bring a failed replica back."""
        with self._lock:
            self._failed_replicas.discard(replica_name)

    def fail_partition(self, replica_name: str, partition_id: int,
                       times: int | None = None) -> None:
        """Fail one storage unit: persistently (``times=None``) or for
        the next ``times`` reads only (a transient fault that retries
        can ride out)."""
        if times is not None and times < 1:
            raise ValueError("times must be >= 1 (or None for persistent)")
        key = (replica_name, int(partition_id))
        with self._lock:
            self._healed.discard(key)
            self._failed_partitions[key] = times

    def heal_partition(self, replica_name: str, partition_id: int) -> None:
        """Mark one unit healthy again, overriding explicit and
        rate-based faults (the engine calls this after a repair
        rewrites the unit)."""
        key = (replica_name, int(partition_id))
        with self._lock:
            self._failed_partitions.pop(key, None)
            self._healed.add(key)

    def slow_replica(self, replica_name: str, seconds: float) -> None:
        """Add an injected latency to every read of one replica."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        with self._lock:
            self._slow_by_replica[replica_name] = float(seconds)

    def clear(self) -> None:
        """Drop the whole schedule (counters are preserved)."""
        with self._lock:
            self._failed_replicas.clear()
            self._failed_partitions.clear()
            self._healed.clear()
            self._slow_by_replica.clear()

    # -- queries -----------------------------------------------------------

    def replica_failed(self, replica_name: str) -> bool:
        with self._lock:
            return replica_name in self._failed_replicas

    def partition_failed(self, replica_name: str, partition_id: int) -> bool:
        """Would a read of this unit fail right now?  (Does not consume
        transient failure budgets.)"""
        key = (replica_name, int(partition_id))
        with self._lock:
            if replica_name in self._failed_replicas:
                return True
            if key in self._healed:
                return False
            if key in self._failed_partitions:
                return True
            return self._rate > 0 and \
                _hash_unit(self._seed, replica_name, int(partition_id)) < self._rate

    def failed_units(self, replica_name: str, n_partitions: int) -> list[int]:
        """All partition ids of one replica that would currently fail."""
        return [pid for pid in range(n_partitions)
                if self.partition_failed(replica_name, pid)]

    # -- the engine hook ---------------------------------------------------

    def on_read(self, replica_name: str, partition_id: int) -> None:
        """Called by the engine before each storage unit read; raises
        :class:`InjectedFault` or sleeps per the schedule."""
        key = (replica_name, int(partition_id))
        delay = 0.0
        with self._lock:
            self._reads_checked += 1
            if self._m_checked is not None:
                self._m_checked.inc()
            if replica_name in self._failed_replicas:
                self._faults_injected += 1
                if self._m_injected is not None:
                    self._m_injected.inc()
                raise InjectedFault(replica_name, int(partition_id),
                                    scope="replica")
            fault = False
            if key not in self._healed:
                if key in self._failed_partitions:
                    remaining = self._failed_partitions[key]
                    if remaining is None:
                        fault = True
                    else:  # transient: consume one failure
                        fault = True
                        if remaining <= 1:
                            del self._failed_partitions[key]
                        else:
                            self._failed_partitions[key] = remaining - 1
                elif self._rate > 0 and _hash_unit(
                        self._seed, replica_name, int(partition_id)) < self._rate:
                    fault = True
            if fault:
                self._faults_injected += 1
                if self._m_injected is not None:
                    self._m_injected.inc()
                raise InjectedFault(replica_name, int(partition_id),
                                    scope="partition")
            delay = self._slow_by_replica.get(replica_name, self._slow_default)
            if delay > 0:
                self._reads_slowed += 1
                if self._m_slowed is not None:
                    self._m_slowed.inc()
        if delay > 0:
            time.sleep(delay)

    def stats(self) -> FaultStats:
        with self._lock:
            return FaultStats(
                reads_checked=self._reads_checked,
                faults_injected=self._faults_injected,
                reads_slowed=self._reads_slowed,
                failed_replicas=tuple(sorted(self._failed_replicas)),
                failed_partitions=len(self._failed_partitions),
            )
