"""Building and reading stored replicas.

A replica ``r = <D, P, E>`` (paper Definition 4) physically materialized:
every data partition of ``P`` is encoded by ``E`` and written to one
storage unit.  Records inside a partition are stored time-sorted, the
order the columnar delta encodings exploit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.costmodel.model import ReplicaProfile
from repro.data.dataset import Dataset
from repro.encoding.base import EncodingScheme
from repro.geometry import Box3
from repro.partition.base import Partitioning, PartitioningScheme
from repro.storage.unit import UnitStore

_SERIALS = itertools.count()

#: Records per :meth:`EncodingScheme.encode_groups` call in
#: :func:`build_replica`: large enough to spread the per-call numpy
#: overhead over many small partitions, small enough that a chunk's
#: column copies stay a few hundred KiB.
_CHUNK_RECORDS = 1 << 14


@dataclass(frozen=True)
class StoredReplica:
    """A materialized replica: partition geometry + encoded storage units.

    ``unit_keys[i]`` addresses the storage unit holding data partition
    ``i``; partitions with zero records have no unit (key ``None``).
    Every unit is encoded by the one ``encoding``.

    Each object carries a process-unique ``serial`` and a ``zone_memo``
    (``pid -> (x, y, t) zones``, or None for formats without zone maps).
    The engine keys its read memos by them, so what one replica object
    decoded is never served for another, even one under the same name.
    Zones describe a partition's records, which a repair restores
    unchanged, so the zone memo is never invalidated; concurrent scans
    only get and set single keys, which the GIL keeps atomic.
    """

    name: str
    partitioning: Partitioning
    encoding: EncodingScheme
    store: UnitStore
    unit_keys: tuple[str | None, ...]

    def __post_init__(self) -> None:
        if len(self.unit_keys) != self.partitioning.n_partitions:
            raise ValueError(
                f"{len(self.unit_keys)} unit keys for "
                f"{self.partitioning.n_partitions} partitions"
            )
        object.__setattr__(self, "_profile_cache", {})
        object.__setattr__(self, "serial", next(_SERIALS))
        object.__setattr__(self, "zone_memo", {})
        object.__setattr__(self, "fault_injector", None)

    @property
    def n_partitions(self) -> int:
        return self.partitioning.n_partitions

    def storage_bytes(self) -> int:
        """``Storage(r)``: total bytes of all encoded partitions."""
        return sum(self.store.size(k) for k in self.unit_keys if k is not None)

    def attach_fault_injector(self, injector) -> None:
        """Route this replica's unit reads through a
        :class:`~repro.storage.faults.FaultInjector` (None detaches).
        :meth:`repro.storage.BlotStore.register_replica` attaches the
        store's injector automatically, so recovery flows that read a
        replica directly see the same failure schedule as queries."""
        object.__setattr__(self, "fault_injector", injector)

    def read_partition(self, partition_id: int) -> Dataset:
        """Decode the records of one data partition.

        Raises :class:`~repro.storage.faults.InjectedFault` when an
        attached fault injector marks this unit (or the whole replica)
        as failed.
        """
        key = self.unit_keys[partition_id]
        if key is None:
            return Dataset.empty()
        injector = self.fault_injector  # type: ignore[attr-defined]
        if injector is not None:
            injector.on_read(self.name, partition_id)
        return self.encoding.decode(self.store.get(key))

    def involved_partitions(self, query_box: Box3) -> np.ndarray:
        """Partitions whose range intersects the query range, in id
        order: one vectorized pass over the box array, the same
        intersection Eq. 7 routing counts ``Np`` with."""
        return self.partitioning.involved(query_box)

    def profile(self, n_records: float | None = None,
                storage_bytes: float | None = None) -> ReplicaProfile:
        """The cost-model view of this replica.  ``n_records`` and
        ``storage_bytes`` default to the materialized values; pass scaled
        values to model a larger dataset with the same organization.

        Profiles are immutable and derived from immutable state, so they
        are memoized per argument pair — per-query routing builds one per
        replica instead of re-summing counts and store sizes every call.
        """
        memo: dict = self._profile_cache  # type: ignore[attr-defined]
        cache_key = (n_records, storage_bytes)
        cached = memo.get(cache_key)
        if cached is not None:
            return cached
        records = float(n_records if n_records is not None
                        else self.partitioning.counts.sum())
        built = ReplicaProfile(
            name=self.name,
            partitioning_name=self.partitioning.scheme_name,
            encoding_name=self.encoding.name,
            box_array=self.partitioning.box_array,
            universe=self.partitioning.universe,
            n_records=records,
            storage_bytes=float(storage_bytes if storage_bytes is not None
                                else self.storage_bytes()),
        )
        memo[cache_key] = built
        return built


def build_replica(
    dataset: Dataset,
    scheme: PartitioningScheme,
    encoding: EncodingScheme,
    store: UnitStore,
    name: str | None = None,
    universe: Box3 | None = None,
) -> StoredReplica:
    """Partition ``dataset`` by ``scheme``, encode each partition with
    ``encoding`` and persist the units into ``store``.

    Records inside each partition are sorted by (t, oid) before encoding.
    Unit keys are ``<replica-name>/part-<id>``.  One stable sort orders
    the records by partition, then (t, oid) — each partition's records
    come out exactly as ``sorted_by_time`` orders them — and runs of
    consecutive partitions are encoded together, about
    ``_CHUNK_RECORDS`` records at a time.
    """
    partitioning = scheme.build(dataset, universe)
    replica_name = name or f"{scheme.name}/{encoding.name}"
    # Labels in the narrowest unsigned type: numpy sorts 8- and 16-bit
    # keys by radix, several times faster than int64.
    labels = partitioning.labels.astype(
        np.min_scalar_type(partitioning.n_partitions))
    order = np.lexsort((dataset.column("oid"), dataset.column("t"), labels))
    counts = partitioning.counts
    pids = np.flatnonzero(counts)
    ends = np.cumsum(counts)[pids]
    starts = ends - counts[pids]
    keys: list[str | None] = [None] * partitioning.n_partitions
    i = 0
    while i < pids.size:
        # The partitions that end within one chunk of this one's start;
        # a partition larger than a chunk is encoded on its own.
        j = max(i + 1, int(np.searchsorted(
            ends, starts[i] + _CHUNK_RECORDS, side="right")))
        lo = int(starts[i])
        chunk = dataset.take(order[lo:int(ends[j - 1])])
        bounds = np.concatenate(([0], ends[i:j] - lo))
        for pid, blob in zip(pids[i:j].tolist(),
                             encoding.encode_groups(chunk, bounds)):
            key = f"{replica_name}/part-{pid:06d}"
            store.put(key, blob)
            keys[pid] = key
        i = j
    return StoredReplica(
        name=replica_name,
        partitioning=partitioning,
        encoding=encoding,
        store=store,
        unit_keys=tuple(keys),
    )
