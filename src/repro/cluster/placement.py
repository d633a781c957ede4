"""Distributed placement of storage units and node-failure recovery.

In the paper's deployments a replica's storage units live on cluster
nodes (HDFS blocks) or in an object store.  With *diverse* replicas the
interesting placement question is anti-affinity: units of different
replicas that cover overlapping spatio-temporal regions should land on
different nodes, so that one node failure never takes out a region in
every replica at once — the precondition for the paper's "diverse
replicas can recover each other" property to survive real failures.

This module provides:

- :class:`ClusterPlacement` — assigns every unit of every registered
  replica to one of ``n_nodes`` nodes (``spread``, ``random`` or
  ``anti-affinity`` policies) and can *fail* a node, deleting its units
  from the backing stores;
- :meth:`ClusterPlacement.plan_recovery` — for each lost unit, pick a
  surviving diverse replica able to answer the unit's box;
- :meth:`ClusterPlacement.execute_recovery` — run the plan through
  :func:`repro.storage.recovery.repair_partition`;
- :class:`ShardAssignment` / :func:`assign_shards` — the serving tier's
  static unit-to-shard map: every ``(replica, partition)`` unit is owned
  by exactly one shard worker, by stable hash (load spreading) or by
  spatial runs balanced on record counts (query co-location, after
  Kumar et al.'s affinity-aware placement).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace as dataclasses_replace

import numpy as np

from repro.geometry import Box3
from repro.storage.recovery import repair_partition
from repro.storage.replica import StoredReplica

PLACEMENT_POLICIES = ("spread", "random", "anti-affinity")

SHARDING_MODES = ("hash", "spatial")


@dataclass(frozen=True)
class LostUnit:
    """One storage unit destroyed by a node failure."""

    replica_name: str
    partition_id: int
    key: str


@dataclass(frozen=True)
class FailureReport:
    """Everything a node failure destroyed."""

    node_id: int
    lost: tuple[LostUnit, ...]

    def lost_by_replica(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for unit in self.lost:
            out.setdefault(unit.replica_name, []).append(unit.partition_id)
        return out


@dataclass(frozen=True)
class RecoveryStep:
    """Repair one partition of one replica from a diverse source."""

    replica_name: str
    partition_id: int
    source_name: str


@dataclass(frozen=True)
class RecoveryPlan:
    """Ordered repair steps plus anything that cannot be recovered."""

    steps: tuple[RecoveryStep, ...]
    unrecoverable: tuple[LostUnit, ...]

    @property
    def is_complete(self) -> bool:
        return not self.unrecoverable


@dataclass
class _PlacedUnit:
    replica_name: str
    partition_id: int
    key: str
    box: Box3
    node_id: int
    alive: bool = True


class ClusterPlacement:
    """Unit-to-node assignment for the diverse replicas of one dataset."""

    def __init__(self, n_nodes: int, rng: np.random.Generator | None = None):
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.n_nodes = n_nodes
        self._rng = rng or np.random.default_rng(0)
        self._replicas: dict[str, StoredReplica] = {}
        self._units: dict[str, _PlacedUnit] = {}  # key -> placement
        self._load = np.zeros(n_nodes, dtype=np.int64)
        self._failed: set[int] = set()
        self._allowed: dict[str, list[int]] = {}  # replica -> node subset

    # -- registration -----------------------------------------------------

    def add_replica(
        self,
        replica: StoredReplica,
        policy: str = "spread",
        nodes: list[int] | None = None,
    ) -> None:
        """Place every unit of ``replica`` onto nodes.

        ``nodes`` restricts placement to a node subset (rack/zone-style
        isolation: putting different replicas on disjoint node groups
        guarantees a single node failure never hits overlapping regions
        of two replicas at once).
        """
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; have {PLACEMENT_POLICIES}")
        if replica.name in self._replicas:
            raise ValueError(f"replica {replica.name!r} already placed")
        allowed = list(range(self.n_nodes)) if nodes is None else list(nodes)
        if not allowed or any(not 0 <= n < self.n_nodes for n in allowed):
            raise ValueError(f"invalid node subset {nodes!r}")
        self._replicas[replica.name] = replica
        self._allowed[replica.name] = allowed
        offset = int(self._rng.integers(len(allowed)))
        placed = 0
        for pid, key in enumerate(replica.unit_keys):
            if key is None:
                continue
            box = Box3(*replica.partitioning.box_array[pid])
            if policy == "spread":
                node = allowed[(offset + placed) % len(allowed)]
            elif policy == "random":
                node = allowed[int(self._rng.integers(len(allowed)))]
            else:
                node = self._anti_affinity_node(replica.name, box, allowed)
            self._units[key] = _PlacedUnit(replica.name, pid, key, box, node)
            self._load[node] += 1
            placed += 1

    def _anti_affinity_node(
        self, replica_name: str, box: Box3, allowed: list[int]
    ) -> int:
        """Allowed node with the fewest overlapping units of *other*
        replicas, ties broken by load."""
        overlap = np.zeros(self.n_nodes, dtype=np.int64)
        for unit in self._units.values():
            if unit.replica_name != replica_name and unit.box.intersects(box):
                overlap[unit.node_id] += 1
        score = overlap * (self._load.max() + 1) + self._load
        best = min(allowed, key=lambda n: score[n])
        return int(best)

    # -- introspection ------------------------------------------------------

    def replica(self, name: str) -> StoredReplica:
        return self._replicas[name]

    def node_of(self, key: str) -> int:
        return self._units[key].node_id

    def units_on(self, node_id: int) -> list[LostUnit]:
        return [
            LostUnit(u.replica_name, u.partition_id, u.key)
            for u in self._units.values()
            if u.node_id == node_id and u.alive
        ]

    def load(self) -> np.ndarray:
        """Units per node."""
        return self._load.copy()

    def region_copies(self, box: Box3) -> dict[str, int]:
        """How many *alive* units per replica intersect ``box`` — the
        redundancy the region currently enjoys."""
        out: dict[str, int] = {name: 0 for name in self._replicas}
        for unit in self._units.values():
            if unit.alive and unit.box.intersects(box):
                out[unit.replica_name] += 1
        return out

    # -- failure & recovery -------------------------------------------------

    def fail_node(self, node_id: int) -> FailureReport:
        """Destroy a node: delete its units from the backing stores."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node {node_id} out of range")
        if node_id in self._failed:
            raise ValueError(f"node {node_id} already failed")
        self._failed.add(node_id)
        lost = []
        for unit in self._units.values():
            if unit.node_id == node_id and unit.alive:
                unit.alive = False
                replica = self._replicas[unit.replica_name]
                replica.store.delete(unit.key)
                lost.append(LostUnit(unit.replica_name, unit.partition_id,
                                     unit.key))
        return FailureReport(node_id=node_id, lost=tuple(lost))

    def _source_candidates(self, damaged_name: str, box: Box3) -> list[str]:
        """Replicas whose units covering ``box`` are all alive."""
        out = []
        for name, replica in self._replicas.items():
            if name == damaged_name:
                continue
            involved = replica.involved_partitions(box)
            ok = True
            for pid in involved:
                key = replica.unit_keys[int(pid)]
                if key is None:
                    continue
                unit = self._units.get(key)
                if unit is None or not unit.alive:
                    ok = False
                    break
            if ok:
                out.append(name)
        return out

    def plan_recovery(self, report: FailureReport) -> RecoveryPlan:
        """Choose a surviving diverse source for every lost unit."""
        steps = []
        unrecoverable = []
        for lost in report.lost:
            replica = self._replicas[lost.replica_name]
            box = Box3(*replica.partitioning.box_array[lost.partition_id])
            sources = self._source_candidates(lost.replica_name, box)
            if sources:
                steps.append(RecoveryStep(
                    lost.replica_name, lost.partition_id, sources[0]))
            else:
                unrecoverable.append(lost)
        return RecoveryPlan(steps=tuple(steps),
                            unrecoverable=tuple(unrecoverable))

    def execute_recovery(self, plan: RecoveryPlan) -> int:
        """Run the plan; each repaired unit is re-placed on the
        least-loaded surviving node of its replica's zone.  Returns
        records restored."""
        survivors = [n for n in range(self.n_nodes) if n not in self._failed]
        if not survivors:
            raise RuntimeError("no surviving nodes to place repaired units on")
        restored = 0
        for step in plan.steps:
            damaged = self._replicas[step.replica_name]
            source = self._replicas[step.source_name]
            restored += repair_partition(damaged, step.partition_id, source)
            key = damaged.unit_keys[step.partition_id]
            assert key is not None
            # Stay inside the replica's node subset (zone isolation must
            # survive recovery); fall back to any survivor only when the
            # whole zone is down.
            zone = [n for n in self._allowed[step.replica_name]
                    if n not in self._failed]
            node = min(zone or survivors, key=lambda n: int(self._load[n]))
            unit = self._units[key]
            self._load[unit.node_id] -= 1
            unit.node_id = node
            unit.alive = True
            self._load[node] += 1
        return restored

    def recover_all(self, report: FailureReport) -> tuple[int, RecoveryPlan]:
        """Iterate plan/execute to a fixed point.

        Units whose source regions were damaged too become recoverable
        once those regions are repaired in earlier rounds; units lost in
        *every* replica stay unrecoverable (with two replicas that is real
        data loss — the scenario node-subset or anti-affinity placement
        exists to prevent).  Returns ``(records_restored, final_plan)``
        where the final plan holds only the truly unrecoverable units.
        """
        restored = 0
        pending = report
        while True:
            plan = self.plan_recovery(pending)
            if not plan.steps:
                return restored, plan
            restored += self.execute_recovery(plan)
            if plan.is_complete:
                return restored, plan
            pending = FailureReport(pending.node_id, plan.unrecoverable)


# -- serving-tier sharding ---------------------------------------------------


@dataclass(frozen=True)
class ShardAssignment:
    """A static map of every ``(replica, partition)`` unit to one shard.

    Plain picklable data: the serving tier ships one assignment to every
    ``spawn``-started worker, and each worker masks the unit keys it
    does not own (:meth:`mask_replica`) so the engine's scan simply never
    touches another shard's partitions.  Because the owners cover each
    replica exactly once, the per-shard partial results of one query —
    all served from the *same* replica — union to precisely the
    single-process result.

    ``owners[replica_name][pid]`` is the owning shard id.
    """

    n_shards: int
    mode: str
    owners: dict[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.mode not in SHARDING_MODES:
            raise ValueError(
                f"unknown sharding mode {self.mode!r}; have {SHARDING_MODES}")
        for name, shards in self.owners.items():
            bad = [s for s in shards if not 0 <= s < self.n_shards]
            if bad:
                raise ValueError(
                    f"replica {name!r} assigns partitions to shards {bad} "
                    f"outside [0, {self.n_shards})"
                )

    @property
    def replica_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.owners))

    def shard_of(self, replica_name: str, partition_id: int) -> int:
        return self.owners[replica_name][partition_id]

    def partitions_for(self, shard_id: int, replica_name: str) -> tuple[int, ...]:
        """The partition ids of one replica owned by ``shard_id``."""
        return tuple(
            pid for pid, s in enumerate(self.owners[replica_name])
            if s == shard_id
        )

    def unit_counts(self) -> list[int]:
        """Owned units per shard, over all replicas (balance check)."""
        counts = [0] * self.n_shards
        for shards in self.owners.values():
            for s in shards:
                counts[s] += 1
        return counts

    def mask_replica(self, replica: StoredReplica, shard_id: int) -> StoredReplica:
        """``replica`` as seen by one shard: unit keys this shard does
        not own are masked to ``None``, which the engine's scan paths
        treat as partitions that simply contribute no records."""
        owners = self.owners[replica.name]
        masked = tuple(
            key if owners[pid] == shard_id else None
            for pid, key in enumerate(replica.unit_keys)
        )
        return dataclasses_replace(replica, unit_keys=masked)


def _hash_shard(replica_name: str, partition_id: int, n_shards: int) -> int:
    # crc32, not hash(): stable across processes regardless of
    # PYTHONHASHSEED, so parent and spawned workers agree on ownership.
    token = f"{replica_name}:{partition_id}".encode()
    return zlib.crc32(token) % n_shards


def _spatial_shards(replica: StoredReplica, n_shards: int) -> tuple[int, ...]:
    """Contiguous centroid-ordered runs of partitions, balanced so each
    shard owns roughly equal record counts — spatially close partitions
    co-locate, so a tight query's work lands on few shards."""
    boxes = replica.partitioning.box_array
    counts = np.asarray(replica.partitioning.counts, dtype=np.float64)
    centroids = np.stack([
        (boxes[:, 0] + boxes[:, 1]) / 2,
        (boxes[:, 2] + boxes[:, 3]) / 2,
        (boxes[:, 4] + boxes[:, 5]) / 2,
    ], axis=1)
    order = np.lexsort((centroids[:, 2], centroids[:, 1], centroids[:, 0]))
    total = counts.sum()
    shards = [0] * len(order)
    if total <= 0:
        for i, pid in enumerate(order):
            shards[pid] = i * n_shards // max(len(order), 1)
        return tuple(shards)
    per_shard = total / n_shards
    cum = 0.0
    for pid in order:
        # Assign by the run's record midpoint so one oversized partition
        # does not push every later run into the last shard.
        shard = min(int((cum + counts[pid] / 2) / per_shard), n_shards - 1)
        shards[pid] = shard
        cum += counts[pid]
    return tuple(shards)


def assign_shards(
    replicas, n_shards: int, mode: str = "hash"
) -> ShardAssignment:
    """Build the unit-to-shard map for a replica set.

    ``mode="hash"`` spreads units by a stable crc32 of
    ``replica:partition`` (uniform load, no locality); ``"spatial"``
    gives each shard contiguous centroid-ordered runs balanced by record
    counts (query co-location at the cost of hot-region skew).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if mode not in SHARDING_MODES:
        raise ValueError(
            f"unknown sharding mode {mode!r}; have {SHARDING_MODES}")
    owners: dict[str, tuple[int, ...]] = {}
    for replica in replicas:
        if replica.name in owners:
            raise ValueError(f"duplicate replica {replica.name!r}")
        if mode == "hash":
            owners[replica.name] = tuple(
                _hash_shard(replica.name, pid, n_shards)
                for pid in range(replica.partitioning.n_partitions)
            )
        else:
            owners[replica.name] = _spatial_shards(replica, n_shards)
    return ShardAssignment(n_shards=n_shards, mode=mode, owners=owners)
