"""Locality-aware scheduling of distributed scan jobs.

The paper's map-only jobs run "with each mapper scanning exactly one of
the involved partitions"; on a real cluster each partition's storage unit
lives on a specific node (see :mod:`repro.cluster.placement`), so the
scheduler prefers running a task where its data is and pays a network
transfer when it cannot (standard Hadoop delay-scheduling territory).

:class:`LocalityScheduler` performs deterministic greedy list scheduling
over per-node slot pools: each task is placed on the node that finishes
it earliest, where remote nodes add ``unit_bytes / network_bandwidth``
to the task duration.  Outputs makespan plus the data-local fraction —
the quantities that distinguish good from bad unit placement.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.cluster.placement import ClusterPlacement
from repro.cluster.spec import EnvironmentSpec, TaskTimeModel
from repro.geometry import Box3
from repro.workload.query import Query


@dataclass(frozen=True)
class PlacedTask:
    """One scheduled scan task."""

    partition_id: int
    home_node: int
    run_node: int
    start: float
    end: float

    @property
    def data_local(self) -> bool:
        return self.home_node == self.run_node

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PlacedJobResult:
    """Outcome of a locality-scheduled query job."""

    tasks: tuple[PlacedTask, ...]
    makespan: float

    @property
    def locality_fraction(self) -> float:
        if not self.tasks:
            return 1.0
        return sum(t.data_local for t in self.tasks) / len(self.tasks)

    @property
    def total_task_seconds(self) -> float:
        return sum(t.duration for t in self.tasks)


class LocalityScheduler:
    """Greedy earliest-finish scheduling with per-node slots."""

    def __init__(
        self,
        spec: EnvironmentSpec,
        placement: ClusterPlacement,
        slots_per_node: int = 2,
        network_bandwidth: float = 50e6,  # bytes/second across the fabric
        encoding_ratios: dict[str, float] | None = None,
    ):
        if slots_per_node < 1:
            raise ValueError("slots_per_node must be >= 1")
        if network_bandwidth <= 0:
            raise ValueError("network_bandwidth must be positive")
        self.spec = spec
        self.placement = placement
        self.slots_per_node = slots_per_node
        self.network_bandwidth = network_bandwidth
        self.time_model = (
            TaskTimeModel(spec, dict(encoding_ratios))
            if encoding_ratios is not None else TaskTimeModel(spec)
        )

    def run_query(self, replica_name: str, query: Query) -> PlacedJobResult:
        """Schedule a positioned query's scan tasks over the cluster."""
        replica = self.placement.replica(replica_name)
        box = query.box()
        involved = [int(p) for p in replica.involved_partitions(box)
                    if replica.unit_keys[int(p)] is not None]
        # Per-node slot pools: min-heaps of slot-available times.
        slots: dict[int, list[float]] = {
            node: [0.0] * self.slots_per_node
            for node in range(self.placement.n_nodes)
        }
        for pool in slots.values():
            heapq.heapify(pool)
        tasks: list[PlacedTask] = []
        # Longest-processing-time order improves greedy makespan.
        involved.sort(
            key=lambda pid: -int(replica.partitioning.counts[pid]))
        for pid in involved:
            key = replica.unit_keys[pid]
            home = self.placement.node_of(key)
            n_records = float(replica.partitioning.counts[pid])
            nbytes = replica.store.size(key)
            base = (
                self.time_model.extra_seconds()
                + self.time_model.scan_seconds(
                    replica.encoding.name, n_records)
            )
            best: tuple[float, float, int, float] | None = None
            for node, pool in slots.items():
                duration = base
                if node != home:
                    duration += nbytes / self.network_bandwidth
                start = pool[0]
                finish = start + duration
                # Earliest finish; prefer the home node on ties.
                rank = (finish, 0.0 if node == home else 1.0)
                if best is None or rank < (best[0], best[3]):
                    best = (finish, start, node, 0.0 if node == home else 1.0)
            assert best is not None
            finish, start, node, _ = best
            heapq.heapreplace(slots[node], finish)
            tasks.append(PlacedTask(
                partition_id=pid, home_node=home, run_node=node,
                start=start, end=finish,
            ))
        makespan = max((t.end for t in tasks), default=0.0)
        return PlacedJobResult(tasks=tuple(tasks), makespan=makespan)


def estimate_recovery_seconds(
    placement: ClusterPlacement,
    plan,
    spec: EnvironmentSpec,
    network_bandwidth: float = 50e6,
    encoding_ratios: dict[str, float] | None = None,
) -> float:
    """Estimate the wall time of a recovery plan on the environment.

    Each repair step reads the source units covering the lost box (scan
    cost by the source encoding), transfers them across the network and
    re-encodes one unit; steps for different lost units run sequentially
    per source node but the dominant term — total source scan work — is
    what this estimate captures.
    """
    model = (TaskTimeModel(spec, dict(encoding_ratios))
             if encoding_ratios is not None else TaskTimeModel(spec))
    total = 0.0
    for step in plan.steps:
        damaged = placement.replica(step.replica_name)
        source = placement.replica(step.source_name)
        box = Box3(*damaged.partitioning.box_array[step.partition_id])
        for pid in source.involved_partitions(box):
            key = source.unit_keys[int(pid)]
            if key is None:
                continue
            n_records = float(source.partitioning.counts[int(pid)])
            total += model.scan_seconds(source.encoding.name, n_records)
            total += source.store.size(key) / network_bandwidth
        total += model.spec.unit_lookup_seconds
    return total
