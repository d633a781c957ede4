"""Discrete-event simulated cluster running map-only scan jobs.

The paper processes a query by launching "a map-only MapReduce job ...
with each mapper scanning exactly one of the involved partitions"
(Section V-A).  :class:`SimulatedCluster` reproduces that execution
shape: tasks wait for free map slots, run for a duration given by the
environment's :class:`~repro.cluster.spec.TaskTimeModel`, and the job
finishes when the last mapper does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.des import Simulator
from repro.cluster.spec import EnvironmentSpec, TaskTimeModel


@dataclass(frozen=True, slots=True)
class MapTask:
    """One mapper's work: scan a partition of ``n_records`` records stored
    under ``encoding_name``."""

    encoding_name: str
    n_records: float

    def __post_init__(self) -> None:
        if self.n_records < 0:
            raise ValueError("n_records must be non-negative")


@dataclass(frozen=True)
class TaskRecord:
    """Simulated execution record of one task."""

    task: MapTask
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class StragglerModel:
    """Heavy-tail task behaviour: with ``probability`` a task's duration
    is multiplied by a uniform draw from ``slowdown`` — the classic
    MapReduce straggler (bad disk, hot neighbour, swapping JVM)."""

    probability: float = 0.05
    slowdown: tuple[float, float] = (3.0, 8.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        lo, hi = self.slowdown
        if not 1.0 <= lo <= hi:
            raise ValueError("slowdown must satisfy 1 <= lo <= hi")

    def factor(self, rng: np.random.Generator) -> float:
        if rng.random() < self.probability:
            return float(rng.uniform(*self.slowdown))
        return 1.0


@dataclass(frozen=True)
class JobResult:
    """Outcome of one map-only job."""

    tasks: tuple[TaskRecord, ...]
    makespan: float
    backups_launched: int = 0
    backups_won: int = 0

    @property
    def total_task_seconds(self) -> float:
        """Sum of task durations — the sequential-work measure matching the
        cost model's ``Cost(q, r)`` (Eq. 7 sums over partitions)."""
        return sum(t.duration for t in self.tasks)

    @property
    def mean_task_seconds(self) -> float:
        if not self.tasks:
            return 0.0
        return self.total_task_seconds / len(self.tasks)


class SimulatedCluster:
    """A fixed pool of map slots executing scan tasks.

    Deterministic given the construction seed: each job draws its noise
    from a child generator, so job outcomes do not depend on how many
    events earlier jobs processed.
    """

    def __init__(
        self,
        spec: EnvironmentSpec,
        encoding_ratios: dict[str, float] | None = None,
        seed: int = 1234,
        straggler: StragglerModel | None = None,
        speculative_execution: bool = False,
        speculation_threshold: float = 1.5,
    ):
        """``straggler`` injects heavy-tail task durations;
        ``speculative_execution`` launches a backup attempt for a task
        whose elapsed time exceeds ``speculation_threshold`` times the
        median completed duration while slots sit idle (Hadoop-style
        speculation; first attempt to finish wins, the other is killed).
        """
        if speculation_threshold <= 1.0:
            raise ValueError("speculation_threshold must be > 1")
        self.spec = spec
        self.time_model = (
            TaskTimeModel(spec, dict(encoding_ratios))
            if encoding_ratios is not None
            else TaskTimeModel(spec)
        )
        self.straggler = straggler
        self.speculative_execution = speculative_execution
        self.speculation_threshold = speculation_threshold
        self._seed_sequence = np.random.SeedSequence(seed)
        self._jobs_run = 0

    def _next_rng(self) -> np.random.Generator:
        rng = np.random.default_rng(self._seed_sequence.spawn(1)[0])
        self._jobs_run += 1
        return rng

    def run_map_only_job(self, tasks: list[MapTask]) -> JobResult:
        """Execute ``tasks`` over the cluster's map slots."""
        if not tasks:
            return JobResult(tasks=(), makespan=0.0)
        rng = self._next_rng()
        sim = Simulator()
        pending = list(enumerate(tasks))
        pending.reverse()  # pop() yields original order
        records: list[TaskRecord | None] = [None] * len(tasks)
        free_slots = self.spec.map_slots
        # Per-task attempt bookkeeping for speculation.
        attempts: dict[int, list[dict]] = {i: [] for i in range(len(tasks))}
        completed_durations: list[float] = []
        backups_launched = 0
        backups_won = 0

        def sample_duration(task: MapTask) -> float:
            duration = self.time_model.task_seconds(
                task.encoding_name, task.n_records, rng)
            if self.straggler is not None:
                duration *= self.straggler.factor(rng)
            return duration

        def launch(idx: int, task: MapTask, backup: bool) -> None:
            nonlocal free_slots, backups_launched
            free_slots -= 1
            duration = sample_duration(task)
            attempt = {
                "start": sim.now,
                "end": sim.now + duration,
                "cancelled": False,
                "backup": backup,
            }
            attempts[idx].append(attempt)
            if backup:
                backups_launched += 1

            def complete() -> None:
                nonlocal free_slots, backups_won
                if attempt["cancelled"]:
                    return  # slot was already reclaimed at kill time
                free_slots += 1
                if records[idx] is not None:
                    try_dispatch()
                    return
                records[idx] = TaskRecord(task, attempt["start"], sim.now)
                completed_durations.append(sim.now - attempt["start"])
                if attempt["backup"]:
                    backups_won += 1
                # Kill the sibling attempt, reclaiming its slot now.
                for other in attempts[idx]:
                    if other is not attempt and not other["cancelled"] \
                            and records[idx] is not None and other["end"] > sim.now:
                        other["cancelled"] = True
                        free_slots += 1
                try_dispatch()

            sim.schedule(duration, complete)

        def maybe_speculate() -> None:
            """With idle slots and an empty queue, back up the slowest
            over-threshold running task that has no backup yet."""
            if not self.speculative_execution or not completed_durations:
                return
            median = float(np.median(completed_durations))
            candidates = []
            for idx, task_attempts in attempts.items():
                if records[idx] is not None or not task_attempts:
                    continue
                live = [a for a in task_attempts if not a["cancelled"]]
                if len(live) != 1:
                    continue
                elapsed = sim.now - live[0]["start"]
                if elapsed > self.speculation_threshold * median:
                    candidates.append((elapsed, idx))
            if candidates:
                _, idx = max(candidates)
                launch(idx, tasks[idx], backup=True)

        def try_dispatch() -> None:
            while free_slots > 0 and pending:
                idx, task = pending.pop()
                launch(idx, task, backup=False)
            while free_slots > 0 and not pending:
                before = free_slots
                maybe_speculate()
                if free_slots == before:
                    break

        sim.schedule(0.0, try_dispatch)
        makespan_end = 0.0
        sim.run()
        done = tuple(r for r in records if r is not None)
        assert len(done) == len(tasks), "simulation lost tasks"
        makespan_end = max(t.end for t in done)
        return JobResult(
            tasks=done,
            makespan=makespan_end,
            backups_launched=backups_launched,
            backups_won=backups_won,
        )

    # -- calibration backend -------------------------------------------------

    def measurement_backend(self):
        """A callable for :func:`repro.costmodel.calibrate_encoding`:
        ``backend(encoding_name, partition_records, partitions_per_set)``
        launches one job with that many mappers and returns the average
        task time — exactly the paper's Section V-B procedure."""

        def measure(encoding_name: str, partition_records: int,
                    partitions_per_set: int) -> float:
            job = self.run_map_only_job(
                [MapTask(encoding_name, partition_records)] * partitions_per_set
            )
            return job.mean_task_seconds

        return measure
