"""The differential sweep: every replica, every execution path.

:class:`DifferentialHarness` builds the advisor grid of candidate
replicas (every partitioning x encoding combination) over one dataset
and drives the same query boxes through every execution path the engine
has — scalar ``query()``, batch ``execute_workload``, cold and warm
``PartitionCache`` reads, fault-injected reads with failover, and
``IngestingBlotStore`` merged layer+buffer reads, before and after a
compaction and through a windowed close/reopen — asserting every answer
is bit-identical to the brute-force oracle.

The sweep doubles as the engine's conformance suite (tests) and as the
work-horse behind ``repro verify-store`` (on-disk stores; see
:mod:`repro.verify.diskcheck`).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.costmodel.model import CostModel
from repro.data.dataset import Dataset
from repro.encoding.base import EncodingScheme, paper_encoding_schemes
from repro.errors import DegradedReadError
from repro.geometry import Box3
from repro.partition.base import PartitioningScheme
from repro.partition.composite import small_partitioning_schemes
from repro.storage.engine import BlotStore
from repro.storage.faults import FaultInjector
from repro.storage.ingest import IngestingBlotStore, ReplicaSpec
from repro.storage.options import ExecOptions
from repro.storage.unit import InMemoryStore
from repro.verify.oracle import (
    Mismatch,
    ResultDiff,
    VerificationReport,
    diff_results,
    edge_pinned_boxes,
    oracle_answer,
    random_boxes,
)
from repro.workload.query import Query, Workload

#: The five execution paths the differential sweep covers.
ALL_PATHS: tuple[str, ...] = ("scalar", "batch", "cached", "faulty", "ingest")

_NO_FAILOVER = ExecOptions(failover=False, repair=False, use_cache=False)


def default_grid(
    spatial_leaves: Sequence[int] = (4, 16),
    time_slices: Sequence[int] = (2, 4),
) -> list[PartitioningScheme]:
    """A laptop-sized advisor grid of partitioning schemes (the paper's
    KD x temporal grid, scaled down)."""
    return small_partitioning_schemes(
        spatial_leaves=tuple(spatial_leaves), time_slices=tuple(time_slices))


class DifferentialHarness:
    """Cross-replica, cross-path differential checker for one dataset.

    ``partitioning_schemes`` x ``encoding_schemes`` defines the candidate
    grid (defaults: :func:`default_grid` x the paper's seven encodings).
    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) receives
    ``repro_verify_checks_total`` / ``repro_verify_mismatches_total``
    counters labelled by path (and replica, for mismatches).
    """

    def __init__(
        self,
        dataset: Dataset,
        partitioning_schemes: Sequence[PartitioningScheme] | None = None,
        encoding_schemes: Sequence[EncodingScheme] | None = None,
        cost_model: CostModel | None = None,
        cache_bytes: int = 8 << 20,
        seed: int = 7,
        metrics=None,
    ):
        if len(dataset) == 0:
            raise ValueError("cannot verify an empty dataset")
        self._dataset = dataset
        self._schemes = list(partitioning_schemes or default_grid())
        self._encodings = list(encoding_schemes or paper_encoding_schemes())
        self._cost_model = cost_model
        self._seed = seed
        self._metrics = metrics
        self._store = BlotStore(dataset, cost_model=cost_model,
                                cache_bytes=cache_bytes)
        for scheme in self._schemes:
            for encoding in self._encodings:
                self._store.add_replica(scheme, encoding, InMemoryStore())
        self._names = sorted(self._store.replica_names())

    @property
    def store(self) -> BlotStore:
        """The grid store under test (one replica per grid cell)."""
        return self._store

    @property
    def replica_names(self) -> list[str]:
        return list(self._names)

    # -- bookkeeping --------------------------------------------------------

    def _check(self, report: VerificationReport, path: str, replica: str,
               query_index: int, box: Box3, expected: Dataset,
               got: Dataset) -> None:
        report.checks += 1
        if self._metrics is not None:
            self._metrics.counter("repro_verify_checks_total",
                                  labels={"path": path}).inc()
        diff = diff_results(expected, got)
        if diff is None:
            return
        report.mismatches.append(
            Mismatch(path=path, replica=replica, query_index=query_index,
                     box=box, diff=diff))
        if self._metrics is not None:
            self._metrics.counter(
                "repro_verify_mismatches_total",
                labels={"path": path, "replica": replica}).inc()

    def _check_count(self, report: VerificationReport, path: str,
                     replica: str, query_index: int, box: Box3,
                     expected: int, got: int) -> None:
        report.checks += 1
        if self._metrics is not None:
            self._metrics.counter("repro_verify_checks_total",
                                  labels={"path": path}).inc()
        if got == expected:
            return
        report.mismatches.append(Mismatch(
            path=path, replica=replica, query_index=query_index, box=box,
            diff=ResultDiff(expected_count=expected, got_count=got,
                            missing=(), extra=())))
        if self._metrics is not None:
            self._metrics.counter(
                "repro_verify_mismatches_total",
                labels={"path": path, "replica": replica}).inc()

    # -- the sweep ----------------------------------------------------------

    def query_boxes(self, n_random: int = 12) -> list[Box3]:
        """The default query set: random boxes plus boxes pinned exactly
        to partition boundaries and record coordinates."""
        first = self._store.replica(self._names[0])
        return [*random_boxes(self._dataset, n_random, self._seed),
                *edge_pinned_boxes(self._dataset,
                                   first.partitioning.boxes())]

    def run(self, boxes: Sequence[Box3] | None = None,
            paths: Sequence[str] = ALL_PATHS) -> VerificationReport:
        """Run the differential sweep; every mismatch lands in the report."""
        unknown = set(paths) - set(ALL_PATHS)
        if unknown:
            raise ValueError(f"unknown paths {sorted(unknown)}; "
                             f"have {list(ALL_PATHS)}")
        if boxes is None:
            boxes = self.query_boxes()
        boxes = list(boxes)
        oracles = [oracle_answer(self._dataset, box) for box in boxes]
        report = VerificationReport(
            replicas=tuple(self._names), paths=tuple(paths),
            n_queries=len(boxes))
        if "scalar" in paths:
            self._run_scalar(report, boxes, oracles)
        if "batch" in paths:
            self._run_batch(report, boxes, oracles)
        if "cached" in paths:
            self._run_cached(report, boxes, oracles)
        if "faulty" in paths:
            self._run_faulty(report, boxes, oracles)
        if "ingest" in paths:
            self._run_ingest(report, boxes, oracles)
        return report

    def _run_scalar(self, report, boxes, oracles) -> None:
        """Pinned scalar ``query()`` and ``count()`` on every replica,
        cache bypassed (the cold path of the seed engine)."""
        for name in self._names:
            for i, (box, want) in enumerate(zip(boxes, oracles)):
                got = self._store.query(box, replica=name,
                                        options=_NO_FAILOVER)
                self._check(report, "scalar", name, i, box, want, got.records)
                n, _ = self._store.count(box, replica=name,
                                         options=_NO_FAILOVER)
                self._check_count(report, "scalar", name, i, box,
                                  len(want), n)
        if self._cost_model is not None:
            for i, (box, want) in enumerate(zip(boxes, oracles)):
                got = self._store.query(box, options=_NO_FAILOVER)
                self._check(report, "scalar", "<routed>", i, box, want,
                            got.records)

    def _run_batch(self, report, boxes, oracles) -> None:
        """``execute_each`` pinned to each replica (and cost-routed
        ``execute_workload`` when a model exists)."""
        queries = [Query.from_box(box) for box in boxes]
        workload = Workload.unweighted(queries)
        # The batch path scans Range(q) of the positioned query, so its
        # oracle must too (Query.from_box().box() may differ from the
        # original box by one ulp; both sides must use the same bounds).
        batch_oracles = [oracle_answer(self._dataset, q.box())
                         for q in queries]
        for name in self._names:
            result = self._store.execute_each(workload, replica=name,
                                              options=_NO_FAILOVER)
            for i, got in enumerate(result.results):
                if isinstance(got, DegradedReadError):
                    raise got
                self._check(report, "batch", name, i, queries[i].box(),
                            batch_oracles[i], got.records)
        if self._cost_model is not None:
            result = self._store.execute_workload(workload)
            for i, got in enumerate(result.results):
                self._check(report, "batch", "<routed>", i,
                            queries[i].box(), batch_oracles[i], got.records)

    def _run_cached(self, report, boxes, oracles) -> None:
        """Cold pass populates the decoded-partition cache, warm pass is
        served from it; both must equal the oracle."""
        cache = self._store.partition_cache
        if cache is not None:
            cache.clear()
        for name in self._names:
            for label, path in (("cold", "cached"), ("warm", "cached")):
                for i, (box, want) in enumerate(zip(boxes, oracles)):
                    got = self._store.query(
                        box, replica=name,
                        options=ExecOptions(failover=False, repair=False,
                                            use_cache=True))
                    self._check(report, path, f"{name}[{label}]", i, box,
                                want, got.records)

    def _run_faulty(self, report, boxes, oracles) -> None:
        """Reads with an injected whole-replica outage and a dead
        partition: failover down the ranking must still produce oracle-
        identical answers."""
        injector = FaultInjector(seed=self._seed)
        dead = self._names[0]
        injector.fail_replica(dead)
        lame = self._names[1 % len(self._names)]
        if lame != dead:
            stored = self._store.replica(lame)
            pid = next((p for p, key in enumerate(stored.unit_keys)
                        if key is not None), None)
            if pid is not None:
                injector.fail_partition(lame, pid)
        self._store.set_fault_injector(injector)
        try:
            opts = ExecOptions(failover=True, repair=True, use_cache=False,
                               retries=1)
            for pin in (dead, lame):
                for i, (box, want) in enumerate(zip(boxes, oracles)):
                    got = self._store.query(box, replica=pin, options=opts)
                    self._check(report, "faulty", pin, i, box, want,
                                got.records)
        finally:
            self._store.set_fault_injector(None)
            cache = self._store.partition_cache
            if cache is not None:
                cache.clear()

    def _run_ingest(self, report, boxes, oracles) -> None:
        """Merged layer+buffer reads: split the dataset, append the tail
        in chunks (one out of time order), verify before and after
        compaction — then again through a windowed store that is closed
        and reopened.  Before compaction both folds also answer
        boxes whose faces sit exactly on a chunk's bounds, where the
        buffer decides to skip, take whole or filter a batch."""
        n = len(self._dataset)
        if n < 4:
            return
        ordered = self._dataset.sorted_by_time()
        cut = max(1, (n * 7) // 10)
        base = ordered.take(np.arange(cut))
        tail = ordered.take(np.arange(cut, n))
        specs = [
            ReplicaSpec(self._schemes[0], self._encodings[0], name="ing-a"),
            ReplicaSpec(self._schemes[-1], self._encodings[-1], name="ing-b"),
        ]
        third = max(1, len(tail) // 3)
        chunks = [tail.take(np.arange(lo, min(lo + third, len(tail))))
                  for lo in range(0, len(tail), third)]

        # Per chunk: its bounding box, and the universe cut to end at
        # (start at) the chunk's min (max) on one axis.
        u = self._dataset.bounding_box()
        edges = []
        for chunk in chunks:
            c = chunk.bounding_box()
            edges.append(c)
            for lo, hi in (("x_min", "x_max"), ("y_min", "y_max"),
                           ("t_min", "t_max")):
                edges += [replace(u, **{hi: getattr(c, lo)}),
                          replace(u, **{lo: getattr(c, hi)})]
        edge_oracles = [oracle_answer(self._dataset, box) for box in edges]

        # The ingest oracle is the *full* dataset: layer scans + buffer
        # filter must reconstruct it exactly, with no loss or double
        # counting at the compaction boundary.
        def check(store, phase, boxes=boxes, oracles=oracles, count=False):
            for spec in specs:
                for i, (box, want) in enumerate(zip(boxes, oracles)):
                    got = store.query(box, replica=spec.name)
                    self._check(report, "ingest", f"{spec.name}[{phase}]",
                                i, box, want, got.records)
                    if count:
                        n, _ = store.count(box, replica=spec.name)
                        self._check_count(report, "ingest",
                                          f"{spec.name}[{phase}]", i, box,
                                          len(want), n)

        with tempfile.TemporaryDirectory() as root:
            store = IngestingBlotStore(base, specs,
                                       wal_dir=os.path.join(root, "flat"))
            for chunk in [*chunks[1:], chunks[0]]:
                store.append(chunk)
            check(store, "buffered", count=True)
            check(store, "buffered-edges", edges, edge_oracles, count=True)
            store.compact()
            check(store, "compacted")
            store.close()

            # A quarter-span window puts the rollover inside the appended
            # tail, so the compaction seals windows and rewrites the base;
            # the reopened store serves those layers plus a
            # replayed-then-extended buffer.
            t = ordered.column("t")
            window = float(t[-1] - t[0]) / 4 or 1.0
            wal_dir = os.path.join(root, "windowed")
            store = IngestingBlotStore(base, specs, wal_dir=wal_dir,
                                       window_seconds=window)
            for chunk in chunks[:-1]:
                store.append(chunk)
            store.compact()
            store.close()
            store = IngestingBlotStore.open(wal_dir, specs,
                                            window_seconds=window)
            store.append(chunks[-1])
            check(store, "reopened")
            store.close()


def verify_dataset(
    dataset: Dataset,
    partitioning_schemes: Sequence[PartitioningScheme] | None = None,
    encoding_schemes: Sequence[EncodingScheme] | None = None,
    boxes: Sequence[Box3] | None = None,
    paths: Sequence[str] = ALL_PATHS,
    seed: int = 7,
    metrics=None,
) -> VerificationReport:
    """One-call differential sweep over the advisor grid of ``dataset``."""
    harness = DifferentialHarness(
        dataset, partitioning_schemes=partitioning_schemes,
        encoding_schemes=encoding_schemes, seed=seed, metrics=metrics)
    return harness.run(boxes=boxes, paths=paths)
