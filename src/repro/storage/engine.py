"""The BLOT storage engine: replicas + query processing (Section II-D).

``BlotStore`` manages the diverse replicas of one dataset and processes
range queries by the paper's three-step mechanism: find involved
partitions (the box-intersection pass that also counts Eq. 7's ``Np``),
read + decode each one, filter the records by the query range.  When
several replicas exist and a :class:`~repro.costmodel.CostModel` is
configured, each query is routed to the replica with the lowest
estimated cost (Figure 2's "replica selection at query time").

There is **one read pipeline** — plan → fetch → decode → filter → fold
(``docs/query_engine.md``) — and the public reads
(:class:`~repro.storage.reads.ReadSurface`) are folds over it:
``query`` is a batch of one with the *records* fold, ``count`` a batch
of one with the *counting* fold (its contained-partition metadata
answer is a plan-stage short-circuit), and ``execute_each`` /
``execute_workload`` hand it a whole workload, so a partition shared by
overlapping queries is fetched and decoded once.

Every unit is read on the calling thread.  The pipeline shares an
optional byte-budgeted :class:`~repro.storage.cache.PartitionCache` of
decoded partitions and one **failure path**: a partition read that stays
failed after the configured retries (an injected fault, a missing unit,
corrupt bytes) sends every request that needed it one step down its
Eq. 6–7 cost ranking (:class:`~repro.storage.failover.RankingWalk` —
the same walk the serving front door drives across shards).  When a
ranking is exhausted the engine attempts
:func:`~repro.storage.recovery.repair_partition` from a surviving
diverse replica, and only then answers that request with a structured
:class:`~repro.storage.faults.DegradedReadError` — degraded
configurations are a first-class state, not an exception trace.
Execution behavior (cache policy, retry/failover policy) is controlled uniformly by :class:`~repro.storage.options.ExecOptions`.

The whole read path is instrumented: with an
:class:`~repro.obs.Observability` bundle attached the engine publishes
counters/sketches into its metrics registry, records (predicted
Eq. 7, measured) cost pairs into its drift monitor, and — per call,
when ``ExecOptions.trace`` is set — collects ``route`` →
``scan[partition]`` → ``decode``/``cache``/``retry``/``failover``/
``repair`` spans into its trace recorder.  With no bundle attached the
engine holds the no-op recorder and skips every publication, so the
un-instrumented path costs one ``None`` check per call
(``docs/observability.md``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.costmodel.model import CostModel, RoutingPlan
from repro.data.dataset import Dataset
from repro.data.record import FIELDS
from repro.encoding.base import EagerPartitionReader, EncodingScheme
from repro.geometry import Box3, boxes_intersect_matrix
from repro.geometry.box import boxes_within_mask
from repro.obs import Observability
from repro.obs.trace import NULL_RECORDER
from repro.partition.base import PartitioningScheme
from repro.errors import (
    DegradedReadError,
    InjectedFault,
    PartitionReadError,
    ReplicaExists,
)
from repro.storage.cache import CacheStats, PartitionCache
from repro.storage.failover import RankingWalk
from repro.storage.faults import FaultInjector
from repro.storage.options import DEFAULT_EXEC_OPTIONS, ExecOptions
from repro.storage.reads import (
    QueryResult,
    QueryStats,
    ReadRequest,
    ReadSurface,
    WorkloadStats,
    positioned_requests,
)
from repro.storage.recovery import RecoveryError, repair_partition_any
from repro.storage.replica import StoredReplica, build_replica
from repro.storage.unit import UnitStore
from repro.workload.query import Query, Workload

import numpy as np

#: Columns beyond the (x, y, t) filter set — what the lazy scan avoids
#: decoding when no row of a partition survives the range mask.
_N_OTHER_COLUMNS = len(FIELDS) - 3


@dataclass(slots=True)
class _Accounting:
    """One execution call's running totals, added to as each unit is
    read."""

    retries: int = 0
    failovers: int = 0
    repairs: int = 0
    #: Unique store fetches — including ones whose requests later failed
    #: over — and how many of them decoded a unit.
    bytes_read: int = 0
    units_decoded: int = 0
    failed_replicas: set[str] = field(default_factory=set)


class _DecodeTelemetry:
    """Per-column-block decode hook the engine hands to
    :meth:`EncodingScheme.open`: one counter bump and one sketch
    observation per column block actually decoded (metric objects are
    internally locked, so concurrent reads may share it)."""

    __slots__ = ("_metrics", "_by_kind")

    def __init__(self, metrics) -> None:
        self._metrics = metrics
        # Per-kind (counter, sketch) handles, resolved once: this
        # fires per column block, and registry lookups cost more than
        # the increment.  A racing first-miss resolves to the same
        # registry objects, so the benign overwrite is harmless.
        self._by_kind: dict[str, tuple] = {}

    def column_decoded(self, kind: str, seconds: float) -> None:
        pair = self._by_kind.get(kind)
        if pair is None:
            pair = (
                self._metrics.counter(
                    "repro_columns_decoded_total", labels={"kind": kind}),
                self._metrics.quantile_sketch(
                    "repro_decode_seconds", labels={"kind": kind}),
            )
            self._by_kind[kind] = pair
        pair[0].inc()
        pair[1].observe(seconds)


@dataclass(slots=True)
class _Read:
    """A request in flight: its slot in the call (its row of every
    intersect matrix), its failover walk, and the matrices its routing
    priced the call with, by name — ``(replica object, matrix)``, shared
    by every read of the call (see :meth:`BlotStore._rank`)."""

    index: int
    request: ReadRequest
    walk: RankingWalk
    routed: dict[str, tuple[StoredReplica, np.ndarray]]


class BlotStore(ReadSurface):
    """A single-node BLOT system instance over one logical dataset.

    ``dataset`` is the records, or — for a store over replicas that
    already exist — a zero-argument loader of them
    (``StoreConfig.load_dataset``): such a store holds no raw copy,
    takes its record count and universe from the first replica
    registered, and calls the loader whenever :attr:`dataset` is read.

    ``cache_bytes`` enables the decoded-partition LRU cache shared by
    every read (see :class:`ReadSurface` for ``query`` / ``count`` /
    ``execute_workload`` / ``execute_each``); ``None`` keeps
    the seed behavior of decoding on every access.  ``fault_injector``
    routes every storage unit read through a
    :class:`~repro.storage.faults.FaultInjector` (used by failure drills
    and tests; ``None`` — the default — costs nothing).
    """

    def __init__(
        self,
        dataset: Dataset | Callable[[], Dataset],
        cost_model: CostModel | None = None,
        cache_bytes: int | None = None,
        fault_injector: FaultInjector | None = None,
        observability: Observability | None = None,
    ):
        if isinstance(dataset, Dataset):
            if len(dataset) == 0:
                raise ValueError("BlotStore needs a non-empty dataset")
            self._dataset, self._load_dataset = dataset, None
            self._n_records: int | None = len(dataset)
            self._universe: Box3 | None = dataset.bounding_box()
        else:
            # Measured by the first register_replica: every replica of a
            # set shares one record count and universe.
            self._dataset, self._load_dataset = None, dataset
            self._n_records = self._universe = None
        # The serving set, never mutated: register / retire build
        # a new mapping under ``_replicas_lock`` and publish it with one
        # assignment, and a read takes ``self._replicas`` into a local
        # once, so it routes against exactly one published set.
        self._replicas: Mapping[str, StoredReplica] = {}
        self._replicas_lock = threading.Lock()
        self._cost_model = cost_model
        self._obs = observability
        metrics = observability.metrics if observability is not None else None
        self._cache = (PartitionCache(cache_bytes, metrics=metrics)
                       if cache_bytes else None)
        self._faults = fault_injector
        if fault_injector is not None and metrics is not None:
            fault_injector.bind_metrics(metrics)
        self._decode_tel = (_DecodeTelemetry(metrics)
                            if metrics is not None else None)
        # Hot-path counter handles by name (see _bump).
        self._counter_memo: dict[str, object] = {}

    def __reduce__(self):
        raise TypeError(
            "BlotStore holds live handles (mmap views, telemetry "
            "recorders) and cannot be pickled.  Ship a "
            "repro.storage.StoreConfig across the process boundary and "
            "rehydrate with open_store(config) in the worker instead."
        )

    # -- replica management -------------------------------------------------

    @property
    def dataset(self) -> Dataset:
        """The logical dataset — held in memory when the store was built
        from one, loaded anew on every read otherwise."""
        if self._dataset is not None:
            return self._dataset
        return self._load_dataset()

    @property
    def universe(self) -> Box3:
        return self._universe

    @property
    def partition_cache(self) -> PartitionCache | None:
        return self._cache

    @property
    def fault_injector(self) -> FaultInjector | None:
        return self._faults

    @property
    def observability(self) -> Observability | None:
        """The telemetry bundle the engine publishes into (None when the
        store runs un-instrumented)."""
        return self._obs

    @property
    def cost_model(self) -> CostModel | None:
        """The routing cost model — exposed so the closed telemetry
        loop (``Observability.attach_recalibrator``) can hot-swap
        calibrated constants on the model the engine actually routes
        with."""
        return self._cost_model

    def set_fault_injector(self, injector: FaultInjector | None) -> None:
        """Attach (or detach, with None) a fault injector to the store
        and every registered replica."""
        self._faults = injector
        if injector is not None and self._obs is not None:
            injector.bind_metrics(self._obs.metrics)
        for stored in self._replicas.values():
            stored.attach_fault_injector(injector)

    def cache_stats(self) -> CacheStats | None:
        """Lifetime counters of the decoded-partition cache (None when
        no cache is configured)."""
        return self._cache.stats() if self._cache is not None else None

    def replica_names(self) -> list[str]:
        return list(self._replicas)

    def replica(self, name: str) -> StoredReplica:
        return _named(self._replicas, name)

    def add_replica(
        self,
        scheme: PartitioningScheme,
        encoding: EncodingScheme,
        store: UnitStore,
        name: str | None = None,
    ) -> StoredReplica:
        """Build and register a diverse replica of the dataset."""
        replica = build_replica(
            self.dataset, scheme, encoding, store, name=name, universe=self._universe
        )
        return self.register_replica(replica)

    def register_replica(self, replica: StoredReplica) -> StoredReplica:
        """Register an already-built replica (e.g. one reopened from a
        manifest)."""
        with self._replicas_lock:
            if replica.name in self._replicas:
                raise ReplicaExists(f"replica {replica.name!r} already exists")
            if self._universe is None:
                self._n_records = int(replica.partitioning.counts.sum())
                self._universe = replica.partitioning.universe
            if self._faults is not None:
                replica.attach_fault_injector(self._faults)
            self._replicas = {**self._replicas, replica.name: replica}
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_replica_changes_total",
                labels={"op": "register", "replica": replica.name}).inc()
        return replica

    def retire_replica(self, name: str) -> StoredReplica:
        """Hot-remove a replica from the serving set.

        The replica drops out of routing immediately (``route`` /
        ``route_workload`` recompute from the live set on every call),
        and its decoded-partition cache entries are dropped to reclaim
        memory.  Read memos are keyed by the replica object, so a
        replica later registered under the same name never sees this
        one's.  A read that ranked its replicas a moment before the
        retire fails over down each query's Eq. 6-7 ranking instead of
        erroring.  Returns
        the retired replica (the caller owns the underlying storage
        units and decides when to delete them).
        """
        with self._replicas_lock:
            stored = self.replica(name)  # KeyError early on unknown names
            if len(self._replicas) == 1:
                raise ValueError(
                    f"cannot retire {name!r}: it is the last replica")
            self._replicas = {n: r for n, r in self._replicas.items()
                              if n != name}
        if self._cache is not None:
            self._cache.invalidate_replica(stored.serial)
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_replica_changes_total",
                labels={"op": "retire", "replica": name}).inc()
        return stored

    def total_storage_bytes(self) -> int:
        """``Storage(R)`` over all registered replicas (Definition 5)."""
        return sum(r.storage_bytes() for r in self._replicas.values())

    # -- routing ---------------------------------------------------------------

    def route(self, query: Query) -> str:
        """Pick the replica with the lowest estimated cost for ``query``:
        the head of :meth:`route_ranked`.

        Requires a cost model when more than one replica exists; with a
        single replica routing is trivial.  Equal-cost ties break
        deterministically toward the lexicographically smallest replica
        name, so routing never depends on replica registration order.
        """
        return self.route_ranked(query)[0]

    def route_ranked(self, query: Query) -> list[str]:
        """Every replica ranked by estimated Eq. 7 cost for ``query`` —
        cheapest first, ties toward the lexicographically smallest name.
        The head is what :meth:`route` returns; the tail is the failover
        order the engine walks when the assigned replica fails.
        """
        (read,), _ = self._rank([ReadRequest.of(query)], DEFAULT_EXEC_OPTIONS)
        return list(read.walk.ranking)

    def route_workload(self, workload: Workload) -> RoutingPlan:
        """Route a workload of positioned queries in one pass: the
        :class:`~repro.costmodel.RoutingPlan` whose ``ranking_for(i)``
        is :meth:`route_ranked` of query ``i``."""
        return self._rank(positioned_requests(workload),
                          DEFAULT_EXEC_OPTIONS)[1]

    def _rank(self, requests: list[ReadRequest], opts: ExecOptions,
              replica: str | None = None,
              ) -> tuple[list[_Read], RoutingPlan]:
        """The plan stage's routing half, and the one place a replica
        ranking is made: one :class:`_Read` per request, walking its
        ranking, plus the plan over the replicas considered (columns in
        name order, each request's Eq. 7 cost on each).

        Every considered replica gets one intersect pass over the
        requests' exact boxes: a mask row's count is the request's
        ``Np``, and the row is what :meth:`_plan` plans from.  The
        ranking is a stable argsort of the costs, so equal costs go to
        the smaller name.  A pin takes the first slot, the rest following
        in cost order (name order without a cost model).  With failover
        off a ranking has length one, and a pinned read intersects only
        the pinned replica.  A cost is NaN where an encoding has no
        Eq. 6 row and nothing needed ranking.  Everything here reads one
        published serving set; a replica retired after that is
        :meth:`_run`'s to fail over."""
        replicas = self._replicas
        if not replicas:
            raise ValueError("no replicas registered")
        model = self._cost_model
        names = sorted(replicas)
        if replica is not None:
            _named(replicas, replica)  # raise KeyError early on unknown names
            if not opts.failover:
                names = [replica]
        elif len(names) > 1 and model is None:
            raise ValueError(
                "multiple replicas but no cost model configured; pass "
                "replica= or construct BlotStore with a cost model")
        by_cost = model is not None and len(names) > 1
        boxes = np.array([r.box.as_tuple() for r in requests],
                         dtype=np.float64).reshape(-1, 6)
        costs = np.full((len(requests), len(names)), np.nan)
        masks: dict[str, tuple[StoredReplica, np.ndarray]] = {}
        for j, name in enumerate(names):
            stored = replicas[name]
            rows = boxes_intersect_matrix(stored.partitioning.box_array, boxes)
            masks[name] = (stored, rows)
            if model is None:
                continue
            # A batch of one is counted and priced in Python floats: on
            # one-element arrays numpy's per-call cost is most of routing.
            found = (float(np.count_nonzero(rows)) if len(rows) == 1
                     else rows.sum(axis=1))
            try:
                costs[:, j] = model.involved_cost(
                    found, stored.profile(n_records=self._n_records))
            except KeyError:  # no Eq. 6 row for this encoding
                if by_cost:
                    raise
        if by_cost:
            order = np.argsort(costs, axis=1, kind="stable")
            rankings = [[names[j] for j in row] for row in order.tolist()]
            assigned = order[:, 0]
        else:
            rankings = [names] * len(requests)
            assigned = np.zeros(len(requests), np.intp)
        if replica is not None:
            assigned = np.full(len(requests), names.index(replica), np.intp)
            rankings = [[replica] + [n for n in row if n != replica]
                        for row in rankings]
        if not opts.failover:
            rankings = [row[:1] for row in rankings]
        return ([_Read(i, request, RankingWalk(ranking), masks)
                 for i, (request, ranking)
                 in enumerate(zip(requests, rankings))],
                RoutingPlan(tuple(names), assigned, costs))

    # -- the read pipeline: plan -> fetch -> decode -> filter -> fold ----------

    def close(self) -> None:
        """Kept for callers that close a store when done with it.  Reads
        run on the caller's thread and hold nothing between calls, so
        this releases nothing and the store stays usable."""

    def _recorder(self, opts: ExecOptions):
        """The trace recorder for one call: the store's real recorder
        when telemetry is attached and ``opts.trace`` is set, the
        shared no-op recorder otherwise."""
        if self._obs is not None and opts.trace:
            return self._obs.tracer
        return NULL_RECORDER

    def _execute(self, requests: list[ReadRequest], opts: ExecOptions, *,
                 batch: bool, replica: str | None = None,
                 ) -> tuple[list, RoutingPlan, WorkloadStats | None]:
        """The single read entry behind ``query`` / ``count`` /
        ``execute_each``: route, run the pipeline, publish telemetry.

        Returns one outcome per request — a :class:`QueryResult` or the
        :class:`DegradedReadError` that request ended in — plus the
        routing plan and, for a batch, the aggregate stats.  ``batch``
        only picks the call's *shape*: a ``workload`` root span with a
        ``query[kind=workload]`` child per request and per-request
        ``seconds`` that exclude the shared unit reads, versus one
        ``query`` root span whose ``seconds`` cover the whole scan (what
        Eq. 7 calibration fits).  The work is the same loop either way.
        """
        rec = self._recorder(opts)
        acct = _Accounting()
        cache_before = (self._cache.stats()
                        if batch and self._cache is not None else None)
        start = time.perf_counter()
        if batch:
            root = rec.start("workload", context=opts.trace_context,
                             n_queries=len(requests))
        else:
            root = rec.start("query", context=opts.trace_context,
                             kind="count" if requests[0].count else "query")
        with root:
            if batch and replica is not None:
                # Every query pinned, like query(replica=): no route span.
                reads, plan = self._rank(requests, opts, replica)
            elif batch:
                with rec.start("route", parent=root, batch=True):
                    reads, plan = self._rank(requests, opts)
            else:
                with rec.start("route", parent=root) as route_span:
                    reads, plan = self._rank(requests, opts, replica)
                    route_span.annotate(candidates=list(reads[0].walk.ranking))
            outcomes = self._run(reads, opts, acct, rec, root, batch)
            served = [(i, o.stats) for i, o in enumerate(outcomes)
                      if isinstance(o, QueryResult)]
            if len(served) < len(outcomes):
                error = next(o for o in outcomes
                             if isinstance(o, DegradedReadError))
                root.annotate(error=f"{type(error).__name__}: {error}")
            stats = None
            if batch:
                stats = self._workload_stats(
                    served, len(outcomes), plan, acct, cache_before,
                    time.perf_counter() - start)
            elif served:
                root.annotate(replica=served[0][1].replica_name)
            if self._obs is not None:
                self._publish(self._obs, requests, served, acct, plan,
                              stats.seconds if batch else None)
            return outcomes, plan, stats

    def _run(self, reads: list[_Read], opts: ExecOptions, acct: _Accounting,
             rec, root, batch: bool) -> list:
        """The pipeline loop: group pending requests by the replica
        their walk currently points at, serve each group in one round
        (:meth:`_scan_replica`), and step every failed request down its
        ranking until it is served, repaired or exhausted."""
        outcomes: list = [None] * len(reads)
        pending = reads
        while pending:
            groups: dict[str, list[_Read]] = {}
            for read in pending:
                groups.setdefault(read.walk.current, []).append(read)
            pending = []
            for name in sorted(groups):
                group = groups[name]
                # Resolved against the *current* set, not the one the
                # ranking was computed from: that is what turns a stale
                # plan into a failover.
                stored = self._replicas.get(name)
                if stored is None:
                    # Retired between routing and serving (a plan that
                    # predates a hot retire): fail over like a
                    # replica-scope read failure.
                    served = [KeyError(name)] * len(group)
                else:
                    served = self._scan_replica(stored, group, opts, acct,
                                                rec, root, batch)
                for read, result in zip(group, served):
                    if isinstance(result, QueryResult):
                        outcomes[read.index] = result
                        continue
                    fallback = read.walk.fail(result)
                    if fallback is None:
                        repaired = self._repair_and_rescan(
                            read, opts, acct, rec, root, batch)
                        what = (f"workload query {read.index}" if batch else
                                "count query" if read.request.count
                                else "range query")
                        outcomes[read.index] = repaired or read.walk.degraded(
                            f"{what} could not be served by any replica")
                        continue
                    acct.failovers += 1
                    rec.event("failover", parent=root, query=read.index,
                              failed_replica=name, fallback=fallback,
                              cause=("retired" if isinstance(result, KeyError)
                                     else "read"))
                    pending.append(read)
        return outcomes

    def _repair_and_rescan(self, read: _Read, opts: ExecOptions,
                           acct: _Accounting, rec, root,
                           batch: bool) -> QueryResult | None:
        """Exhaustion path: repair the cheapest partition-level-failed
        replica unit by unit from the surviving replicas, then rescan.

        Whole-replica outages are skipped (there is no unit to rewrite on
        a dead node).  Returns None — leaving the walk's attempt trail
        grown with the repair failures — when nothing could be restored.
        """
        if not opts.repair:
            return None
        attempts = read.walk.attempts
        replicas = self._replicas
        target: StoredReplica | None = None
        for name, err in attempts:
            if (isinstance(err, PartitionReadError) and not err.replica_failed
                    and name in replicas):  # not retired since it failed
                target = replicas[name]
                break
        if target is None:
            return None
        sources = [replicas[n] for n in sorted(replicas) if n != target.name]
        # Each pass repairs the first failed unit the scan trips on; a
        # query involves finitely many partitions, so bound the loop.
        for _ in range(target.n_partitions + 1):
            (result,) = self._scan_replica(target, [read], opts, acct,
                                           rec, root, batch)
            if isinstance(result, QueryResult):
                return result
            if result.replica_failed or result.partition_id is None:
                attempts.append((target.name, result))
                return None
            with rec.start("repair", parent=root, replica=target.name,
                           partition=result.partition_id) as repair_span:
                try:
                    repair_partition_any(target, result.partition_id, sources)
                except (RecoveryError, ValueError) as recovery_err:
                    repair_span.annotate(outcome="failed")
                    attempts.append((target.name, recovery_err))
                    return None
                repair_span.annotate(outcome="repaired")
            acct.repairs += 1
            if self._faults is not None:
                self._faults.heal_partition(target.name, result.partition_id)
            if self._cache is not None:
                self._cache.invalidate((target.serial, result.partition_id))
        return None

    def _plan(self, stored: StoredReplica, read: _Read,
              ) -> tuple[list[int], list[bool], int, int]:
        """Plan stage for one request on one replica: the partitions to
        read, whether the query box *contains* each (canonical placement
        then guarantees every record of it matches, so the filter can be
        skipped), the ``partitions_involved`` figure, and the records
        answered without reading anything.

        The involved partitions come from the request's row of
        ``read.routed`` when routing priced this very replica object; a
        replica re-registered under the same name since is planned on
        its own boxes, with one intersection pass.

        The records fold reads every involved partition.  The counting
        fold short-circuits here: a contained partition contributes its
        metadata record count, so only boundary partitions — intersected
        but not contained — go on to be read.
        """
        request = read.request
        box = request.box
        hit = read.routed.get(stored.name)
        ids = (np.flatnonzero(hit[1][read.index])
               if hit is not None and hit[0] is stored
               else stored.involved_partitions(box))
        keys = stored.unit_keys
        within = boxes_within_mask(stored.partitioning.box_array[ids], box)
        involved = ids.tolist()
        inside = [whole and keys[pid] is not None
                  for pid, whole in zip(involved, within.tolist())]
        if not request.count:
            return involved, inside, len(involved), 0
        # Fail fast even when the count needs no boundary decodes:
        # metadata-only answers must not be served from a dead node.
        self._check_replica_up(stored, None)
        counts = stored.partitioning.counts
        boundary: list[int] = []
        from_metadata = answered = 0
        for pid, whole in zip(involved, inside):
            if whole:
                from_metadata += int(counts[pid])
                answered += 1
            elif keys[pid] is not None:
                boundary.append(pid)
        self._bump("repro_count_metadata_partitions_total", answered)
        return boundary, [False] * len(boundary), len(boundary), from_metadata

    def _scan_replica(self, stored: StoredReplica, reads: list[_Read],
                      opts: ExecOptions, acct: _Accounting, rec, root,
                      batch: bool) -> list:
        """One round of the paper's three-step mechanism on one replica,
        for every request currently pointed at it: plan each request,
        then read every involved unit **once**, in partition-id order
        (:meth:`_scan_unit`), folding it into each request that needed
        it as soon as it is read.

        Returns, per request, a :class:`QueryResult` or the
        :class:`PartitionReadError` of the first (lowest-id) unit it
        needed that stayed failed.  Records match a sequential scan
        exactly, order included: partition-id order is the order the
        index reports them.  Each store fetch is charged
        (``bytes_read``) to the first served request that needed the
        unit.
        """
        start = time.perf_counter()
        name = stored.name
        n = len(reads)
        failed: dict[int, PartitionReadError] = {}  # position -> cause
        plans: list[tuple[int, int]] = []   # (partitions_involved, from_metadata)
        #: pid -> (position in ``reads``, box contains the partition)
        wanted: dict[int, list[tuple[int, bool]]] = {}
        for k, read in enumerate(reads):
            try:
                pids, inside, n_involved, from_metadata = self._plan(
                    stored, read)
            except PartitionReadError as err:
                failed[k] = err
                self._note_read_failure(stored, err, acct)
                pids, inside, n_involved, from_metadata = (), (), 0, 0
            plans.append((n_involved, from_metadata))
            for pid, whole in zip(pids, inside):
                wanted.setdefault(pid, []).append((k, whole))

        # Per request: records scanned, own filter seconds and the
        # matched parts, accumulated in partition-id order.
        scanned_of, own = [0] * n, [0.0] * n
        matches: list[list] = [[] for _ in reads]
        fetches: list[tuple[int, list]] = []  # (bytes, takers) per fetch
        for pid in sorted(wanted):
            takers = wanted[pid]
            if failed and all(k in failed for k, _ in takers):
                continue  # nobody left to answer: skip the read
            with rec.start("scan", parent=root, replica=name,
                           partition=pid) as scan_span:
                try:
                    scanned_unit = self._scan_unit(
                        stored, pid, [reads[k].request for k, _ in takers],
                        [whole for _, whole in takers], opts, acct, rec,
                        scan_span)
                except PartitionReadError as err:
                    scan_span.annotate(error=f"{type(err).__name__}: {err}")
                    self._note_read_failure(stored, err, acct)
                    for k, _ in takers:
                        failed.setdefault(k, err)
                    continue
                if scanned_unit is None:
                    continue
                nbytes, answers = scanned_unit
                if rec.enabled:
                    scan_span.annotate(bytes=nbytes, records=max(
                        scanned for scanned, _, _ in answers))
            if nbytes:
                fetches.append((nbytes, takers))
            for (k, _), (scanned, matched, seconds) in zip(takers, answers):
                if k in failed:
                    continue
                scanned_of[k] += scanned
                own[k] += seconds
                if matched is not None:  # None: no match, nothing to fold
                    matches[k].append(matched)
        # A fetch is charged once, to the first of its requests that is
        # served: one that fails on a later unit is not.
        charged = [0] * n
        for nbytes, takers in fetches:
            k = next((k for k, _ in takers if k not in failed), None)
            if k is not None:
                charged[k] += nbytes

        results: list = []
        total_records = self._n_records
        for k, read in enumerate(reads):
            if k in failed:
                results.append(failed[k])
                continue
            fold_start = time.perf_counter()
            span = (rec.start("query", parent=root, kind="workload",
                              query=read.index, replica=name)
                    if batch else None)
            n_involved, from_metadata = plans[k]
            if read.request.count:
                answer = returned = from_metadata + sum(matches[k])
            else:
                # One matching partition needs no concatenation (datasets
                # are immutable by convention, so sharing it is safe).
                answer = (matches[k][0] if len(matches[k]) == 1
                          else Dataset.concat(matches[k]))
                returned = len(answer)
            now = time.perf_counter()
            if batch:
                # Shared unit reads belong to no one query: a batched
                # query's time is its own filter + fold work.
                seconds = now - fold_start + own[k]
                span.annotate(records_returned=returned)
                span.finish()
            else:
                seconds = now - start
            results.append(QueryResult(records=answer, stats=QueryStats(
                replica_name=name,
                partitions_involved=n_involved,
                records_scanned=scanned_of[k],
                records_returned=returned,
                bytes_read=charged[k],
                seconds=seconds,
                total_records=total_records,
                # A scalar call's retries are its one request's retries.
                retries=0 if batch else acct.retries,
                failovers=read.walk.hops,
            )))
        return results

    def _check_replica_up(self, stored: StoredReplica, pid: int | None) -> None:
        """Fail fast on a whole-replica outage — before the cache is
        consulted (the node's memory is as gone as its disks) and without
        retries."""
        faults = self._faults
        if faults is not None and faults.replica_failed(stored.name):
            fault = InjectedFault(stored.name, pid, scope="replica")
            raise PartitionReadError(stored.name, pid, fault) from fault

    def _note_read_failure(self, stored: StoredReplica,
                           err: PartitionReadError,
                           acct: _Accounting) -> None:
        """Invalidate the cache entries a failed read of ``stored`` makes
        suspect — the whole replica on a replica-level outage, the single
        unit otherwise — and remember replicas observed down."""
        if err.replica_failed:
            acct.failed_replicas.add(err.replica_name)
        if self._cache is None:
            return
        if err.replica_failed:
            self._cache.invalidate_replica(stored.serial)
        elif err.partition_id is not None:
            self._cache.invalidate((stored.serial, err.partition_id))

    def _scan_unit(self, stored: StoredReplica, pid: int,
                   asks: list[ReadRequest], contained: list[bool],
                   opts: ExecOptions, acct: _Accounting, rec, scan_span):
        """Read one storage unit once and answer every request that
        touches it (``contained[j]``: ``asks[j]``'s box contains the whole
        partition); returns ``(bytes_read, answers)`` — ``answers[j]``
        is ``(records_scanned, matched, seconds)`` for ``asks[j]`` — or
        None for an empty partition (no storage unit, or one another
        shard owns).  The fetch and its retries are added to ``acct``.
        Raises :class:`PartitionReadError` when the read stays failed
        after retries.

        With a cache, memoized zone bounds that rule out every request
        answer without a lookup — the memo extends the cache's "repeat
        reads are free" contract to partitions the cache never stores
        because the zone map pruned them (without a cache every query
        pays its reads, so the memo only short-circuits then) — and a
        cached partition is filtered in memory at zero bytes read.
        Otherwise the unit is fetched, opened and evaluated under the
        retry contract of :meth:`_read_unit`.  The cache stores full
        partitions only, so with a cache a fetched unit is always decoded
        fully, whatever :meth:`_evaluate` needed.
        """
        key = stored.unit_keys[pid]
        if key is None:
            return None
        self._check_replica_up(stored, pid)
        slot = (stored.serial, pid)
        use_cache = self._cache is not None and opts.use_cache
        if use_cache:
            pruned = self._pruned(stored.zone_memo.get(pid), asks, contained)
            if all(pruned):
                self._bump("repro_partitions_pruned_total", len(asks))
                rec.event("prune", parent=scan_span, source="zone-memo")
                return 0, [(0, 0 if ask.count else None, 0.0)
                           for ask in asks]
            hit = self._cache.get(slot)
            rec.event("cache", parent=scan_span,
                      outcome="hit" if hit is not None else "miss")
            if hit is not None:
                reader = EagerPartitionReader(lambda: hit)
                return 0, self._evaluate(reader, asks, contained, pruned)[0]

        def work(decode_span):
            blob = stored.store.get_view(key)
            reader = stored.encoding.open(blob, self._decode_tel)
            zones = ((reader.zone("x"), reader.zone("y"), reader.zone("t"))
                     if reader.lazy else None)
            stored.zone_memo[pid] = zones
            answers, consulted = self._evaluate(
                reader, asks, contained, self._pruned(zones, asks, contained))
            full = None
            if consulted != "nothing" and use_cache:
                full = reader.dataset()
            elif consulted == "xyt" and reader.lazy:
                self._bump("repro_columns_skipped_total", _N_OTHER_COLUMNS)
            decode_span.annotate(
                bytes=len(blob), consulted=consulted,
                records=reader.n_records if consulted != "nothing" else 0)
            return full, len(blob), answers

        full, nbytes, answers = self._read_unit(
            stored, pid, opts, acct, rec, scan_span, work)
        acct.bytes_read += nbytes
        acct.units_decoded += nbytes > 0
        if full is not None:
            self._cache.put(slot, full)
        return nbytes, answers

    @staticmethod
    def _pruned(zones, asks: list[ReadRequest],
                contained: list[bool]) -> list[bool]:
        """Per request: do the partition's (x, y, t) zone bounds —
        ``None`` for formats without zone maps — prove that no record can
        fall inside the closed query box?"""
        if zones is None:
            return [False] * len(asks)
        zx, zy, zt = zones
        flags = []
        for ask, inside in zip(asks, contained):
            box = ask.box
            flags.append(not inside and (
                (zx is not None and (zx[1] < box.x_min or zx[0] > box.x_max))
                or (zy is not None and (zy[1] < box.y_min or zy[0] > box.y_max))
                or (zt is not None and (zt[1] < box.t_min or zt[0] > box.t_max))))
        return flags

    def _evaluate(self, reader, asks: list[ReadRequest], contained: list[bool],
                  pruned: list[bool]) -> tuple[list[tuple], str]:
        """The filter stage: evaluate every request against one opened
        partition, decoding as little as possible.  Returns the answers
        and what had to be consulted: ``"nothing"``, ``"xyt"`` (the
        filter columns only) or ``"rows"`` (the full partition).

        - **contained** — canonical placement guarantees every record
          matches: all rows, no mask.
        - **zone-pruned** — nothing decoded, nothing scanned.
        - **masked** — decode ``x``/``y``/``t`` (on a columnar v2 blob
          only those; row and v1 blobs decode whole) and evaluate the
          range mask; the counting fold stops there, the records fold
          decodes the remaining columns only when some row survives.

        The mask is the exact :meth:`Dataset.mask_box` expression and row
        order is preserved, so results are bit-identical on every branch.
        """
        answers = []
        xyt = None
        consulted = "nothing"
        lazy = reader.lazy
        for ask, inside, gone in zip(asks, contained, pruned):
            t0 = time.perf_counter()
            if inside:
                rows = reader.dataset()
                consulted = "rows"
                scanned, matched = len(rows), (len(rows) if ask.count
                                               else rows)
            elif gone:
                self._bump("repro_partitions_pruned_total")
                scanned, matched = 0, (0 if ask.count else None)
            else:
                if xyt is None:
                    xyt = [reader.decode_column(c) for c in ("x", "y", "t")]
                    if consulted == "nothing":
                        consulted = "xyt"
                x, y, t = xyt
                box = ask.box
                mask = (
                    (x >= box.x_min) & (x <= box.x_max)
                    & (y >= box.y_min) & (y <= box.y_max)
                    & (t >= box.t_min) & (t <= box.t_max)
                )
                scanned = len(x)
                if ask.count:
                    matched = int(mask.sum())
                elif lazy and not mask.any():
                    matched = None  # the other columns stay undecoded
                else:
                    matched = reader.dataset().take(mask)
                    consulted = "rows"
            answers.append((scanned, matched, time.perf_counter() - t0))
        return answers, consulted

    def _read_unit(self, stored: StoredReplica, pid: int,
                   opts: ExecOptions, acct: _Accounting, rec, parent, work):
        """Run ``work(decode_span)`` — one unit's fetch+decode — under the
        engine's fault contract: injected faults fire first, a transient
        failure is retried at once, up to ``opts.retries`` times (each
        retry counted in ``acct`` and traced as a ``retry`` span), and a
        read that stays failed raises
        :class:`~repro.storage.faults.PartitionReadError`.  Replica-scope
        faults are never retried.  Returns ``work``'s result.
        """
        faults = self._faults
        failures = 0
        while True:
            try:
                with rec.start("decode", parent=parent) as decode_span:
                    if faults is not None:
                        faults.on_read(stored.name, pid)
                    return work(decode_span)
            except Exception as exc:
                if isinstance(exc, InjectedFault) and exc.scope == "replica":
                    raise PartitionReadError(
                        stored.name, pid, exc, failures + 1) from exc
                failures += 1
                if failures > opts.retries:
                    raise PartitionReadError(
                        stored.name, pid, exc, failures) from exc
                acct.retries += 1
                rec.event("retry", parent=parent, attempt=failures,
                          cause=type(exc).__name__)

    def _bump(self, name: str, amount: int = 1) -> None:
        """Increment a fast-path counter (no-op without telemetry).
        Handles are memoized per name — pruning checks fire per
        partition per query, and the registry lookup dominates the
        increment (a racing first-miss resolves to the same registry
        object, so the benign overwrite is harmless)."""
        if self._obs is not None and amount:
            counter = self._counter_memo.get(name)
            if counter is None:
                counter = self._obs.metrics.counter(name)
                self._counter_memo[name] = counter
            counter.inc(amount)

    # -- telemetry and accounting -----------------------------------------------

    def _publish(self, obs: Observability, requests: list[ReadRequest],
                 served: list[tuple[int, QueryStats]], acct: _Accounting,
                 plan: RoutingPlan, batch_seconds: float | None) -> None:
        """Publish one call into the telemetry bundle: the counters, the
        latency sketch of its shape, and one (predicted Eq. 7,
        measured seconds) drift pair per served request, for the replica
        that actually served it — the raw material of Section IV-B
        recalibration decisions."""
        m = obs.metrics
        batch = batch_seconds is not None
        path = ("workload" if batch
                else "count" if requests[0].count else "query")
        m.counter("repro_queries_total", labels={"path": path}).inc(
            len(served))
        by_replica: dict[str, list[int]] = {}
        for i, s in served:
            by_replica.setdefault(s.replica_name, []).append(i)
        for name, idxs in by_replica.items():
            m.counter("repro_queries_by_replica_total",
                      labels={"replica": name}).inc(len(idxs))
        m.counter("repro_bytes_read_total").inc(acct.bytes_read)
        m.counter("repro_records_scanned_total").inc(
            sum(s.records_scanned for _, s in served))
        m.counter("repro_partitions_involved_total").inc(
            sum(s.partitions_involved for _, s in served))
        if batch:
            m.counter("repro_workloads_total").inc()
            m.quantile_sketch("repro_workload_seconds").observe(batch_seconds)
        else:
            for _, s in served:
                m.quantile_sketch("repro_query_seconds").observe(s.seconds)
        for what in ("retries", "failovers", "repairs"):
            if getattr(acct, what):
                m.counter(f"repro_{what}_total").inc(getattr(acct, what))
        for i, _ in served:
            obs.observe_query(requests[i].query)
        if self._cost_model is not None:
            for i, s in served:
                cost = plan.cost_for(i, s.replica_name)
                if not math.isnan(cost):  # no Eq. 6 row for its encoding
                    obs.drift.record(s.replica_name, cost, s.seconds)
        # Closed-loop tail of every served call: offer the attached
        # recalibrator a shot at each serving replica's drift flag (no-ops
        # on a bundle without the optional layers), then let reselection
        # and the checkpointer act if their schedules say so.
        replicas = self._replicas
        for name in sorted(by_replica):
            stored = replicas.get(name)
            if stored is not None:
                obs.maybe_recalibrate(stored)
        obs.maybe_reselect()
        obs.maybe_checkpoint()

    def _workload_stats(self, served: list[tuple[int, QueryStats]],
                        n_queries: int, plan: RoutingPlan, acct: _Accounting,
                        cache_before: CacheStats | None,
                        elapsed: float) -> WorkloadStats:
        """Aggregate one batch run.  ``bytes_read`` totals the unique
        fetches, including fetches whose queries later failed over — so
        it can exceed the per-query sum on a degraded run."""
        if cache_before is not None:
            after = self._cache.stats()
            hits = after.hits - cache_before.hits
            misses = after.misses - cache_before.misses
        else:
            hits = misses = 0
        served_counts = dict(Counter(s.replica_name for _, s in served))
        assigned = plan.assigned_names()
        delta = sum(plan.degraded_delta(i, s.replica_name)
                    for i, s in served if s.replica_name != assigned[i])
        return WorkloadStats(
            n_queries=n_queries,
            seconds=elapsed,
            bytes_read=acct.bytes_read,
            records_scanned=sum(s.records_scanned for _, s in served),
            records_returned=sum(s.records_returned for _, s in served),
            partitions_decoded=acct.units_decoded,
            cache_hits=hits,
            cache_misses=misses,
            per_replica_queries=served_counts,
            retries=acct.retries,
            failovers=acct.failovers,
            repairs=acct.repairs,
            # NaN: no cost model priced the replicas, nothing to estimate.
            degraded_cost_delta=0.0 if math.isnan(delta) else float(delta),
            failed_replicas=tuple(sorted(acct.failed_replicas)),
        )


def _named(replicas: Mapping[str, StoredReplica], name: str) -> StoredReplica:
    try:
        return replicas[name]
    except KeyError:
        raise KeyError(
            f"no replica named {name!r}; have {list(replicas)}") from None


def open_store(
    dataset,
    replicas: tuple = (),
    *,
    cost_model: CostModel | None = None,
    cache_bytes: int | None = None,
    fault_injector: FaultInjector | None = None,
    observability: Observability | None = None,
) -> BlotStore:
    """Build a :class:`BlotStore` and register replicas in one call —
    the stable entry point examples and applications should use.

    ``dataset`` is either an in-memory :class:`~repro.data.Dataset` or a
    :class:`~repro.storage.config.StoreConfig` — the picklable handle a
    ``spawn``-started worker rehydrates a store from.  With a config, no
    other argument may be passed (the config *is* the full recipe: it
    carries the dataset path, replica manifests, cost constants, cache
    budget, fault schedule and observability flag).

    Otherwise (a :class:`~repro.data.Dataset`, or a loader of one — see
    :class:`BlotStore`), each item of ``replicas`` is
    either an already-built
    :class:`~repro.storage.replica.StoredReplica` (e.g. reopened from a
    manifest) or a ``(scheme, encoding, store)`` /
    ``(scheme, encoding, store, name)`` tuple to build fresh.
    """
    from repro.storage.config import StoreConfig, hydrate_store

    if isinstance(dataset, StoreConfig):
        if (replicas or cost_model is not None or cache_bytes is not None
                or fault_injector is not None or observability is not None):
            raise TypeError(
                "open_store(StoreConfig) takes no other arguments — the "
                "config already carries the full store recipe"
            )
        return hydrate_store(dataset)
    blot = BlotStore(dataset, cost_model=cost_model, cache_bytes=cache_bytes,
                     fault_injector=fault_injector, observability=observability)
    for spec in replicas:
        if isinstance(spec, StoredReplica):
            blot.register_replica(spec)
            continue
        if not isinstance(spec, (tuple, list)) or not 3 <= len(spec) <= 4:
            raise TypeError(
                "each replica must be a StoredReplica or a "
                "(scheme, encoding, store[, name]) tuple; got "
                f"{spec!r}"
            )
        scheme, encoding, store, *rest = spec
        blot.add_replica(scheme, encoding, store,
                         name=rest[0] if rest else None)
    return blot
