"""The serving front door: routing, batching, fan-out, coordinated failover.

A :class:`ShardServer` owns

- a *router* store — a full (unmasked) :class:`~repro.storage.BlotStore`
  hydrated from the same :class:`~repro.storage.StoreConfig` the workers
  get, used only for Eq. 6–7 cost routing, never for scanning;
- ``n_shards`` workers, each holding the masked shard view of every
  replica (see :mod:`repro.serve.worker`);
- the admission / quota gate and the query :class:`~repro.serve.Batcher`.

**Coordinated failover.** The server routes each batch once, pins the
chosen replica, and dispatches the same assignment to every shard.  A
shard that cannot serve a query from the pinned replica reports a
structured failure; the server then re-dispatches that query — to *all*
shards, pinned to the next replica in the plan's cost ranking —
discarding any partials from the failed round.  Only this keeps the
union bit-equal: ownership masks are per-replica, so shards must always
agree on which replica a query reads.  A query that exhausts the
ranking raises :class:`~repro.errors.DegradedReadError`, never a
partial result.

**Transport.** Each worker is reached over one pair of one-way pipes,
the same in both worker modes.  Request frames are sent inline on the
loop thread; responses are read in a ``loop.add_reader`` readiness
callback, one whole frame per wake-up.  A worker sends one ``Ready``
frame once hydrated and :meth:`ShardServer.start` waits for all of
them.  End-of-file on a response pipe means the worker is gone: every
request pending on that shard, and every later one, fails with
:class:`~repro.errors.WorkerLostError` — nothing is restarted here.

**Distributed tracing** (``tracing=True``): every ``query()`` call
opens a ``request`` root span under a fresh 128-bit trace id; the batch
span parents under the *first* request of the batch and lists the
others as ``links``; each per-replica round gets a ``dispatch`` span
whose :class:`~repro.obs.distributed.TraceContext` rides the
:class:`~repro.serve.protocol.ShardRequest` frame into the workers, so
engine spans in other processes parent back into the originating
request.  :meth:`trace_snapshot` / :meth:`dump_traces` collect the
per-worker streams for :func:`~repro.obs.distributed.stitch_traces`.
Tracing off is the :data:`~repro.obs.trace.NULL_RECORDER` no-op path.

**SLO + quantiles.** The front door always carries its own
:class:`~repro.obs.Observability` bundle: request outcomes and
latencies land in ``repro_requests_total{tenant,outcome}`` and the
mergeable ``repro_request_seconds{tenant}`` sketch (plus
``repro_shard_dispatch_seconds{shard}`` per fan-out leg), and — when an
:class:`~repro.obs.SLOEngine` is attached — feed per-tenant burn-rate
evaluation.  Quota rejections are excluded from the SLO stream (the
client misbehaved, not the service); sheds and degraded reads count
against availability.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field, replace

from repro.cluster.placement import ShardAssignment, assign_shards
from repro.data.dataset import Dataset
from repro.errors import (
    DeadlineExceededError,
    DegradedReadError,
    OverloadError,
    QuotaExceededError,
    WorkerLostError,
)
from repro.obs import Observability
from repro.obs.aggregate import merge_metric_snapshots
from repro.obs.distributed import TraceContext, new_trace_id
from repro.obs.trace import NULL_RECORDER
from repro.serve.admission import AdmissionController, TenantQuotas
from repro.serve.batcher import Batcher
from repro.serve.protocol import (
    SHUTDOWN,
    MetricsRequest,
    QueryTask,
    Ready,
    ShardRequest,
    TraceRequest,
    concat_payloads,
)
from repro.serve.worker import shard_worker_main
from repro.storage.config import StoreConfig, hydrate_store
from repro.storage.failover import RankingWalk
from repro.workload.query import Query, Workload

WORKER_MODES = ("process", "thread")


@dataclass(slots=True)
class _Envelope:
    """One in-flight request travelling through the batcher: the query
    plus the tracing/deadline context the flush path needs to resolve
    it.  The batcher treats it opaquely."""

    query: Query
    tenant: str
    span: object  # the request root span handle (null when tracing off)
    deadline: float | None  # absolute ``time.time()`` seconds


@dataclass(slots=True)
class _Shard:
    """The front door's side of one worker: its handle, this side's
    ends of the worker's one-way pipe pair, and the futures waiting on
    frames from it.  ``lost`` is set when the response pipe reaches
    end-of-file."""

    shard_id: int
    worker: object  # mp.Process or threading.Thread
    requests: object  # send-only Connection
    responses: object  # receive-only Connection
    ready: asyncio.Future
    pending: dict[int, asyncio.Future] = field(default_factory=dict)
    lost: WorkerLostError | None = None


class ShardServer:
    """An asyncio serving tier over ``n_shards`` store workers.

    ``worker_mode="process"`` starts real ``spawn`` processes (the
    deployment shape; proves no live handle crosses the boundary);
    ``"thread"`` runs the same worker loop on threads (deterministic
    and cheap — the default for tests and benchmarks).
    """

    def __init__(
        self,
        config: StoreConfig,
        n_shards: int = 2,
        sharding: str = "hash",
        worker_mode: str = "thread",
        max_batch: int = 64,
        max_inflight: int = 256,
        quotas: TenantQuotas | None = None,
        tracing: bool = False,
        observability: Observability | None = None,
        slo=None,
    ):
        if worker_mode not in WORKER_MODES:
            raise ValueError(
                f"unknown worker_mode {worker_mode!r}; have {WORKER_MODES}")
        self._config = config
        self._n_shards = int(n_shards)
        self._sharding = sharding
        self._worker_mode = worker_mode
        self._tracing = bool(tracing)
        #: The front door's own telemetry bundle — always present, so
        #: admission/quota/request counters land somewhere even when the
        #: store config carries no observability.
        self.obs = observability if observability is not None \
            else Observability.create()
        self._tracer = self.obs.tracer if self._tracing else NULL_RECORDER
        self.slo = slo
        self.admission = AdmissionController(max_inflight,
                                             metrics=self.obs.metrics)
        self.quotas = quotas
        if quotas is not None:
            quotas.bind_metrics(self.obs.metrics)
        self._batcher = Batcher(self._flush_batch, max_batch=max_batch)
        self._router = None
        self._assignment: ShardAssignment | None = None
        self._shards: list[_Shard] = []
        self._ids = itertools.count()
        self._started = False
        self.failovers = 0
        self.degraded = 0
        self.queries_served = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def tracing(self) -> bool:
        return self._tracing

    @property
    def assignment(self) -> ShardAssignment:
        if self._assignment is None:
            raise RuntimeError("server not started")
        return self._assignment

    @property
    def router(self):
        """The full (unmasked) store the front door routes with."""
        if self._router is None:
            raise RuntimeError("server not started")
        return self._router

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("server already started")
        self._router = hydrate_store(self._config)
        names = sorted(self._router.replica_names())
        self._assignment = assign_shards(
            [self._router.replica(name) for name in names],
            self._n_shards, self._sharding)
        # Tracing needs a recorder in every worker: force the bundle on
        # even when the caller's config was built without one.
        worker_config = self._config
        if self._tracing and not worker_config.observability:
            worker_config = replace(worker_config, observability=True)
        if self._worker_mode == "process":
            make_worker = mp.get_context("spawn").Process
        else:
            make_worker = threading.Thread
        loop = asyncio.get_running_loop()
        for shard_id in range(self._n_shards):
            worker_requests, requests = mp.Pipe(duplex=False)
            responses, worker_responses = mp.Pipe(duplex=False)
            worker = make_worker(
                target=shard_worker_main, daemon=True,
                args=(worker_config, self._assignment, shard_id,
                      worker_requests, worker_responses))
            worker.start()
            if self._worker_mode == "process":
                # The child has its own copies; with ours closed, its
                # death is an end-of-file on ``responses``.
                worker_requests.close()
                worker_responses.close()
            shard = _Shard(shard_id, worker, requests, responses,
                           ready=loop.create_future())
            self._shards.append(shard)
            loop.add_reader(responses.fileno(), self._read_frame, shard)
        self._started = True
        try:
            await asyncio.gather(*(shard.ready for shard in self._shards))
        except BaseException:
            await self.stop()
            raise

    async def stop(self) -> None:
        if not self._started:
            return
        await self._batcher.drain()
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            loop.remove_reader(shard.responses.fileno())
            try:
                shard.requests.send(SHUTDOWN)
            except OSError:
                pass  # the worker is already gone
            shard.requests.close()
        for shard in self._shards:
            await loop.run_in_executor(None, shard.worker.join, 10)
            shard.responses.close()
        self._shards.clear()
        self._router.close()
        self._started = False

    async def __aenter__(self) -> "ShardServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- the query surface -------------------------------------------------

    async def query(self, query: Query, tenant: str = "default",
                    deadline_seconds: float | None = None) -> Dataset:
        """Admit, batch, shard and answer one range query.

        Raises :class:`~repro.errors.QuotaExceededError` /
        :class:`~repro.errors.OverloadError` at the gate,
        :class:`~repro.errors.DeadlineExceededError` when
        ``deadline_seconds`` elapses before dispatch, and
        :class:`~repro.errors.DegradedReadError` when every replica
        failed for this query — never a partial result.
        """
        if not self._started:
            raise RuntimeError("server not started")
        t0 = time.perf_counter()
        deadline = (time.time() + deadline_seconds
                    if deadline_seconds is not None else None)
        tracer = self._tracer
        ctx = (TraceContext(trace_id=new_trace_id(), tenant=tenant,
                            deadline=deadline)
               if self._tracing else None)
        root = tracer.start("request", context=ctx, tenant=tenant)
        outcome = "ok"
        try:
            if self.quotas is not None:
                with tracer.start("quota", parent=root, tenant=tenant):
                    self.quotas.check(tenant)
            with tracer.start("admission", parent=root):
                self.admission.acquire()
            try:
                records = await self._batcher.submit(
                    _Envelope(query, tenant, root, deadline))
            finally:
                self.admission.release()
            self.queries_served += 1
            return records
        except QuotaExceededError:
            outcome = "quota_rejected"
            raise
        except OverloadError:
            outcome = "shed"
            raise
        except DeadlineExceededError:
            outcome = "deadline"
            raise
        except DegradedReadError:
            outcome = "degraded"
            raise
        except BaseException:
            outcome = "error"
            raise
        finally:
            latency = time.perf_counter() - t0
            root.annotate(outcome=outcome)
            root.finish()
            metrics = self.obs.metrics
            metrics.counter("repro_requests_total",
                            labels={"tenant": tenant,
                                    "outcome": outcome}).inc()
            metrics.quantile_sketch("repro_request_seconds",
                                    labels={"tenant": tenant}
                                    ).observe(latency)
            if outcome == "deadline":
                metrics.counter("repro_deadline_exceeded_total").inc()
            if self.slo is not None and outcome != "quota_rejected":
                self.slo.record(tenant, ok=(outcome == "ok"),
                                latency_seconds=latency)

    async def execute(self, queries, tenant: str = "default") -> list:
        """Submit many queries concurrently; returns per-query results
        in order, with the raised exception object in an errored
        query's slot (shed/degraded queries never silently vanish)."""
        return await asyncio.gather(
            *(self.query(q, tenant=tenant) for q in queries),
            return_exceptions=True,
        )

    # -- batched dispatch with coordinated failover ------------------------

    async def _flush_batch(self, batch) -> None:
        # Dedupe: concurrent clients may submit identical queries, and
        # both Workload and the engine want unique query sets.
        order: list[Query] = []
        pairs_by_query: dict[Query, list] = {}
        for envelope, future in batch:
            if envelope.query not in pairs_by_query:
                pairs_by_query[envelope.query] = []
                order.append(envelope.query)
            pairs_by_query[envelope.query].append((envelope, future))

        # Expire dead envelopes before any work is dispatched; a query
        # whose every waiter is past deadline is dropped entirely.
        now = time.time()
        for query in list(order):
            live = []
            for envelope, future in pairs_by_query[query]:
                if envelope.deadline is not None and now > envelope.deadline:
                    if not future.done():
                        future.set_exception(
                            DeadlineExceededError(envelope.deadline, now))
                else:
                    live.append((envelope, future))
            if live:
                pairs_by_query[query] = live
            else:
                order.remove(query)
                del pairs_by_query[query]
        if not order:
            return

        envelopes = [e for q in order for e, _f in pairs_by_query[q]]
        deadlines = [e.deadline for e in envelopes if e.deadline is not None]
        batch_deadline = min(deadlines) if deadlines else None
        # The batch span parents under the first request of the batch
        # (the "owner"); the other coalesced requests are recorded as
        # span links so the stitcher can graft the shared subtree into
        # each of their trees.
        owner = envelopes[0]
        tracer = self._tracer
        batch_span = tracer.start("batch", parent=owner.span,
                                  n_queries=len(order),
                                  n_requests=len(envelopes))
        links = [[e.span.trace_id, e.span.span_id]
                 for e in envelopes[1:] if e.span.span_id]
        if links:
            batch_span.annotate(links=links)

        # One walk per query down its Eq. 6-7 ranking — the same
        # failover policy object the engine drives in-process, here
        # advanced by what the shards report each round.
        plan = self._router.route_workload(Workload.unweighted(order))
        walks = [RankingWalk(plan.ranking_for(i)) for i in range(len(order))]
        outcome: dict[int, object] = {}
        pending = set(range(len(order)))
        rounds = 0

        try:
            while pending:
                rounds += 1
                groups: dict[str, list[int]] = {}
                for i in sorted(pending):
                    groups.setdefault(walks[i].current, []).append(i)
                dispatches = [
                    self._dispatch(
                        replica,
                        tuple(QueryTask(i, order[i]) for i in idxs),
                        parent=batch_span,
                        tenant=owner.tenant,
                        deadline=batch_deadline)
                    for replica, idxs in groups.items()
                ]
                all_responses = await asyncio.gather(*dispatches)
                for (replica, idxs), responses in zip(groups.items(),
                                                      all_responses):
                    responses = sorted(responses, key=lambda r: r.shard_id)
                    for i in idxs:
                        errors = [r.failures[i] for r in responses
                                  if i in r.failures]
                        if not errors:
                            if walks[i].hops:
                                self.failovers += 1
                            outcome[i] = concat_payloads(
                                r.results[i] for r in responses)
                            pending.discard(i)
                            continue
                        tracer.event("failover", parent=batch_span,
                                     query=i, replica=replica,
                                     error=errors[0])
                        if walks[i].fail(RuntimeError(errors[0])) is None:
                            self.degraded += 1
                            outcome[i] = walks[i].degraded(
                                f"query {order[i]} could not be served by "
                                "any replica")
                            pending.discard(i)
        finally:
            batch_span.annotate(rounds=rounds,
                                degraded=sum(
                                    1 for r in outcome.values()
                                    if isinstance(r, DegradedReadError)))
            batch_span.finish()

        for i, query in enumerate(order):
            result = outcome[i]
            for _envelope, future in pairs_by_query[query]:
                if future.done():
                    continue
                if isinstance(result, BaseException):
                    future.set_exception(result)
                else:
                    future.set_result(result)

    async def _dispatch(self, replica: str, tasks, parent=None,
                        tenant: str = "", deadline: float | None = None
                        ) -> list:
        """Send one pinned-replica task group to every shard and gather
        the per-shard responses.  The dispatch span's context rides the
        request frame so worker-side spans parent under it."""
        tracer = self._tracer
        span = tracer.start("dispatch", parent=parent, replica=replica,
                            queries=len(tasks), shards=self._n_shards)
        ctx = None
        if span.span_id or deadline is not None:
            ctx = TraceContext(trace_id=span.trace_id,
                               parent_span_id=span.span_id or None,
                               tenant=tenant, deadline=deadline)
        t0 = time.perf_counter()
        waits = self._broadcast(
            ShardRequest(request_id=next(self._ids), replica=replica,
                         tasks=tasks, trace=ctx))

        async def wait_one(shard_id, future):
            response = await future
            self.obs.metrics.quantile_sketch(
                "repro_shard_dispatch_seconds",
                labels={"shard": str(shard_id)},
            ).observe(time.perf_counter() - t0)
            return response

        try:
            responses = await asyncio.gather(
                *(wait_one(s, f) for s, f in enumerate(waits)))
            span.annotate(failures=sum(
                len(r.failures) for r in responses))
            return responses
        finally:
            span.finish()

    # -- the pipe transport ------------------------------------------------

    def _broadcast(self, frame) -> list[asyncio.Future]:
        """Send one request frame to every shard; returns one future per
        shard, in shard order, resolving with that worker's response or
        failing with :class:`~repro.errors.WorkerLostError`.

        The send is inline on the loop thread.  It cannot block against
        a worker that is itself blocked sending: the batcher keeps one
        batch in flight, so the request bytes queued toward a worker
        stay far below the pipe buffer."""
        loop = asyncio.get_running_loop()
        futures = []
        for shard in self._shards:
            future = loop.create_future()
            futures.append(future)
            if shard.lost is not None:
                future.set_exception(shard.lost)
                continue
            shard.pending[frame.request_id] = future
            try:
                shard.requests.send(frame)
            except OSError:
                self._worker_lost(shard)
        return futures

    def _read_frame(self, shard: _Shard) -> None:
        """Readiness callback of a shard's response pipe: reads one
        whole frame inline and resolves the future waiting on it."""
        try:
            message = shard.responses.recv()
        except (EOFError, OSError):
            self._worker_lost(shard)
            return
        if isinstance(message, Ready):
            shard.ready.set_result(None)
            return
        future = shard.pending.pop(message.request_id, None)
        if future is not None and not future.done():
            future.set_result(message)

    def _worker_lost(self, shard: _Shard) -> None:
        """Fail everything waiting on a dead worker, now and later."""
        asyncio.get_running_loop().remove_reader(shard.responses.fileno())
        exitcode = None
        if self._worker_mode == "process":
            shard.worker.join(1.0)  # reap it, so the exit code is known
            exitcode = shard.worker.exitcode
        shard.lost = WorkerLostError(shard.shard_id, exitcode)
        waiters = [shard.ready, *shard.pending.values()]
        shard.pending.clear()
        for future in waiters:
            if not future.done():
                future.set_exception(shard.lost)

    # -- observability -----------------------------------------------------

    def server_stats(self) -> dict:
        """Front-door counters as plain data."""
        return {
            "queries_served": self.queries_served,
            "admitted": self.admission.admitted,
            "shed": self.admission.shed,
            "quota_rejected": (self.quotas.rejected
                               if self.quotas is not None else 0),
            "failovers": self.failovers,
            "degraded": self.degraded,
            "batches_flushed": self._batcher.batches_flushed,
            "queries_batched": self._batcher.queries_batched,
        }

    async def metrics_snapshot(self) -> dict:
        """Per-shard telemetry plus the cross-shard aggregate.

        ``shards`` holds each worker's
        :meth:`~repro.obs.MetricsRegistry.snapshot`; ``frontdoor`` the
        server's own registry (admission, quotas, request latencies);
        ``merged`` is their
        :func:`~repro.obs.aggregate.merge_metric_snapshots` union;
        ``server`` the front-door counters.  When an SLO engine is
        attached, ``slo`` carries its freshly evaluated status."""
        responses = await asyncio.gather(
            *self._broadcast(MetricsRequest(next(self._ids))))
        shard_snapshots = {r.shard_id: r.snapshot for r in responses}
        frontdoor = self.obs.metrics.snapshot()
        snapshot = {
            "server": self.server_stats(),
            "frontdoor": frontdoor,
            "shards": shard_snapshots,
            "merged": merge_metric_snapshots(
                [frontdoor]
                + [shard_snapshots[s] for s in sorted(shard_snapshots)]),
        }
        if self.slo is not None:
            self.slo.evaluate()
            snapshot["slo"] = {
                "objectives": self.slo.objective_dicts(),
                "status": self.slo.status_dicts(),
                "firing": [{"tenant": t, "objective": o}
                           for t, o in self.slo.firing],
                "audit": self.slo.audit_dicts(),
            }
        return snapshot

    async def trace_snapshot(self, clear: bool = False) -> dict:
        """Every worker's retained spans plus the front door's own, each
        tagged with a ``worker`` label (``frontdoor`` / ``shard-N``) for
        :func:`~repro.obs.distributed.stitch_traces`."""
        responses = await asyncio.gather(
            *self._broadcast(TraceRequest(next(self._ids), clear=clear)))
        shards = {
            r.shard_id: [dict(s, worker=f"shard-{r.shard_id}")
                         for s in r.spans]
            for r in responses
        }
        frontdoor = [dict(s.to_dict(), worker="frontdoor")
                     for s in self._tracer.spans()]
        if clear:
            self._tracer.clear()
        return {"frontdoor": frontdoor, "shards": shards}

    async def dump_traces(self, directory, clear: bool = False) -> list:
        """Write per-worker span streams as JSONL files
        (``frontdoor.jsonl``, ``worker-N.jsonl``) under ``directory``
        and return the written paths — the on-disk shape
        :func:`~repro.obs.distributed.stitch_files` consumes."""
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        snapshot = await self.trace_snapshot(clear=clear)
        paths = []
        streams = [("frontdoor.jsonl", snapshot["frontdoor"])]
        streams += [(f"worker-{shard_id}.jsonl", spans)
                    for shard_id, spans in sorted(
                        snapshot["shards"].items())]
        for name, spans in streams:
            path = directory / name
            with open(path, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
            paths.append(path)
        return paths
