"""The shard worker: one process (or thread) owning a slice of every replica.

A worker rehydrates the store from the pickled
:class:`~repro.storage.StoreConfig` it was spawned with — no live
handle ever crosses the process boundary — and masks each replica down
to the units its :class:`~repro.cluster.ShardAssignment` shard owns.
The engine's scan paths treat masked (``None``) unit keys as partitions
contributing no records, so a worker's answer is exactly the slice of
the full answer its shard is responsible for.

Workers never fail over or repair on their own: ownership masks are
per-replica, so a worker switching replicas unilaterally would return a
slice of a *different* partitioning than its peers — duplicated and
missing records.  A worker is therefore a pipeline run whose every
ranking has length one (``failover=False``): it executes each request
exactly once through :meth:`~repro.storage.BlotStore.execute_each`,
which reports per-query structured failures, and the front door walks
the ranking — re-dispatching those queries, pinned to the next-ranked
replica, to every shard at once.

Tracing: when a request frame carries a
:class:`~repro.obs.distributed.TraceContext`, the worker opens a
``shard_serve`` span under the front door's dispatch span and threads
its own context into :class:`~repro.storage.options.ExecOptions`, so
the engine's ``workload``/``query``/``scan`` spans land in the worker's
recorder already parented into the originating request's trace.  The
front door collects them later with a
:class:`~repro.serve.protocol.TraceRequest`.  An expired deadline on
the frame fails every task structurally instead of scanning.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.errors import DeadlineExceededError, DegradedReadError
from repro.obs.distributed import TraceContext
from repro.obs.trace import NULL_RECORDER
from repro.serve.protocol import (
    SHUTDOWN,
    MetricsRequest,
    MetricsResponse,
    Ready,
    ShardRequest,
    ShardResponse,
    TraceRequest,
    TraceResponse,
    dataset_to_payload,
)
from repro.storage.config import StoreConfig, hydrate_store
from repro.storage.options import ExecOptions
from repro.workload.query import Workload


def _open_shard_store(config: StoreConfig, assignment, shard_id: int):
    """Hydrate this shard's view of the store: every replica reopened
    from its manifest, unit keys masked to the shard's owned set."""
    return hydrate_store(
        config,
        replica_transform=lambda r: assignment.mask_replica(r, shard_id),
    )


#: Coordinated failover: the server owns replica switching.
_WORKER_OPTIONS = ExecOptions(failover=False, repair=False)


def _recorder_of(store):
    obs = getattr(store, "observability", None)
    return obs.tracer if obs is not None else NULL_RECORDER


def _serve_request(store, request: ShardRequest, shard_id: int,
                  options: ExecOptions) -> ShardResponse:
    """Answer one batched request against this shard's masked store.

    The request runs through the pipeline exactly once: each owned
    partition is read once across all queries, and a query that needed
    an unreadable one comes back as its own structured failure while
    the others keep their answers.  An exception that is *not* a read
    error (a bug, a malformed frame) is reported once as the failure of
    every task — never re-executed, and never allowed to kill the
    worker loop: losing the worker would fail every request of the
    tier (:class:`~repro.errors.WorkerLostError`), not just this one.
    """
    ctx = request.trace
    if ctx is not None and ctx.deadline is not None:
        now = time.time()
        if now > ctx.deadline:
            err = DeadlineExceededError(ctx.deadline, now)
            return ShardResponse(
                request_id=request.request_id, shard_id=shard_id,
                failures={task.index: f"{type(err).__name__}: {err}"
                          for task in request.tasks})
    if ctx is not None and ctx.trace_id:
        rec = _recorder_of(store)
        shard_span = rec.start("shard_serve", context=ctx, shard=shard_id,
                               replica=request.replica,
                               n_tasks=len(request.tasks))
        options = replace(
            options, trace=True,
            trace_context=TraceContext(trace_id=shard_span.trace_id,
                                       parent_span_id=shard_span.span_id,
                                       tenant=ctx.tenant,
                                       deadline=ctx.deadline))
    else:
        shard_span = None
    queries = [task.query for task in request.tasks]
    results: dict[int, dict[str, np.ndarray]] = {}
    failures: dict[int, str] = {}
    try:
        outcome = store.execute_each(Workload.unweighted(queries),
                                     replica=request.replica,
                                     options=options)
        for task, result in zip(request.tasks, outcome.results):
            if isinstance(result, DegradedReadError):
                failures[task.index] = f"{type(result).__name__}: {result}"
            else:
                results[task.index] = dataset_to_payload(result.records)
    except Exception as exc:  # the report-once guard, see the docstring
        results.clear()
        failures = {task.index: f"{type(exc).__name__}: {exc}"
                    for task in request.tasks}
    finally:
        if shard_span is not None:
            shard_span.annotate(results=len(results),
                                failures=len(failures))
            shard_span.finish()
    return ShardResponse(request_id=request.request_id, shard_id=shard_id,
                         results=results, failures=failures)


def _metrics_snapshot(store) -> dict:
    obs = store.observability
    if obs is None:
        return {"counters": [], "gauges": [], "quantiles": []}
    return obs.metrics.snapshot()


def _trace_spans(store, clear: bool) -> tuple[dict, ...]:
    rec = _recorder_of(store)
    spans = tuple(s.to_dict() for s in rec.spans())
    if clear:
        rec.clear()
    return spans


def shard_worker_main(config: StoreConfig, assignment, shard_id: int,
                      requests, responses) -> None:
    """The worker loop: ``spawn`` target for process workers, ``Thread``
    target for in-process ones.  ``requests``/``responses`` are this
    worker's ends of its one-way pipe pair.  Sends one
    :class:`~repro.serve.protocol.Ready` frame once hydrated, answers
    frames in arrival order, and exits on the ``SHUTDOWN`` sentinel or
    end-of-file (the front door is gone).  Its pipe ends are closed on
    the way out however it leaves — that end-of-file is how the front
    door learns a worker died."""
    with requests, responses:
        store = _open_shard_store(config, assignment, shard_id)
        try:
            responses.send(Ready(shard_id))
            while True:
                try:
                    message = requests.recv()
                except EOFError:
                    break
                if message is SHUTDOWN:
                    break
                if isinstance(message, MetricsRequest):
                    responses.send(MetricsResponse(
                        request_id=message.request_id,
                        shard_id=shard_id,
                        snapshot=_metrics_snapshot(store),
                    ))
                elif isinstance(message, TraceRequest):
                    responses.send(TraceResponse(
                        request_id=message.request_id,
                        shard_id=shard_id,
                        spans=_trace_spans(store, message.clear),
                    ))
                else:
                    responses.send(
                        _serve_request(store, message, shard_id,
                                       _WORKER_OPTIONS))
        finally:
            store.close()
