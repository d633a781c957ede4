"""``serve_interactive`` and ``serve_scan``: closed-loop clients against a
``ShardServer`` over two spawn shard workers.

Both workloads run the partition cache off (``cache_bytes=None``), so
every read decodes: this is the "larger than cache" side of the
benchmark; ``engine_hot`` is the side that fits.
"""

from __future__ import annotations

import asyncio
import itertools
import pickle
import time

import numpy as np

from repro import ShardServer
from repro.errors import (
    DeadlineExceededError,
    DegradedReadError,
    OverloadError,
    QuotaExceededError,
)

from . import fold, inputs
from .measure import client_metrics, tracing_overhead

N_SHARDS = 2
#: A spawn worker that dies leaves ``ShardServer`` waiting forever (no
#: supervision yet); give up this long after ``start()``, or this long
#: after the window should have closed, instead of hanging.
HANG_TIMEOUT_S = 60.0
#: Retain answers up to this size for a full oracle diff; larger ones
#: (a q8 answer is ~0.7M records, 50 MB) keep their record count only,
#: except the first.
RETAIN_RECORDS = 100_000

SHAPES = {
    # paper classes; closed-loop clients; untimed warm-up queries;
    # stratification block of the stream; every-n-th answer kept for the
    # oracle; spans drained every
    "serve_interactive": {"classes": (0, 1, 2, 3, 4), "clients": 2, "warm": 16,
                          "block": 100, "keep_every": 10, "drain_every": 100},
    # One client: a scan answer is a bulk transfer, and a second client
    # only queues behind the other's full scan (head-of-line blocking on
    # the single-threaded shard workers), which made p50 a coin flip.
    # Blocks of five (2 x q6, 2 x q7, 1 x q8) so that a window of ~35
    # scans still holds the classes in proportion.
    "serve_scan": {"classes": (5, 6, 7), "clients": 1, "warm": 5, "block": 5,
                   "keep_every": 1, "drain_every": 20},
}


class WorkloadFailed(RuntimeError):
    """The workload could not run to completion (hang, crash)."""


def make_stream(name: str, dataset, seed: int, n: int = 20_000):
    rng = np.random.default_rng([seed, sorted(SHAPES).index(name)])
    shape = SHAPES[name]
    centres = (inputs.core_centres(dataset, n, rng)
               if name == "serve_scan" else None)
    return inputs.QueryStream(dataset.bounding_box(), shape["classes"], n,
                              rng, centres=centres, block=shape["block"])


async def _phase(name, config, stream, seconds, tracing, spans, first_index):
    """One server lifetime: start, warm, ``seconds`` of closed-loop load,
    stop.  Returns the raw observations as a dict."""
    shape = SHAPES[name]
    server = ShardServer(config, n_shards=N_SHARDS, sharding="hash",
                         worker_mode="process", tracing=tracing)
    with spans.span("serve.start", tracing=tracing) as s_start:
        await server.start()
        # start() returns before the spawn workers have hydrated; the
        # tier is up when it answers.
        try:
            await asyncio.wait_for(server.query(stream[-1]), HANG_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise WorkloadFailed(
                f"no answer {HANG_TIMEOUT_S:.0f}s after ShardServer.start(): "
                "a shard worker died or hung") from None
    with spans.span("serve.warm"):
        for k in range(2, 2 + shape["warm"]):
            await server.query(stream[-k])
    if tracing:
        await server.trace_snapshot(clear=True)

    samples = []          # (index, t0, t1, n_records)
    failed = []           # (index, error name)
    retained = {}         # index -> Dataset, for the oracle
    program_spans = []    # the program's own spans, drained as we go
    indices = itertools.count(first_index)
    big_kept = False
    deadline = time.perf_counter() + seconds

    async def drain():
        snap = await server.trace_snapshot(clear=True)
        program_spans.extend(snap["frontdoor"])
        for shard_spans in snap["shards"].values():
            program_spans.extend(shard_spans)

    async def client():
        nonlocal big_kept
        while time.perf_counter() < deadline:
            i = next(indices)
            query = stream[i]
            t0 = time.perf_counter()
            try:
                answer = await server.query(query)
            except (OverloadError, QuotaExceededError, DegradedReadError,
                    DeadlineExceededError) as exc:
                failed.append((i, type(exc).__name__))
                continue
            t1 = time.perf_counter()
            samples.append((i, t0, t1, len(answer)))
            spans.add("client.query", t0, t1, index=i, traced=tracing)
            if i % shape["keep_every"] == 0:
                if len(answer) <= RETAIN_RECORDS:
                    retained[i] = answer
                elif not big_kept:
                    big_kept = True
                    retained[i] = answer
            if tracing and len(samples) % shape["drain_every"] == 0:
                await drain()

    t_begin = time.perf_counter()
    try:
        await asyncio.wait_for(
            asyncio.gather(*(client() for _ in range(shape["clients"]))),
            seconds + HANG_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise WorkloadFailed("a request never completed: a shard worker "
                             "died or hung mid-run") from None
    # Whole blocks only: the window is cut at the end of the last block
    # of the stream that completed, so every run measures the same mix
    # (one q8 more or less in ~35 scans is a 10 % swing in qps).
    block = shape["block"]
    done = sorted(i for i, *_ in samples)
    whole = first_index
    while done[whole - first_index: whole - first_index + block] == \
            list(range(whole, whole + block)):
        whole += block
    every_sample = samples
    samples = [s for s in samples if s[0] < whole] or samples
    t_end = max(t1 for _i, _t0, t1, _n in samples)
    if tracing:
        await drain()
    stats = server.server_stats()
    with spans.span("serve.stop"):
        await server.stop()
    return {
        "samples": samples, "every_sample": every_sample, "failed": failed,
        "retained": retained,
        "program_spans": program_spans, "stats": stats,
        "wall_s": t_end - t_begin, "t_begin": t_begin,
        "start_s": s_start["end"] - s_start["start"],
    }


def run_phase(name, config, stream, seconds, tracing, spans, first_index=0):
    return asyncio.run(_phase(name, config, stream, seconds, tracing, spans,
                              first_index))


def _pickle_roofline(obs: dict) -> tuple[float, float]:
    """Mean answer payload bytes per query, and the milliseconds a bare
    ``pickle`` round trip of that much column data costs: the floor under
    ``serve.dispatch_self_ms``.  Priced as a per-call constant (one
    response per shard) plus a per-byte rate taken from the largest
    retained answer, applied to the mean payload of every request."""
    biggest = max(obs["retained"].values(), key=len)
    row_bytes = sum(c.itemsize for c in biggest.columns.values())
    mean_bytes = row_bytes * float(np.mean([n for *_x, n in obs["samples"]]))

    def round_trip(payload, repeat):
        t0 = time.perf_counter()
        for _ in range(repeat):
            pickle.loads(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        return (time.perf_counter() - t0) / repeat

    empty = {k: v[:0] for k, v in biggest.columns.items()}
    per_call = round_trip(empty, 200)
    per_byte = max(0.0, round_trip(biggest.columns, 3) - per_call) \
        / max(1, row_bytes * len(biggest))
    return mean_bytes, 1e3 * (N_SHARDS * per_call + per_byte * mean_bytes)


def layer_metrics(untraced: dict, traced: dict) -> tuple[dict, dict]:
    """``serve.*``, the folded ``engine.*`` rows and ``obs.*`` from one
    untraced and one traced phase of the same workload, and the fold's
    bookkeeping (rows against client wall time)."""
    rows, check = fold.fold_serve(traced["program_spans"],
                                  traced["every_sample"])
    stats = traced["stats"]
    payload_bytes, pickle_ms = _pickle_roofline(traced)
    out = dict(rows)
    out.update({
        "serve.start_s": untraced["start_s"],
        "serve.batches": stats["batches_flushed"],
        "serve.batch_size_mean":
            stats["queries_batched"] / max(1, stats["batches_flushed"]),
        "serve.payload_bytes_per_query": payload_bytes,
        "serve.pickle_roofline_frac":
            pickle_ms / rows["serve.dispatch_self_ms"],
        "serve.shed": stats["shed"],
        "serve.failovers": stats["failovers"],
        "serve.degraded": stats["degraded"],
        "obs.tracing_overhead_frac": tracing_overhead(untraced, traced),
        "obs.spans_dropped": check["spans_dropped"],
    })
    out.update(client_metrics(traced["samples"], traced["wall_s"]))
    return out, check
