"""``engine_hot``: one in-process engine with a cache that fits the
decoded working set, hot-spot centroids, ``query`` beside ``count``.

Bypasses ``serve`` entirely and, once warm, ``encoding`` almost
entirely: what is left is routing, the partition cache, ``filter_box``
and result assembly.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.storage import ExecOptions
from repro.storage.config import hydrate_store

from . import fold, inputs
from .measure import QueryCounts, client_metrics, tracing_overhead

CACHE_BYTES = 256 << 20
CLASSES = (0, 1, 2, 3, 4, 5)
COUNT_SHARE = 0.3
WARM_OPS = 500
KEEP_EVERY = 10
DRAIN_EVERY = 100
#: Count-type layer metrics are taken over this fixed prefix of the op
#: stream so they repeat exactly between runs of different length.
COUNTED_OPS = 2_000


def make_ops(dataset, seed: int, n: int = 200_000):
    rng = np.random.default_rng([seed, 2])
    centres = inputs.hot_centres(dataset, n, rng)
    stream = inputs.QueryStream(dataset.bounding_box(), CLASSES, n, rng,
                                centres=centres)
    return stream, rng.uniform(size=n) < COUNT_SHARE


def run_phase(config, ops, seconds, tracing, spans, first_index=0):
    stream, is_count = ops
    with spans.span("storage.hydrate", tracing=tracing) as s_hydrate:
        store = hydrate_store(replace(config, cache_bytes=CACHE_BYTES,
                                      observability=tracing))
    options = ExecOptions(trace=tracing)
    tracer = store.observability.tracer if tracing else None

    def op(i):
        query = stream[i]
        t0 = time.perf_counter()
        if is_count[i % len(is_count)]:
            total, stats = store.count(query, options=options)
            t1 = time.perf_counter()
            return t0, t1, int(total), stats
        result = store.query(query, options=options)
        t1 = time.perf_counter()
        return t0, t1, result.records, result.stats

    with spans.span("engine.warm", ops=WARM_OPS):
        for k in range(1, WARM_OPS + 1):
            op(-k)
    if tracing:
        tracer.clear()
    cache_before = store.cache_stats()

    samples = []        # (index, t0, t1, n_records)
    retained = []       # (index, box, Dataset | int)
    program_spans = []
    counted = QueryCounts(COUNTED_OPS)
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    i = first_index
    while time.perf_counter() < deadline:
        t0, t1, answer, stats = op(i)
        n = answer if isinstance(answer, int) else len(answer)
        samples.append((i, t0, t1, n))
        if i % KEEP_EVERY == 0:
            retained.append((f"op{i}", stream[i].box(), answer))
        counted.add(stats)
        if tracing and len(samples) % DRAIN_EVERY == 0:
            program_spans.extend(s.to_dict() for s in tracer.spans())
            tracer.clear()
        i += 1
    t_end = time.perf_counter()
    if tracing:
        program_spans.extend(s.to_dict() for s in tracer.spans())
    for i0, t0, t1, _n in samples:
        spans.add("client.op", t0, t1, index=i0, traced=tracing)
    cache_after = store.cache_stats()
    store.close()
    return {
        "samples": samples, "failed": [], "retained": retained,
        "program_spans": program_spans, "counted": counted,
        "cache": (cache_before, cache_after),
        "wall_s": t_end - t_begin, "t_begin": t_begin,
        "hydrate_s": s_hydrate["end"] - s_hydrate["start"],
    }


def layer_metrics(untraced: dict, traced: dict) -> dict:
    before, after = traced["cache"]
    lookups = after.lookups - before.lookups
    out = fold.fold_scalar(traced["program_spans"], len(traced["samples"]))
    out.update(traced["counted"].metrics())
    out.update({
        "cache.hit_rate": (after.hits - before.hits) / max(1, lookups),
        "cache.evictions": after.evictions - before.evictions,
        "cache.resident_mb": after.current_bytes / 2**20,
        "storage.hydrate_s": untraced["hydrate_s"],
        "obs.tracing_overhead_frac": tracing_overhead(untraced, traced),
    })
    out.update(client_metrics(traced["samples"], traced["wall_s"]))
    return out
