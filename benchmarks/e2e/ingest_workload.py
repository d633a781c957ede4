"""``ingest_mixed``: an open-loop writer beside a closed-loop reader on
one ``IngestingBlotStore``, then a background compaction, then crash
recovery.

The timed window holds appends, reads and a growing delta buffer, and no
rebuild: ``auto_compact_at`` is set to exactly the records the window
ingests, so the background compaction starts as the window closes.  The
reader keeps reading through that compaction and those reads are
reported as layer metrics only (``ingest.read_p50_ms_compacting``).
Sizing runs with the rebuild cycling inside the window (every 50k or
100k records) moved reader qps and p50 by 23-31 % between identical
runs on one seed — the reader, the writer and the rebuild share one GIL,
and whichever thread wins it early decides how long the rebuild lasts —
which no bound could have resolved.

Flush policy: ``fsync_wal=True`` — every acknowledged batch has been
``os.fsync``-ed.  The sandbox's page cache is warm and its disk is
virtual, so append and recovery latencies are the sandbox's, not a
device's.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro import Dataset, Observability
from repro.storage import ExecOptions
from repro.storage.ingest import IngestingBlotStore, ReplicaSpec
from repro.storage.wal import WriteAheadLog

from . import fold, inputs
from .measure import (
    QueryCounts,
    client_metrics,
    median,
    percentile,
)

CLASSES = (0, 1, 2, 3, 4)
BATCHES_PER_S = 20
TAIL_BATCHES = 50
KEEP_EVERY = 10
DRAIN_EVERY = 100
RECOVERY_QUERIES = 30
#: Give up waiting for the post-window compaction after this long.
COMPACTION_TIMEOUT_S = 60.0
COUNTED_OPS = 500


def shape(records: int) -> dict:
    """Sizes scale with the dataset so ``--smoke`` keeps the proportions:
    a fifth is the base load, a batch is a thousandth."""
    return {"base": records // 5, "batch": records // 1000}


def specs():
    return [ReplicaSpec(*inputs.replica_spec(row)) for row in inputs.INGEST]


def _slice(dataset, lo: int, hi: int) -> Dataset:
    return Dataset({name: col[lo:hi] for name, col in dataset.columns.items()})


def prefix(dataset, n: int) -> Dataset:
    """The first ``n`` records in time order: what the store holds once
    ``n`` records are acknowledged."""
    return _slice(dataset, 0, n)


def dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _sub, files in os.walk(root) for f in files)


def run(dataset, seed, seconds, tracing, spans, wal_dir):
    """``dataset`` is the full seeded dataset in time order."""
    sizes = shape(len(dataset))
    base_n, batch_n = sizes["base"], sizes["batch"]
    n_window = min(int(seconds * BATCHES_PER_S),
                   (len(dataset) - base_n) // batch_n - TAIL_BATCHES)
    obs = Observability.create() if tracing else None
    options = ExecOptions(trace=tracing)
    kwargs = dict(fsync_wal=True, background_compaction=True,
                  auto_compact_at=n_window * batch_n, observability=obs)
    with spans.span("ingest.create", records=base_n) as s_create:
        store = IngestingBlotStore(_slice(dataset, 0, base_n), specs(),
                                   wal_dir=wal_dir, **kwargs)
    rng = np.random.default_rng([seed, 3])
    stream = inputs.QueryStream(dataset.bounding_box(), CLASSES, 20_000, rng)
    with spans.span("ingest.warm"):
        for k in range(1, 17):
            store.query(stream[-k], options=options)
    if tracing:
        obs.tracer.clear()

    def batch(k):
        lo = base_n + k * batch_n
        return _slice(dataset, lo, lo + batch_n)

    # Records visible to a reader lie between ``acked`` (appends that
    # have returned) and ``submitted`` (appends that have been called).
    progress = {"acked": base_n, "submitted": base_n}
    appends = []        # (k, due, started, done)
    append_errors = []
    buffered_max = [0]
    t_begin = time.perf_counter()
    deadline = t_begin + seconds

    def writer():
        for k in range(n_window):
            due = t_begin + k / BATCHES_PER_S
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            records = batch(k)
            started = time.perf_counter()
            progress["submitted"] += batch_n
            try:
                store.append(records)
            except Exception as exc:  # noqa: BLE001 - counted, then fatal
                append_errors.append(f"{type(exc).__name__}: {exc}")
                return
            done = time.perf_counter()
            progress["acked"] += batch_n
            appends.append((k, due, started, done))
            buffered_max[0] = max(buffered_max[0], store.buffered_records)

    samples = []        # (index, t0, t1, n_records)
    retained = []       # (label, box, Dataset, acked_before, submitted_after)
    program_spans = []
    counted = QueryCounts(COUNTED_OPS)
    buffer_s = scan_s = 0.0

    def read(i):
        nonlocal buffer_s, scan_s
        query = stream[i]
        before = progress["acked"]
        t0 = time.perf_counter()
        result = store.query(query, options=options)
        t1 = time.perf_counter()
        after = progress["submitted"]
        stats = result.stats
        buffer_s += stats.buffer_seconds
        scan_s += stats.seconds
        counted.add(stats)
        if i % KEEP_EVERY == 0:
            retained.append((f"read{i}", query.box(), result.records,
                             before, after))
        if tracing and i % DRAIN_EVERY == 0:
            program_spans.extend(s.to_dict() for s in obs.tracer.spans())
            obs.tracer.clear()
        return i, t0, t1, len(result.records)

    writer_thread = threading.Thread(target=writer, name="e2e-writer")
    writer_thread.start()
    i = 0
    while time.perf_counter() < deadline:
        samples.append(read(i))
        i += 1
    t_end = time.perf_counter()
    writer_thread.join()
    buffer_share = buffer_s / (buffer_s + scan_s) if scan_s else 0.0

    # The last append of the window crossed ``auto_compact_at``: the
    # background rebuild is running now.  Keep reading beside it.
    compacting = []
    with spans.span("ingest.compacting"):
        give_up = time.perf_counter() + COMPACTION_TIMEOUT_S
        while (store.compactions + store.compaction_failures == 0
               and len(appends) == n_window
               and time.perf_counter() < give_up):
            compacting.append(read(i))
            i += 1
        store.wait_for_compaction()
    for i0, t0, t1, _n in samples:
        spans.add("client.read", t0, t1, index=i0)
    for k, due, _started, done in appends:
        spans.add("client.append", due, done, batch=k)

    # A tail that stays in the WAL for recovery to replay.
    with spans.span("ingest.tail", batches=TAIL_BATCHES):
        for k in range(len(appends), len(appends) + TAIL_BATCHES):
            store.append(batch(k))
            progress["acked"] += batch_n
    compactions = store.compactions
    compaction_failures = store.compaction_failures
    if tracing:
        program_spans.extend(s.to_dict() for s in obs.tracer.spans())
    # The tail continues right after the last batch the writer got in, so
    # the store now holds exactly the first ``acked`` records of the
    # dataset — provided the writer never skipped one.
    contiguous = [k for k, *_ in appends] == list(range(len(appends)))
    store.close()
    stored = dir_bytes(wal_dir)

    with spans.span("ingest.recover") as s_recover:
        reopened = IngestingBlotStore.open(wal_dir, specs(), **{
            **kwargs, "observability": None})
        first = reopened.query(stream[-1])
    acked = progress["acked"]
    recovered = len(reopened)
    post = [(f"post{j}", stream[-(j + 1)].box(),
             reopened.query(stream[-(j + 1)]).records)
            for j in range(RECOVERY_QUERIES)]
    post[0] = ("post0", stream[-1].box(), first.records)
    reopened.close()

    return {
        "samples": samples, "compacting": compacting, "retained": retained,
        "post": post, "program_spans": program_spans, "counted": counted,
        "appends": appends, "append_errors": append_errors,
        "contiguous": contiguous, "acked": acked, "recovered": recovered,
        "lost": max(0, acked - recovered),
        "compactions": compactions,
        "compaction_failures": compaction_failures,
        "buffered_max": buffered_max[0],
        "buffer_share": buffer_share,
        "stored_bytes": stored,
        "raw_bytes": prefix(dataset, acked).binary_size_bytes(),
        "wall_s": t_end - t_begin, "t_begin": t_begin,
        "create_s": s_create["end"] - s_create["start"],
        "recovery_s": s_recover["end"] - s_recover["start"],
    }


def wal_microbench(dataset, wal_dir: str, batches: int = 50) -> dict:
    """Bare ``WriteAheadLog`` with fsync on, no store around it."""
    batch_n = shape(len(dataset))["batch"]
    wal = WriteAheadLog(wal_dir, fsync=True)
    times, framed, user = [], 0, 0
    for k in range(batches):
        records = _slice(dataset, k * batch_n, (k + 1) * batch_n)
        t0 = time.perf_counter()
        framed += wal.append(records)
        times.append(time.perf_counter() - t0)
        user += records.binary_size_bytes()
    wal.close()
    t0 = time.perf_counter()
    replayed = WriteAheadLog(wal_dir, fsync=True).replay()
    replay_s = time.perf_counter() - t0
    assert sum(len(b) for b in replayed) == batches * batch_n
    return {"wal.append_ms_per_batch": 1e3 * median(times),
            "wal.bytes_per_user_byte": framed / user,
            "wal.replay_s": replay_s}


def append_latencies_ms(obs: dict) -> tuple[float, float, float]:
    """(p50, p95, max) from each batch's *due* time to acknowledged-durable."""
    lat = [1e3 * (done - due) for _k, due, _s, done in obs["appends"]]
    return median(lat), percentile(lat, 95), max(lat)


def layer_metrics(obs: dict) -> dict:
    p50, p95, worst = append_latencies_ms(obs)
    late = [1e3 * max(0.0, started - due)
            for _k, due, started, _d in obs["appends"]]
    compact = [s for s in obs["program_spans"] if s["name"] == "compact"]
    rebuild = [s for s in obs["program_spans"] if s["name"] == "rebuild"]
    rebuild_s = sum(s["seconds"] for s in rebuild)
    out = fold.fold_scalar(obs["program_spans"], len(obs["samples"]))
    out.update({
        "ingest.append_p50_ms": p50,
        "ingest.append_p95_ms": p95,
        "ingest.append_max_ms": worst,
        "ingest.generator_late_p95_ms": percentile(late, 95),
        "ingest.recovery_s": obs["recovery_s"],
        "ingest.read_p50_ms_compacting":
            median([1e3 * (t1 - t0) for _i, t0, t1, _n in obs["compacting"]])
            if obs["compacting"] else 0.0,
        "ingest.compactions": obs["compactions"],
        "ingest.compaction_busy_s": sum(s["seconds"] for s in compact),
        "ingest.rebuild_records_per_s":
            sum(s["attrs"]["records"] for s in rebuild) / rebuild_s
            if rebuild_s else 0.0,
        "ingest.max_buffered_records": obs["buffered_max"],
        "ingest.buffer_scan_share": obs["buffer_share"],
    })
    out.update(obs["counted"].metrics())
    out.update(client_metrics(obs["samples"], obs["wall_s"]))
    return out
