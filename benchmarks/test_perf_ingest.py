"""Performance gate for the always-on ingest path.

The whole point of background compaction is that `append()` never waits
for a replica rebuild: the writer thread frames the batch, extends the
live buffer, and returns, while a worker rebuilds the replica set off
to the side and swaps it in atomically.  With *synchronous* compaction
the unlucky append that tips the buffer over ``auto_compact_at`` pays
for the entire rebuild inline — a tail-latency cliff three-plus orders
of magnitude above the median.

This gate streams the identical batch sequence into both shapes at
``auto_compact_at`` scale, each store under its own temporary
``wal_dir`` (WAL unsynced, layers written and flushed there), and
asserts the p99 append latency with background compaction is at least
10x lower than the synchronous baseline.  Results land in
``benchmarks/results/BENCH_ingest.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import numpy as np

from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage.ingest import IngestingBlotStore, ReplicaSpec

from benchmarks._report import RESULTS_DIR, emit, fmt_row

N_INITIAL = 6_000
N_STREAM = 8_000
BATCH = 50
AUTO_COMPACT_AT = 2_000


def _specs():
    return [ReplicaSpec(CompositeScheme(KdTreePartitioner(8), 4),
                        encoding_scheme_by_name("COL-GZIP"), name="main")]


def _stream_appends(initial, batches, *, background):
    """Append every batch, timing each `append()` call; returns the
    per-append latency array (seconds)."""
    with tempfile.TemporaryDirectory() as wal_dir:
        store = IngestingBlotStore(
            initial, _specs(),
            wal_dir=wal_dir,
            auto_compact_at=AUTO_COMPACT_AT,
            background_compaction=background,
        )
        try:
            latencies = np.empty(len(batches))
            for i, batch in enumerate(batches):
                t0 = time.perf_counter()
                store.append(batch)
                latencies[i] = time.perf_counter() - t0
            if background:
                store.wait_for_compaction(timeout=120)
                assert store.compaction_failures == 0, store.last_compaction_error
            assert store.compactions >= 2, (
                "benchmark scale never triggered auto-compaction: "
                f"{store.compactions} compactions")
            assert len(store) == len(initial) + sum(len(b) for b in batches)
        finally:
            store.close()
    return latencies


def test_background_compaction_unblocks_appends(taxi_sample, capsys):
    """p99 append latency with background compaction >= 10x lower than
    the synchronous-compaction baseline on the identical stream."""
    initial = taxi_sample.take(np.arange(0, N_INITIAL))
    batches = [taxi_sample.take(np.arange(lo, lo + BATCH))
               for lo in range(N_INITIAL, N_INITIAL + N_STREAM, BATCH)]

    # Best-of-2 per shape: the gate compares steady-state behaviour, not
    # a single run's scheduler noise.
    sync_p99 = bg_p99 = float("inf")
    sync_mean = bg_mean = float("inf")
    for _ in range(2):
        lat = _stream_appends(initial, batches, background=False)
        if float(np.percentile(lat, 99)) < sync_p99:
            sync_p99 = float(np.percentile(lat, 99))
            sync_mean = float(lat.mean())
        lat = _stream_appends(initial, batches, background=True)
        if float(np.percentile(lat, 99)) < bg_p99:
            bg_p99 = float(np.percentile(lat, 99))
            bg_mean = float(lat.mean())

    speedup = sync_p99 / bg_p99
    lines = [
        fmt_row(["compaction", "p99 ms", "mean ms"], [12, 12, 12]),
        fmt_row(["sync", sync_p99 * 1e3, sync_mean * 1e3], [12, 12, 12]),
        fmt_row(["background", bg_p99 * 1e3, bg_mean * 1e3], [12, 12, 12]),
        f"p99 speedup: {speedup:.1f}x "
        f"({len(batches)} appends of {BATCH}, "
        f"auto_compact_at={AUTO_COMPACT_AT})",
    ]
    emit("bench_ingest_append", "BENCH: ingest append tail latency", lines,
         capsys)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_ingest.json"), "w") as f:
        json.dump({
            "n_appends": len(batches),
            "batch_records": BATCH,
            "auto_compact_at": AUTO_COMPACT_AT,
            "sync_p99_seconds": sync_p99,
            "background_p99_seconds": bg_p99,
            "sync_mean_seconds": sync_mean,
            "background_mean_seconds": bg_mean,
            "p99_speedup": speedup,
        }, f, indent=2, sort_keys=True)
        f.write("\n")
    assert speedup >= 10.0, (
        f"background compaction p99 only {speedup:.1f}x better than "
        f"synchronous ({sync_p99 * 1e3:.2f} ms vs {bg_p99 * 1e3:.2f} ms)")
