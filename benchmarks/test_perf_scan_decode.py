"""Performance gate for the vectorized scan/decode kernels.

Three claims, the first asserted as a hard floor:

1. The numpy batch svarint decoder is at least **10x** faster than the
   scalar reference loop (the pre-vectorization decode path, kept in the
   codebase as the differential-fuzz referee) on a realistic
   delta-encoded column stream.
2. The RLE batch decoder at least tracks its scalar reference on
   run-heavy bytes (both are O(runs), so the ratio hovers near parity
   and only a real slowdown fails).
3. The engine fast paths pay off end to end: a fully-contained
   ``count()`` answers from metadata orders of magnitude faster than
   scanning, and zone-pruned queries beat the full decode+filter scan.

Results land in ``benchmarks/results/BENCH_scan_decode.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.encoding.rle import (
    rle_decode_bytes,
    rle_decode_bytes_scalar,
    rle_encode_bytes,
)
from repro.encoding.varint import (
    decode_svarint_array_scalar,
    decode_svarint_np,
    encode_svarint_array,
)
from repro.geometry import Box3
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore
from repro.workload.query import Query

from benchmarks._report import RESULTS_DIR, emit, fmt_row

N_VALUES = 300_000


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_svarint_decode_speedup(capsys):
    """Vectorized svarint stream decode >= 10x the scalar loop."""
    rng = np.random.default_rng(2014)
    # Delta-encoded sorted timestamps + id churn: mostly 1-2 byte
    # varints with occasional long ones, the shape real columns have.
    deltas = np.concatenate([
        rng.integers(0, 64, size=N_VALUES // 2),
        rng.integers(-(2**20), 2**20, size=N_VALUES // 4),
        rng.integers(-(2**45), 2**45, size=N_VALUES // 4),
    ]).astype(np.int64)
    rng.shuffle(deltas)
    stream = bytearray()
    encode_svarint_array(deltas, stream)
    stream = bytes(stream)
    n = len(deltas)

    # The engine's hot path consumes the numpy array directly
    # (decode_svarint_np feeds cumsum without materializing a list).
    fast = lambda: decode_svarint_np(stream, 0, n)
    slow = lambda: decode_svarint_array_scalar(stream, 0, n)
    assert fast()[0].tolist() == slow()[0]  # bit-exact before timing

    fast_s = _best_of(fast, 5)
    slow_s = _best_of(slow, 2)
    speedup = slow_s / fast_s

    lines = [
        fmt_row(["path", "seconds", "Mvalues/s"], [12, 10, 12]),
        fmt_row(["scalar", slow_s, n / slow_s / 1e6], [12, 10, 12]),
        fmt_row(["vectorized", fast_s, n / fast_s / 1e6], [12, 10, 12]),
        f"speedup: {speedup:.1f}x over {n} values "
        f"({len(stream)} stream bytes)",
    ]
    emit("bench_svarint_decode", "BENCH: vectorized svarint decode",
         lines, capsys)
    _merge_json({
        "svarint_n_values": n,
        "svarint_scalar_seconds": slow_s,
        "svarint_vectorized_seconds": fast_s,
        "svarint_speedup": speedup,
    })
    assert speedup >= 10.0, f"vectorized decode only {speedup:.1f}x faster"


def test_rle_decode_speedup(capsys):
    """Vectorized RLE decode vs the scalar loop on occupancy-shaped runs."""
    rng = np.random.default_rng(7)
    runs = []
    for _ in range(4000):
        runs.append(bytes([rng.integers(0, 2)]) * int(rng.integers(1, 120)))
    raw = b"".join(runs)
    blob = rle_encode_bytes(raw)

    fast = lambda: rle_decode_bytes(blob)
    slow = lambda: rle_decode_bytes_scalar(blob, 0)
    assert fast()[0] == slow()[0]

    fast_s = _best_of(fast, 5)
    slow_s = _best_of(slow, 3)
    speedup = slow_s / fast_s
    lines = [
        fmt_row(["path", "seconds", "MB/s out"], [12, 10, 12]),
        fmt_row(["scalar", slow_s, len(raw) / slow_s / 1e6], [12, 10, 12]),
        fmt_row(["vectorized", fast_s, len(raw) / fast_s / 1e6], [12, 10, 12]),
        f"speedup: {speedup:.1f}x ({len(raw)} bytes from {len(blob)})",
    ]
    emit("bench_rle_decode", "BENCH: vectorized RLE decode", lines, capsys)
    _merge_json({
        "rle_raw_bytes": len(raw),
        "rle_scalar_seconds": slow_s,
        "rle_vectorized_seconds": fast_s,
        "rle_speedup": speedup,
    })
    # Both decoders are O(runs) and near parity on short runs; the gate
    # only guards against the vectorized path becoming outright slower.
    assert speedup > 0.5


def test_engine_fast_paths_pay_off(capsys):
    """End-to-end: metadata counts and zone pruning vs the full scan."""
    ds = synthetic_shanghai_taxis(40_000, seed=2014, num_taxis=64)
    ds = ds.sorted_by_time()
    store = BlotStore(ds)
    store.add_replica(CompositeScheme(KdTreePartitioner(32), 8),
                      encoding_scheme_by_name("COL-SNAPPY"), InMemoryStore(),
                      name="r")
    bb = ds.bounding_box()
    full = Query.from_box(bb)
    sliver = Box3(bb.x_min, bb.x_min + bb.width * 1e-7,
                  bb.y_min, bb.y_min + bb.height * 1e-7,
                  bb.t_min, bb.t_max)

    store.count(full)
    store.query(bb)
    store.query(sliver)

    count_s = _best_of(lambda: store.count(full), 5)
    scan_s = _best_of(lambda: store.query(bb), 3)
    sliver_s = _best_of(lambda: store.query(sliver), 5)

    count_speedup = scan_s / count_s
    sliver_speedup = scan_s / sliver_s
    lines = [
        fmt_row(["path", "seconds", "vs full scan"], [22, 10, 14]),
        fmt_row(["full query()", scan_s, 1.0], [22, 10, 14]),
        fmt_row(["metadata count()", count_s, count_speedup], [22, 10, 14]),
        fmt_row(["zone-pruned sliver", sliver_s, sliver_speedup],
                [22, 10, 14]),
    ]
    emit("bench_scan_fastpaths", "BENCH: engine scan fast paths",
         lines, capsys)
    _merge_json({
        "full_scan_seconds": scan_s,
        "metadata_count_seconds": count_s,
        "metadata_count_speedup": count_speedup,
        "pruned_sliver_seconds": sliver_s,
        "pruned_sliver_speedup": sliver_speedup,
    })
    assert count_speedup > 10.0
    assert sliver_speedup > 1.0


def _merge_json(fields: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_scan_decode.json")
    data = {}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
    data.update(fields)
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
