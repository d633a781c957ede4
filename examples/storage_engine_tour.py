#!/usr/bin/env python3
"""A tour of the BLOT storage engine internals.

Walks through what the paper's Sections II-B/II-C/II-D describe: how a
dataset is partitioned, how encodings trade size for scan speed, and how
the Figure 2 trade-off (involved partitions Np vs fraction of data
scanned S) plays out on real data.

    python examples/storage_engine_tour.py
"""

import time

from repro import (
    Box3,
    CompositeScheme,
    GridPartitioner,
    InMemoryStore,
    KdTreePartitioner,
    all_encoding_schemes,
    build_replica,
    encoding_scheme_by_name,
    measure_compression_ratio,
    synthetic_shanghai_taxis,
)


def partitioning_section(data) -> None:
    print("=== partitioning (Section II-B) ===")
    for scheme in (GridPartitioner(4, 4, 4),
                   CompositeScheme(KdTreePartitioner(16), 4)):
        p = scheme.build(data)
        print(f"  {p.scheme_name:10s} {p.n_partitions:4d} partitions, "
              f"skew (max/mean count) = {p.skew():.2f}")
    print("  -> the equal-count k-d tree keeps partitions non-skewed, the\n"
          "     property the cost model assumes; the uniform grid does not.\n")


def encoding_section(data) -> None:
    print("=== encoding (Section II-C, Table I) ===")
    sample = data.head(8000).sorted_by_time()
    print(f"  {'scheme':11s} {'ratio':>6s} {'enc MB/s':>9s} {'dec MB/s':>9s}")
    base_bytes = None
    for scheme in all_encoding_schemes():
        t0 = time.perf_counter()
        blob = scheme.encode(sample)
        enc_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        scheme.decode(blob)
        dec_s = time.perf_counter() - t0
        ratio = measure_compression_ratio(scheme, sample)
        if base_bytes is None:
            base_bytes = len(blob)
        mb = base_bytes / 1e6
        print(f"  {scheme.name:11s} {ratio:6.3f} {mb / max(enc_s, 1e-9):9.1f} "
              f"{mb / max(dec_s, 1e-9):9.1f}")
    print("  -> higher compression = slower scan: the trade-off the replica\n"
          "     selection problem balances.\n")


def figure2_section(data) -> None:
    print("=== the Figure 2 trade-off: Np vs fraction scanned ===")
    bb = data.bounding_box()
    c = bb.centroid
    query = Box3.from_center_size((c.x, c.y, c.t), bb.width * 0.3,
                                  bb.height * 0.3, bb.duration)
    enc = encoding_scheme_by_name("ROW-PLAIN")
    print("  query: 30% x 30% of space, full time range")
    print(f"  {'layout':12s} {'Np':>5s} {'S (scanned)':>12s}")
    for scheme in (GridPartitioner(2, 2, 1), GridPartitioner(4, 2, 1),
                   GridPartitioner(8, 8, 1),
                   CompositeScheme(KdTreePartitioner(16), 1)):
        replica = build_replica(data, scheme, enc, InMemoryStore())
        involved = replica.involved_partitions(query)
        scanned = sum(
            int(replica.partitioning.counts[i]) for i in involved
        )
        print(f"  {replica.partitioning.scheme_name:12s} {len(involved):5d} "
              f"{scanned / len(data):12.1%}")
    print("  -> fine layouts scan fewer records but touch more partitions\n"
          "     (each paying ExtraTime); no single layout wins all queries.\n")


def main() -> None:
    data = synthetic_shanghai_taxis(20_000, seed=31)
    print(f"dataset: {len(data):,} records, "
          f"{data.csv_size_bytes() / 1e6:.1f} MB as CSV, "
          f"{data.binary_size_bytes() / 1e6:.1f} MB as raw columns\n")
    partitioning_section(data)
    encoding_section(data)
    figure2_section(data)


if __name__ == "__main__":
    main()
