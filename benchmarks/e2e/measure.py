"""Small measuring tools: the benchmark's own span log, percentiles, RSS."""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager


class SpanLog:
    """The benchmark's own spans, recorded around every public call it
    makes into the program; kept in memory, written out at the end.

    Deliberately not the program's ``TraceRecorder``: these spans must
    exist on the untraced pass too, and must never wrap.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "attrs": attrs}
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        self.spans.append({"name": name, "start": start, "end": end,
                           "attrs": attrs})

    def dump_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has waited
    for, whichever is larger, in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def median_of(fn, repeat: int = 3) -> float:
    """Median seconds of ``repeat`` calls — for micro-measurements whose
    single reading is dominated by scheduler noise."""
    return median([timed(fn)[0] for _ in range(repeat)])


class QueryCounts:
    """Count-type engine metrics from ``QueryStats``, over a fixed-length
    prefix of a single client's ops so they repeat exactly between runs
    that last different lengths of time."""

    def __init__(self, limit: int):
        self.limit = limit
        self.ops = self.bytes = self.partitions = 0
        self.scanned = self.returned = 0

    def add(self, stats) -> None:
        if self.ops >= self.limit:
            return
        self.ops += 1
        self.bytes += stats.bytes_read
        self.partitions += stats.partitions_involved
        self.scanned += stats.records_scanned
        self.returned += stats.records_returned

    def metrics(self) -> dict:
        ops = max(1, self.ops)
        return {
            "engine.bytes_read_per_query": self.bytes / ops,
            "engine.partitions_per_query": self.partitions / ops,
            "engine.scan_efficiency":
                self.returned / self.scanned if self.scanned else 0.0,
        }


def read_metrics(samples, wall_s: float) -> dict:
    """The end-to-end read metrics of one timed window; ``samples`` are
    ``(index, t0, t1, n_records)``."""
    latencies = [1e3 * (t1 - t0) for _i, t0, t1, _n in samples]
    return {"qps": len(latencies) / wall_s,
            "p50_ms": median(latencies),
            "p90_ms": percentile(latencies, 90)}


def tracing_overhead(untraced: dict, traced: dict) -> float:
    """1 - traced qps / untraced qps, from two phases of one run."""
    return 1.0 - (len(traced["samples"]) / traced["wall_s"]) \
        / (len(untraced["samples"]) / untraced["wall_s"])


def client_metrics(samples, wall_s: float) -> dict:
    """What the benchmark's own client spans say beyond the gated three:
    printed with the layer metrics, never gated (p99 moved 5-25 % between
    identical runs)."""
    latencies = [1e3 * (t1 - t0) for _i, t0, t1, _n in samples]
    return {"client.records_per_s": sum(s[3] for s in samples) / wall_s,
            "client.p95_ms": percentile(latencies, 95),
            "client.p99_ms": percentile(latencies, 99)}
