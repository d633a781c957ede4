"""A thread-safe metrics registry: counters, gauges and quantile
sketches.

The telemetry substrate of the engine (see ``docs/observability.md``).
Every component that makes a runtime decision — the query engine, the
decoded-partition cache, the fault injector, the selection solvers —
publishes its counters into one :class:`MetricsRegistry`, so a single
snapshot answers "what did the system actually do", independent of the
per-call :class:`~repro.storage.QueryStats` / ``WorkloadStats`` values.

Design constraints:

- **Thread-safe**: reads on several caller threads may publish into
  one registry at once, so every mutation takes the instrument's lock.
- **One latency instrument**: every measured duration goes into a
  :class:`QuantileSketch` with the fixed resolution :data:`SKETCH_ALPHA`,
  so any two snapshots of this build merge exactly, across threads and
  processes.
- **Pull-based export**: :meth:`MetricsRegistry.snapshot` returns plain
  data (JSON-safe), :meth:`MetricsRegistry.render_prometheus` the
  standard text exposition format.
"""

from __future__ import annotations

import math
import threading

#: Canonical label encoding inside the registry: a sorted tuple of
#: ``(key, value)`` pairs, hashable and order-independent.
LabelSet = tuple[tuple[str, str], ...]

#: ``# HELP`` text for the metric names the engine publishes.  Unknown
#: names fall back to a generic line (the exposition format requires
#: HELP to parse cleanly, not to be insightful).
METRIC_HELP: dict[str, str] = {
    "repro_queries_total": "Queries served, by execution path.",
    "repro_queries_by_replica_total": "Queries served, by serving replica.",
    "repro_workloads_total": "Batch workload executions.",
    "repro_bytes_read_total": "Encoded bytes fetched from unit stores.",
    "repro_records_scanned_total": "Records decoded and scanned.",
    "repro_partitions_involved_total": "Partitions intersecting queries.",
    "repro_query_seconds": "Wall-clock seconds per single query.",
    "repro_workload_seconds": "Wall-clock seconds per workload run.",
    "repro_retries_total": "Partition reads retried after a fault.",
    "repro_failovers_total": "Queries moved to a fallback replica.",
    "repro_repairs_total": "Partitions rebuilt from sibling replicas.",
    "repro_cache_hits_total": "Decoded-partition cache hits.",
    "repro_cache_misses_total": "Decoded-partition cache misses.",
    "repro_cache_evictions_total": "Decoded-partition cache evictions.",
    "repro_cache_inserts_total": "Decoded-partition cache inserts.",
    "repro_cache_invalidations_total": "Decoded-partition cache invalidations.",
    "repro_cache_resident_bytes": "Decoded bytes resident in the cache.",
    "repro_fault_reads_checked_total": "Unit reads checked by the injector.",
    "repro_faults_injected_total": "Faults injected into unit reads.",
    "repro_fault_reads_slowed_total": "Unit reads slowed by the injector.",
    "repro_recalib_applied_total":
        "Cost-model recalibrations applied to the routing model.",
    "repro_recalib_rejected_total":
        "Cost-model recalibrations rejected by the guard.",
    "repro_solver_runs_total": "Replica-selection solver invocations.",
    "repro_solver_replicas_selected_total": "Replicas chosen by solvers.",
    "repro_solver_nodes_explored_total": "Branch-and-bound nodes explored.",
    "repro_verify_checks_total": "Differential verification checks run.",
    "repro_verify_mismatches_total": "Differential verification mismatches.",
    "repro_verify_ok": "1 when the last store verification passed.",
    "repro_columns_decoded_total": "Column blocks decoded, by column kind.",
    "repro_decode_seconds": "Seconds decoding column blocks, by kind.",
    "repro_partitions_pruned_total":
        "Partitions skipped entirely by zone maps.",
    "repro_columns_skipped_total":
        "Column decodes avoided by the lazy x/y/t-first scan.",
    "repro_count_metadata_partitions_total":
        "Fully-contained partitions counted from metadata alone.",
    "repro_request_seconds":
        "Front-door request latency quantiles, by tenant.",
    "repro_requests_total":
        "Front-door requests, by tenant and outcome.",
    "repro_shard_dispatch_seconds":
        "Shard dispatch round-trip latency quantiles, by shard.",
    "repro_admission_admitted_total": "Queries admitted past the limiter.",
    "repro_admission_shed_total":
        "Queries shed at admission (OverloadError).",
    "repro_quota_rejected_total":
        "Queries rejected by tenant quotas, by tenant.",
    "repro_deadline_exceeded_total":
        "Requests or shard tasks dropped on an expired deadline.",
    "repro_slo_evaluations_total": "SLO burn-rate evaluations run.",
    "repro_slo_alerts_total":
        "SLO burn-rate alerts fired, by tenant and objective.",
    "repro_replica_changes_total":
        "Live replica registrations and retirements, by op.",
    "repro_reselect_evaluations_total": "Online reselection evaluations run.",
    "repro_reselect_divergence":
        "Workload divergence at the last reselection evaluation.",
    "repro_reselect_applied_total": "Replica reselections applied.",
    "repro_reselect_rejected_total":
        "Replica reselections rejected by the guards.",
    "repro_ingest_appends_total": "Batches appended to an ingest store.",
    "repro_ingest_records_total": "Records appended to an ingest store.",
    "repro_ingest_append_seconds": "Seconds per ingest append call.",
    "repro_ingest_buffer_records": "Records in the unsealed ingest buffer.",
    "repro_ingest_compactions_total": "Ingest compactions committed, by mode.",
    "repro_ingest_compaction_failures_total":
        "Ingest compactions that raised, by mode.",
    "repro_ingest_compaction_seconds": "Seconds per committed compaction.",
    "repro_ingest_windows_sealed_total": "Time windows sealed by compaction.",
    "repro_ingest_windows": "Sealed time windows currently served.",
    "repro_wal_appends_total": "Frames appended to the write-ahead log.",
    "repro_wal_bytes_total": "Bytes appended to the write-ahead log.",
    "repro_wal_torn_tails_total": "Torn WAL tails truncated on replay.",
    "repro_wal_replayed_batches_total": "WAL batches replayed on open.",
    "repro_wal_replayed_records_total": "WAL records replayed on open.",
    "repro_wal_snapshots_total": "WAL snapshots committed.",
    "repro_antientropy_sweeps_total": "Anti-entropy sweeps run.",
    "repro_antientropy_windows_total": "Layers checked by anti-entropy.",
    "repro_antientropy_failures_total":
        "Layers that failed an anti-entropy check.",
    "repro_antientropy_ok": "1 when the last anti-entropy sweep passed.",
}


def _labelset(labels: dict[str, str] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double quote and newline (in that order — escaping the
    escapes first keeps the mapping bijective)."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing value (events, bytes, retries)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (resident bytes, active spans)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


#: Quantiles every sketch reports in snapshots and expositions.
SKETCH_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

#: Relative-error bound of every quantile sketch: a reported p99 is
#: within 1% of the true value.  Fixed, so every sketch this build
#: writes merges with every other; snapshots still carry it, because a
#: merge may meet a snapshot from another build.
SKETCH_ALPHA = 0.01

_LOG_GAMMA = math.log((1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA))

#: Observations below this collapse into the sketch's zero bucket (the
#: log mapping cannot represent 0).
_SKETCH_MIN_VALUE = 1e-9


def sketch_quantile(alpha: float, zero: int, buckets: dict[int, int],
                    count: int, q: float) -> float | None:
    """Read quantile ``q`` out of sketch state (``zero`` count plus
    ``{bucket_index: count}``); None when the sketch is empty.  Shared
    by the live instrument and the cross-process merge path, so a
    merged snapshot reports quantiles identically to a local one."""
    if count <= 0:
        return None
    gamma = (1.0 + alpha) / (1.0 - alpha)
    rank = max(0, math.ceil(q * count) - 1)
    if rank < zero:
        return 0.0
    cumulative = zero
    last = 0.0
    for idx in sorted(buckets):
        cumulative += buckets[idx]
        last = 2.0 * gamma ** idx / (gamma + 1.0)
        if cumulative > rank:
            return last
    return last


class QuantileSketch:
    """Mergeable streaming quantiles over log-spaced buckets.

    DDSketch-style: a value lands in bucket ``ceil(log_gamma(v))`` with
    ``gamma = (1+alpha)/(1-alpha)`` and ``alpha =``
    :data:`SKETCH_ALPHA`, so any reported quantile is within relative
    error ``alpha`` of the true order statistic.  Sketches merge
    *exactly* by summing bucket counts — the property P² lacks — which
    is what lets per-worker latency sketches fold into fleet-wide
    percentiles in :mod:`repro.obs.aggregate`.
    """

    __slots__ = ("name", "labels", "_buckets", "_zero", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0.0:
            raise ValueError("quantile sketches take non-negative values")
        idx = None
        if value >= _SKETCH_MIN_VALUE:
            idx = math.ceil(math.log(value) / _LOG_GAMMA)
        with self._lock:
            if idx is None:
                self._zero += 1
            else:
                self._buckets[idx] = self._buckets.get(idx, 0) + 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float | None:
        """The value at quantile ``q`` (None when empty), within
        relative error :data:`SKETCH_ALPHA`."""
        with self._lock:
            zero, buckets, count = self._zero, dict(self._buckets), \
                self._count
        return sketch_quantile(SKETCH_ALPHA, zero, buckets, count, q)

    def state(self) -> dict:
        """The sketch as plain JSON-safe data: raw buckets (keyed by
        stringified index, JSON objects cannot key on ints) for exact
        merging, plus the canonical quantile readings for display."""
        with self._lock:
            zero, buckets, count = self._zero, dict(self._buckets), \
                self._count
            total_sum, lo, hi = self._sum, self._min, self._max
        return {
            "alpha": SKETCH_ALPHA,
            "count": count,
            "sum": total_sum,
            "min": lo,
            "max": hi,
            "zero": zero,
            "buckets": {str(idx): n for idx, n in sorted(buckets.items())},
            "quantiles": {
                str(q): sketch_quantile(SKETCH_ALPHA, zero, buckets, count, q)
                for q in SKETCH_QUANTILES
            },
        }


class MetricsRegistry:
    """Get-or-create registry of named, optionally labeled instruments.

    One registry per :class:`~repro.obs.Observability`; instruments are
    identified by ``(name, labels)`` and re-requesting an existing one
    returns the same object.  Requesting an existing name as a different
    instrument type raises ``TypeError`` — a name means one thing.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelSet], object] = {}
        self._types: dict[str, type] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: dict[str, str] | None):
        key = (name, _labelset(labels))
        # Lock-free fast path: the metrics dict only ever grows, and
        # dict.get is atomic under the GIL, so a hit needs no lock —
        # this runs once per scan/decode on the engine's hot path.
        existing = self._metrics.get(key)
        if existing is not None and type(existing) is cls:
            return existing
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}")
                return existing
            declared = self._types.get(name)
            if declared is not None and declared is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{declared.__name__}, not {cls.__name__}")
            metric = cls(name, key[1])
            self._metrics[key] = metric
            self._types[name] = cls
            return metric

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def quantile_sketch(
        self, name: str, labels: dict[str, str] | None = None,
    ) -> QuantileSketch:
        return self._get(QuantileSketch, name, labels)

    def _sorted_metrics(self) -> list[object]:
        with self._lock:
            items = list(self._metrics.items())
        items.sort(key=lambda kv: kv[0])
        return [m for _, m in items]

    def counter_value(self, name: str, labels: dict[str, str] | None = None,
                      default: float = 0.0) -> float:
        """The current value of one counter, ``default`` when it was
        never created (a path that never ran publishes nothing)."""
        key = (name, _labelset(labels))
        with self._lock:
            metric = self._metrics.get(key)
        if metric is None:
            return default
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is not a Counter")
        return metric.value

    def snapshot(self) -> dict:
        """All instruments as plain JSON-safe data, deterministically
        ordered by ``(name, labels)``."""
        out: dict[str, list[dict]] = {"counters": [], "gauges": [],
                                      "quantiles": []}
        for metric in self._sorted_metrics():
            labels = dict(metric.labels)
            if isinstance(metric, Counter):
                out["counters"].append(
                    {"name": metric.name, "labels": labels,
                     "value": metric.value})
            elif isinstance(metric, Gauge):
                out["gauges"].append(
                    {"name": metric.name, "labels": labels,
                     "value": metric.value})
            elif isinstance(metric, QuantileSketch):
                out["quantiles"].append(
                    {"name": metric.name, "labels": labels,
                     **metric.state()})
        return out

    @staticmethod
    def _header(lines: list[str], seen: set[str], name: str,
                kind: str) -> None:
        if name in seen:
            return
        seen.add(name)
        help_text = METRIC_HELP.get(name, f"repro metric {name}.")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    def render_prometheus(self) -> str:
        """The standard Prometheus text exposition format: ``# HELP`` +
        ``# TYPE`` per metric name, escaped label values; a sketch
        renders as a summary whose ``{quantile=...}``, ``_sum`` and
        ``_count`` lines come from one lock acquisition."""
        lines: list[str] = []
        seen: set[str] = set()
        for metric in self._sorted_metrics():
            if isinstance(metric, Counter):
                self._header(lines, seen, metric.name, "counter")
                lines.append(
                    f"{metric.name}{_render_labels(metric.labels)} "
                    f"{_fmt(metric.value)}")
            elif isinstance(metric, Gauge):
                self._header(lines, seen, metric.name, "gauge")
                lines.append(
                    f"{metric.name}{_render_labels(metric.labels)} "
                    f"{_fmt(metric.value)}")
            elif isinstance(metric, QuantileSketch):
                self._header(lines, seen, metric.name, "summary")
                state = metric.state()
                for q in SKETCH_QUANTILES:
                    value = state["quantiles"][str(q)]
                    if value is None:
                        continue
                    q_labels = metric.labels + (("quantile", _fmt(q)),)
                    lines.append(
                        f"{metric.name}{_render_labels(q_labels)} "
                        f"{_fmt(value)}")
                lines.append(
                    f"{metric.name}_sum{_render_labels(metric.labels)} "
                    f"{_fmt(state['sum'])}")
                lines.append(
                    f"{metric.name}_count{_render_labels(metric.labels)} "
                    f"{state['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Render integral floats without the trailing ``.0`` noise."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
