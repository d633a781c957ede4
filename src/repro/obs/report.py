"""The operational report: one JSON/text picture of engine health.

``repro report`` (and any embedding application) renders the closed
telemetry loop in one document:

- **queries / cache / degradation** — live counter roll-ups from the
  :class:`~repro.obs.MetricsRegistry` (what the engine actually did);
- **drift** — per-replica predicted-vs-measured status from the
  :class:`~repro.obs.DriftMonitor` (is Section V-B recalibration due);
- **recalibration** — the :class:`~repro.obs.recalibrate.Recalibrator`
  audit trail, read from the on-disk
  :class:`~repro.obs.timeseries.TimeseriesStore` when one is attached
  (so the trail survives restarts) and from the live audit log
  otherwise;
- **trends** — first/last/delta per counter across the persisted
  snapshot history, the "what changed since yesterday" view the live
  registry cannot answer;
- **slo** (schema v4) — the per-tenant burn-rate picture from an
  attached :class:`~repro.obs.slo.SLOEngine`: declared objectives,
  last-evaluation statuses, currently-firing alerts and the
  firing/resolved audit trail (read from the timeseries store when one
  is attached, the live engine otherwise).

:data:`REPORT_SCHEMA` is the one definition of the document: section →
field → kind, and for counter-backed fields the metric (and label) the
field folds.  :func:`build_report` fills every counter-backed field
from it and :func:`validate_report` — the schema gate CI runs against
``repro report --json`` — checks every field and audit entry against
it (the toolchain carries no jsonschema dependency): strict about
section presence and types, loose about additive extension.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["REPORT_SCHEMA", "REPORT_SCHEMA_VERSION", "build_report",
           "render_report_text", "render_telemetry_text", "render_top_text",
           "render_workload_pass", "validate_report"]

REPORT_SCHEMA_VERSION = 4


class _Entries(NamedTuple):
    """A list (or, with ``container=dict``, a mapping's values) of
    mappings.  Untagged, every entry has the fields of ``shape``;
    tagged, ``shape`` maps each allowed value of the entry's ``tag``
    field to the fields that variant carries."""

    shape: dict
    tag: str | None = None
    container: type = list


# Leaf kinds.  A counter-backed field is spelled by what it folds: a
# metric name (summed over its label sets: a number) or a ``(metric,
# label)`` pair (grouped by that label: a dict).  Any other field is
# the tuple of Python types it admits, ``_PRESENT`` when only the key
# is required, or (``schema_version``) the one value it must equal.
_NUMBER = (int, float)
_OPTIONAL_NUMBER = (int, float, type(None))
_PRESENT = ()

_CALIBRATION_DECISION = dict.fromkeys(
    ("replica", "encoding", "old_scan_rate", "old_extra_time", "n_samples"),
    _PRESENT)
_CALIBRATION_PROPOSAL = dict(_CALIBRATION_DECISION,
                             new_scan_rate=_NUMBER, new_extra_time=_NUMBER)
_RESELECTION_DECISION = dict.fromkeys(
    ("epoch", "divergence", "incumbent", "candidate", "improvement",
     "built", "retired"), _PRESENT)
_SLO_TRANSITION = {"tenant": _PRESENT, "objective": _PRESENT}

REPORT_SCHEMA: dict = {
    "schema_version": REPORT_SCHEMA_VERSION,
    "queries": {
        "workloads": "repro_workloads_total",
        "by_path": ("repro_queries_total", "path"),
        "by_replica": ("repro_queries_by_replica_total", "replica"),
        "bytes_read": "repro_bytes_read_total",
        "records_scanned": "repro_records_scanned_total",
    },
    "scan": {
        "partitions_pruned": "repro_partitions_pruned_total",
        "columns_skipped": "repro_columns_skipped_total",
        "count_metadata_partitions": "repro_count_metadata_partitions_total",
        "columns_decoded_by_kind": ("repro_columns_decoded_total", "kind"),
    },
    "cache": {
        "hits": "repro_cache_hits_total",
        "misses": "repro_cache_misses_total",
        "hit_rate": _OPTIONAL_NUMBER,
        "evictions": "repro_cache_evictions_total",
        "invalidations": "repro_cache_invalidations_total",
    },
    "degradation": {
        "retries": "repro_retries_total",
        "failovers": "repro_failovers_total",
        "repairs": "repro_repairs_total",
        "faults_injected": "repro_faults_injected_total",
    },
    "drift": {
        "replicas": _Entries(dict.fromkeys(
            ("replica", "samples", "mean_relative_error", "flagged"),
            _PRESENT)),
        "flagged": (list,),
    },
    "ingest": {
        "appends": "repro_ingest_appends_total",
        "records": "repro_ingest_records_total",
        "compactions_by_mode": ("repro_ingest_compactions_total", "mode"),
        "compaction_failures": "repro_ingest_compaction_failures_total",
        "windows_sealed": "repro_ingest_windows_sealed_total",
        "wal": {
            "appends": "repro_wal_appends_total",
            "bytes": "repro_wal_bytes_total",
            "torn_tails": "repro_wal_torn_tails_total",
            "replayed_batches": "repro_wal_replayed_batches_total",
            "snapshots": "repro_wal_snapshots_total",
        },
        "anti_entropy": {
            "sweeps": "repro_antientropy_sweeps_total",
            "windows": "repro_antientropy_windows_total",
            "failures": "repro_antientropy_failures_total",
        },
    },
    "recalibration": {
        "applied": "repro_recalib_applied_total",
        "rejected": "repro_recalib_rejected_total",
        "audit": _Entries({"applied": _CALIBRATION_PROPOSAL,
                           "dry-run": _CALIBRATION_PROPOSAL,
                           "rejected": _CALIBRATION_DECISION}, tag="action"),
    },
    "reselection": {
        "evaluations": "repro_reselect_evaluations_total",
        "applied": "repro_reselect_applied_total",
        "rejected": "repro_reselect_rejected_total",
        "replica_changes_by_op": ("repro_replica_changes_total", "op"),
        "audit": _Entries(dict.fromkeys(
            ("applied", "rejected", "dry-run", "skipped"),
            _RESELECTION_DECISION), tag="action"),
    },
    "slo": {
        "objectives": (list,),
        "evaluations": "repro_slo_evaluations_total",
        "alerts": "repro_slo_alerts_total",
        "firing": (list,),
        "status": _Entries({
            "tenant": _PRESENT, "objective": _PRESENT, "firing": _PRESENT,
            "windows": _Entries(dict.fromkeys(
                ("seconds", "max_burn", "events", "bad_fraction",
                 "burn_rate"), _NUMBER)),
        }),
        "audit": _Entries({"firing": _SLO_TRANSITION,
                           "resolved": _SLO_TRANSITION}, tag="action"),
    },
    "trends": {
        "snapshots": (int,),
        "counters": _Entries(dict.fromkeys(("first", "last", "delta"),
                                           _NUMBER), container=dict),
    },
    "history": {
        "attached": (bool,),
        "entries": (int,),
        "last_seq": (int,),
    },
}


def _counter_total(metrics_snapshot: dict, name: str) -> float:
    """Sum one counter across all its label sets."""
    return sum(c["value"] for c in metrics_snapshot["counters"]
               if c["name"] == name)


def _counter_by_label(metrics_snapshot: dict, name: str,
                      label: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for c in metrics_snapshot["counters"]:
        if c["name"] != name:
            continue
        key = c["labels"].get(label, "")
        out[key] = out.get(key, 0.0) + c["value"]
    return out


def _trends(snapshots: list[dict]) -> dict:
    """Per-counter first/last/delta across persisted snapshot entries.

    Counters are summed across label sets per snapshot, so a trend line
    answers "how much of X happened over the retained history" without
    exploding into label combinations.
    """
    if len(snapshots) < 2:
        return {"snapshots": len(snapshots), "counters": {}}
    first, last = snapshots[0], snapshots[-1]
    names = sorted(
        {c["name"] for snap in (first, last)
         for c in snap["data"]["metrics"]["counters"]})
    counters = {}
    for name in names:
        a = _counter_total(first["data"]["metrics"], name)
        b = _counter_total(last["data"]["metrics"], name)
        counters[name] = {"first": a, "last": b, "delta": b - a}
    return {
        "snapshots": len(snapshots),
        "first_seq": first["seq"],
        "last_seq": last["seq"],
        "counters": counters,
    }


def _folds(spec) -> tuple | None:
    """``(metric, label)`` when ``spec`` is a counter-backed leaf
    (``label`` None: summed over its label sets), else None."""
    if isinstance(spec, str):
        return spec, None
    if type(spec) is tuple and spec and isinstance(spec[0], str):
        return spec
    return None


def _fold_counters(fields: dict, metrics_snapshot: dict) -> dict:
    """The counter-backed fields of one :data:`REPORT_SCHEMA` section
    (and its nested sections), folded from a registry snapshot."""
    out: dict = {}
    for name, spec in fields.items():
        if isinstance(spec, dict):
            out[name] = _fold_counters(spec, metrics_snapshot)
        elif _folds(spec):
            metric, label = _folds(spec)
            out[name] = (_counter_total(metrics_snapshot, metric)
                         if label is None else
                         _counter_by_label(metrics_snapshot, metric, label))
    return out


def build_report(obs, timeseries=None, recalibrator=None,
                 reselector=None, slo=None) -> dict:
    """Assemble the operational report from whatever is attached.

    ``obs`` is an :class:`~repro.obs.Observability` bundle; the
    timeseries store, recalibrator, reselection controller and
    :class:`~repro.obs.slo.SLOEngine` are optional — absent layers
    produce empty-but-present sections, so the schema is stable.
    """
    report = _fold_counters(REPORT_SCHEMA, obs.metrics.snapshot())
    report["schema_version"] = REPORT_SCHEMA_VERSION

    cache = report["cache"]
    lookups = cache["hits"] + cache["misses"]
    cache["hit_rate"] = cache["hits"] / lookups if lookups else None

    drift_snapshot = obs.drift.snapshot()
    report["drift"] = {
        "replicas": drift_snapshot,
        "flagged": [d["replica"] for d in drift_snapshot if d["flagged"]],
    }

    if reselector is None:
        reselector = getattr(obs, "reselector", None)

    if timeseries is not None:
        audit = [dict(e["data"], seq=e["seq"])
                 for e in timeseries.entries("calibration")]
        reselect_audit = [dict(e["data"], seq=e["seq"])
                          for e in timeseries.entries("reselection")]
        slo_audit = [dict(e["data"], seq=e["seq"])
                     for e in timeseries.entries("slo")]
        snapshots = timeseries.entries("snapshot")
        report["history"] = {
            "attached": True,
            "path": timeseries.path,
            "entries": len(timeseries),
            "last_seq": timeseries.last_seq,
        }
    else:
        audit = recalibrator.audit_dicts() if recalibrator is not None else []
        reselect_audit = (reselector.audit_dicts()
                          if reselector is not None
                          and hasattr(reselector, "audit_dicts") else [])
        slo_audit = slo.audit_dicts() if slo is not None else []
        snapshots = []
        report["history"] = {"attached": False, "path": None, "entries": 0,
                             "last_seq": 0}

    report["recalibration"]["audit"] = audit
    report["reselection"]["audit"] = reselect_audit
    report["slo"].update(
        objectives=slo.objective_dicts() if slo is not None else [],
        firing=([{"tenant": t, "objective": o} for t, o in slo.firing]
                if slo is not None else []),
        status=slo.status_dicts() if slo is not None else [],
        audit=slo_audit,
    )
    report["trends"] = _trends(snapshots)
    return report


def render_workload_pass(label: str, stats, cache_enabled: bool) -> str:
    """One :class:`~repro.storage.WorkloadStats` as the text block the
    ``run-workload``, ``stats`` and ``drill`` commands print per pass."""
    s = stats
    lines = [f"[{label}] {s.n_queries} queries in {s.seconds * 1e3:.1f} ms "
             f"({s.n_queries / s.seconds:,.0f} q/s)",
             f"  read {s.bytes_read / 1e6:.2f} MB across "
             f"{s.partitions_decoded} partition decodes, scanned "
             f"{s.records_scanned:,} records, returned {s.records_returned:,}"]
    if cache_enabled:
        lines.append(f"  cache hit rate {s.cache_hit_rate:.1%} "
                     f"({s.cache_hits} hits / {s.cache_misses} misses)")
    lines.append("  routing: " + ", ".join(
        f"{name}={count}"
        for name, count in sorted(s.per_replica_queries.items())))
    if s.degraded:
        failed = ", ".join(s.failed_replicas) or "none"
        lines.append(f"  degraded: {s.failovers} failovers, {s.retries} "
                     f"retries, {s.repairs} repairs; failed replicas: "
                     f"{failed}; est. extra cost "
                     f"{s.degraded_cost_delta:+.2f}s")
    return "\n".join(lines)


def render_telemetry_text(obs) -> str:
    """An :class:`~repro.obs.Observability` bundle's cache, degradation,
    trace and drift tallies as the ``telemetry:`` block of ``stats``,
    ``run-workload --trace`` and ``drill``."""
    m = obs.metrics
    lines = ["telemetry:"]
    hits = m.counter_value("repro_cache_hits_total")
    lookups = hits + m.counter_value("repro_cache_misses_total")
    if lookups:
        lines.append(f"  cache: {hits:.0f} of {lookups:.0f} lookups hit "
                     f"({hits / lookups:.1%})")
    lines.append(
        f"  degradation: {m.counter_value('repro_retries_total'):.0f} "
        f"retries, {m.counter_value('repro_failovers_total'):.0f} "
        f"failovers, {m.counter_value('repro_repairs_total'):.0f} repairs")
    counts = obs.tracer.span_counts()
    if counts:
        spans = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        lines.append(f"  trace: {obs.tracer.recorded} spans ({spans})")
    for st in obs.drift.statuses():
        verdict = "DRIFTING — recalibrate" if st.flagged else "ok"
        lines.append(f"  drift[{st.replica_name}]: {st.samples} samples, "
                     f"mean rel. error {st.mean_relative_error:.2f}, "
                     f"measured/predicted x{st.scale_factor:.2f} "
                     f"({verdict})")
    return "\n".join(lines)


def _quantile_ms(entry: dict, q: str) -> str:
    value = (entry.get("quantiles") or {}).get(q)
    if value is None:
        return "-"
    return f"{value * 1e3:.1f}ms"


def render_top_text(snapshot: dict) -> str:
    """A serving metrics snapshot (``ShardServer.metrics_snapshot``,
    ``repro serve --metrics-out``) as the ``repro top`` text board:
    front-door counters, per-tenant latency quantiles, per-shard
    dispatch quantiles, SLO state."""
    lines: list[str] = []
    server = snapshot.get("server", {})
    lines.append(
        f"served {server.get('queries_served', 0)}  "
        f"shed {server.get('shed', 0)}  "
        f"quota-rejected {server.get('quota_rejected', 0)}  "
        f"failovers {server.get('failovers', 0)}  "
        f"degraded {server.get('degraded', 0)}  "
        f"batches {server.get('batches_flushed', 0)}")
    merged = snapshot.get("merged", {})
    outcomes: dict[tuple[str, str], float] = {}
    for counter in merged.get("counters", []):
        if counter.get("name") != "repro_requests_total":
            continue
        labels = counter.get("labels") or {}
        key = (labels.get("tenant", "?"), labels.get("outcome", "?"))
        outcomes[key] = outcomes.get(key, 0.0) + counter.get("value", 0.0)
    request_sketches = []
    shard_sketches = []
    for entry in merged.get("quantiles", []):
        if entry.get("name") == "repro_request_seconds":
            request_sketches.append(entry)
        elif entry.get("name") == "repro_shard_dispatch_seconds":
            shard_sketches.append(entry)
    if request_sketches:
        lines.append("tenant latencies (merged sketches):")
        for entry in request_sketches:
            tenant = (entry.get("labels") or {}).get("tenant", "?")
            tallies = " ".join(
                f"{outcome}={int(n)}" for (t, outcome), n
                in sorted(outcomes.items()) if t == tenant)
            lines.append(
                f"  {tenant:<12} n={entry.get('count', 0):<6} "
                f"p50={_quantile_ms(entry, '0.5'):<9} "
                f"p95={_quantile_ms(entry, '0.95'):<9} "
                f"p99={_quantile_ms(entry, '0.99'):<9} {tallies}")
    if shard_sketches:
        lines.append("shard dispatch:")
        for entry in shard_sketches:
            shard = (entry.get("labels") or {}).get("shard", "?")
            lines.append(
                f"  shard-{shard:<6} n={entry.get('count', 0):<6} "
                f"p50={_quantile_ms(entry, '0.5'):<9} "
                f"p99={_quantile_ms(entry, '0.99'):<9}")
    slo = snapshot.get("slo")
    if slo is not None:
        firing = slo.get("firing", [])
        if firing:
            lines.append("SLO: FIRING " + ", ".join(
                f"{f['tenant']}/{f['objective']}" for f in firing))
        else:
            lines.append(
                f"SLO: healthy ({len(slo.get('objectives', []))} "
                "objectives)")
        for status in slo.get("status", []):
            burns = " ".join(
                f"{w['seconds']:g}s:{w['burn_rate']:.2f}x"
                for w in status.get("windows", []))
            flag = "FIRING" if status.get("firing") else "ok"
            lines.append(f"  {status['tenant']}/{status['objective']}: "
                         f"{flag} burn {burns}")
    return "\n".join(lines)


def render_report_text(report: dict) -> str:
    """The human-readable rendering of :func:`build_report`'s output."""
    lines: list[str] = []
    q = report["queries"]
    lines.append("operational report")
    lines.append(f"  queries: {sum(q['by_path'].values()):.0f} "
                 f"(workloads: {q['workloads']:.0f})")
    for path, n in sorted(q["by_path"].items()):
        lines.append(f"    path {path or '-'}: {n:.0f}")
    for replica, n in sorted(q["by_replica"].items()):
        lines.append(f"    replica {replica}: {n:.0f}")
    lines.append(f"  bytes read: {q['bytes_read']:,.0f}   "
                 f"records scanned: {q['records_scanned']:,.0f}")

    sc = report.get("scan")
    if sc is not None:
        lines.append(
            f"  scan fast paths: {sc['partitions_pruned']:.0f} partitions "
            f"zone-pruned, {sc['columns_skipped']:.0f} column decodes "
            f"skipped, {sc['count_metadata_partitions']:.0f} partitions "
            f"counted from metadata")
        decoded = sc["columns_decoded_by_kind"]
        if decoded:
            by_kind = ", ".join(f"{kind} {n:.0f}"
                                for kind, n in sorted(decoded.items()))
            lines.append(f"    column blocks decoded: {by_kind}")

    c = report["cache"]
    rate = "n/a" if c["hit_rate"] is None else f"{c['hit_rate']:.1%}"
    lines.append(f"  cache: {c['hits']:.0f} hits / {c['misses']:.0f} misses "
                 f"(hit rate {rate}, evictions {c['evictions']:.0f})")

    d = report["degradation"]
    lines.append(f"  degradation: retries {d['retries']:.0f}, "
                 f"failovers {d['failovers']:.0f}, "
                 f"repairs {d['repairs']:.0f}, "
                 f"faults injected {d['faults_injected']:.0f}")

    drift = report["drift"]
    if drift["replicas"]:
        for s in drift["replicas"]:
            flag = " FLAGGED" if s["flagged"] else ""
            scale = s["scale_factor"]
            scale_txt = "inf" if scale is None else f"{scale:.3g}"
            lines.append(
                f"  drift[{s['replica']}]: n={s['samples']} "
                f"err={s['mean_relative_error']:.3f} "
                f"scale={scale_txt}{flag}")
    else:
        lines.append("  drift: no samples")

    ing = report.get("ingest")
    if ing is not None and (ing["appends"] or ing["wal"]["appends"]):
        modes = ", ".join(f"{mode} {n:.0f}" for mode, n
                          in sorted(ing["compactions_by_mode"].items()))
        lines.append(
            f"  ingest: {ing['appends']:.0f} appends "
            f"({ing['records']:,.0f} records), compactions "
            f"[{modes or 'none'}], {ing['compaction_failures']:.0f} failed, "
            f"{ing['windows_sealed']:.0f} windows sealed")
        w = ing["wal"]
        lines.append(
            f"    wal: {w['appends']:.0f} frames "
            f"({w['bytes']:,.0f} bytes), {w['snapshots']:.0f} snapshots, "
            f"{w['replayed_batches']:.0f} batches replayed, "
            f"{w['torn_tails']:.0f} torn tails sealed")
        ae = ing["anti_entropy"]
        if ae["sweeps"]:
            lines.append(
                f"    anti-entropy: {ae['sweeps']:.0f} sweeps over "
                f"{ae['windows']:.0f} windows, "
                f"{ae['failures']:.0f} failures")

    r = report["recalibration"]
    lines.append(f"  recalibration: {r['applied']:.0f} applied, "
                 f"{r['rejected']:.0f} rejected")
    for entry in r["audit"]:
        if entry["action"] == "rejected":
            lines.append(
                f"    [{entry['action']}] {entry['replica']}"
                f"/{entry['encoding']}: {entry['reason']}")
        else:
            lines.append(
                f"    [{entry['action']}] {entry['replica']}"
                f"/{entry['encoding']}: "
                f"ScanRate {entry['old_scan_rate']:.4g} -> "
                f"{entry['new_scan_rate']:.4g}, "
                f"ExtraTime {entry['old_extra_time']:.4g} -> "
                f"{entry['new_extra_time']:.4g}, "
                f"n={entry['n_samples']}")

    rs = report.get("reselection")
    if rs is not None and (rs["evaluations"] or rs["audit"]):
        changes = ", ".join(f"{op} {n:.0f}" for op, n
                            in sorted(rs["replica_changes_by_op"].items()))
        lines.append(
            f"  reselection: {rs['evaluations']:.0f} evaluations, "
            f"{rs['applied']:.0f} applied, {rs['rejected']:.0f} rejected"
            + (f" (replica changes: {changes})" if changes else ""))
        for entry in rs["audit"]:
            if entry["action"] == "applied":
                lines.append(
                    f"    [applied] epoch {entry['epoch']}: "
                    f"div={entry['divergence']:.3f} "
                    f"cost {entry['incumbent_cost']:.4g} -> "
                    f"{entry['candidate_cost']:.4g} "
                    f"(+{entry['improvement']:.1%}), "
                    f"built {list(entry['built'])}, "
                    f"retired {list(entry['retired'])}")
            else:
                lines.append(
                    f"    [{entry['action']}] epoch {entry['epoch']}: "
                    f"div={entry['divergence']:.3f}"
                    + (f" — {entry['reason']}" if entry.get("reason")
                       else ""))

    slo = report.get("slo")
    if slo is not None and (slo["objectives"] or slo["audit"]):
        firing = ", ".join(f"{f['tenant']}:{f['objective']}"
                           for f in slo["firing"]) or "none"
        lines.append(
            f"  slo: {len(slo['objectives'])} objectives, "
            f"{slo['evaluations']:.0f} evaluations, "
            f"{slo['alerts']:.0f} alerts fired (firing now: {firing})")
        for status in slo["status"]:
            burns = ", ".join(
                f"{w['seconds']:.0f}s burn {w['burn_rate']:.2f}"
                f"/{w['max_burn']:g}" for w in status["windows"])
            flag = " FIRING" if status["firing"] else ""
            lines.append(f"    {status['tenant']}:{status['objective']} "
                         f"[{burns}]{flag}")
        for entry in slo["audit"]:
            lines.append(
                f"    [{entry['action']}] {entry['tenant']}:"
                f"{entry['objective']}")

    t = report["trends"]
    if t["counters"]:
        lines.append(f"  trends over {t['snapshots']} snapshots "
                     f"(seq {t['first_seq']}..{t['last_seq']}):")
        for name, tr in sorted(t["counters"].items()):
            if tr["delta"]:
                lines.append(f"    {name}: {tr['first']:.0f} -> "
                             f"{tr['last']:.0f} (+{tr['delta']:.0f})")
    h = report["history"]
    if h["attached"]:
        lines.append(f"  history: {h['entries']} entries "
                     f"(seq <= {h['last_seq']}) at {h['path']}")
    else:
        lines.append("  history: no timeseries store attached")
    return "\n".join(lines)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid report: {message}")


def _check(value, spec, path: str) -> None:
    """Walk ``value`` against one :data:`REPORT_SCHEMA` node; every
    failure names the offending field by its dotted ``path``."""
    if isinstance(spec, dict):
        _require(isinstance(value, dict), f"missing section {path!r}")
        for name, sub in spec.items():
            if sub == _PRESENT:
                _require(name in value, f"{path} missing {name!r}")
            else:
                _check(value.get(name), sub, f"{path}.{name}")
    elif isinstance(spec, _Entries):
        _require(isinstance(value, spec.container),
                 f"{path} must be a {spec.container.__name__}")
        items = (value.items() if spec.container is dict
                 else enumerate(value))
        for key, entry in items:
            where = f"{path}[{key!r}]"
            _require(isinstance(entry, dict), f"{where} must be a mapping")
            shape = spec.shape
            if spec.tag is not None:
                tag = entry.get(spec.tag)
                _require(isinstance(tag, str) and tag in shape,
                         f"{where} {spec.tag} {tag!r}")
                shape = shape[tag]
            _check(entry, shape, where)
    elif isinstance(spec, int):
        _require(value == spec, f"{path} != {spec}")
    else:
        folded = _folds(spec)
        types = (spec if folded is None
                 else _NUMBER if folded[1] is None else (dict,))
        _require(isinstance(value, types), f"{path} must be of type "
                 + " | ".join(t.__name__ for t in types))


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless ``report`` matches
    :data:`REPORT_SCHEMA` (version, section presence, field types, audit
    entry shapes).  Additive extra keys are allowed; missing or mistyped
    required ones are not.
    """
    _check(report, REPORT_SCHEMA, "report")
