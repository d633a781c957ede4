"""Cross-process metrics aggregation for the serving tier.

Each shard worker owns a private
:class:`~repro.obs.MetricsRegistry`; the front door collects their
:meth:`~repro.obs.MetricsRegistry.snapshot` dicts and merges them here
into one fleet-wide view: counters and gauges sum per ``(name,
labels)``, quantile sketches merge by summing their log-bucket counts
(exact — the whole point of using a mergeable sketch) and re-reading
the canonical quantiles from the merged state.

Sketches that *cannot* merge — their ``alpha`` differs across
snapshots, as it can when one comes from another build — raise
:class:`~repro.errors.SnapshotMergeError` instead of silently
misbinning observations.  (This module otherwise imports nothing from
the wider package; ``repro.errors`` is itself dependency-free, so the
exception can live on the consolidated surface without a cycle.)
"""

from __future__ import annotations

from repro.errors import SnapshotMergeError
from repro.obs.metrics import SKETCH_QUANTILES, sketch_quantile


def _key(entry: dict) -> tuple:
    return (entry["name"], tuple(sorted(entry["labels"].items())))


def _merge_scalars(all_entries) -> list[dict]:
    merged: dict[tuple, dict] = {}
    for entry in all_entries:
        key = _key(entry)
        slot = merged.get(key)
        if slot is None:
            merged[key] = {"name": entry["name"],
                           "labels": dict(entry["labels"]),
                           "value": entry["value"]}
        else:
            slot["value"] += entry["value"]
    return [merged[key] for key in sorted(merged)]


def _merge_quantiles(all_entries) -> list[dict]:
    merged: dict[tuple, dict] = {}
    for entry in all_entries:
        key = _key(entry)
        slot = merged.get(key)
        if slot is None:
            merged[key] = {
                "name": entry["name"],
                "labels": dict(entry["labels"]),
                "alpha": entry["alpha"],
                "count": entry["count"],
                "sum": entry["sum"],
                "min": entry.get("min"),
                "max": entry.get("max"),
                "zero": entry.get("zero", 0),
                "buckets": dict(entry["buckets"]),
            }
            continue
        if entry["alpha"] != slot["alpha"]:
            raise SnapshotMergeError(
                entry["name"], entry["labels"],
                "quantile sketch resolution (alpha) differs across "
                "snapshots", ours=slot["alpha"], theirs=entry["alpha"])
        slot["count"] += entry["count"]
        slot["sum"] += entry["sum"]
        slot["zero"] += entry.get("zero", 0)
        for extreme, pick in (("min", min), ("max", max)):
            theirs = entry.get(extreme)
            if theirs is not None:
                ours = slot[extreme]
                slot[extreme] = theirs if ours is None else \
                    pick(ours, theirs)
        for idx, n in entry["buckets"].items():
            slot["buckets"][idx] = slot["buckets"].get(idx, 0) + n
    out = []
    for key in sorted(merged):
        slot = merged[key]
        buckets = {int(idx): n for idx, n in slot["buckets"].items()}
        slot["buckets"] = {str(idx): n
                           for idx, n in sorted(buckets.items())}
        slot["quantiles"] = {
            str(q): sketch_quantile(slot["alpha"], slot["zero"], buckets,
                                    slot["count"], q)
            for q in SKETCH_QUANTILES
        }
        out.append(slot)
    return out


def merge_metric_snapshots(snapshots) -> dict:
    """Merge :meth:`MetricsRegistry.snapshot` dicts from many processes
    into one, deterministically ordered by ``(name, labels)``; raises
    :class:`~repro.errors.SnapshotMergeError` when two sketches of one
    series disagree on ``alpha``."""
    snapshots = list(snapshots)
    return {
        "counters": _merge_scalars(
            e for s in snapshots for e in s.get("counters", ())),
        "gauges": _merge_scalars(
            e for s in snapshots for e in s.get("gauges", ())),
        "quantiles": _merge_quantiles(
            e for s in snapshots for e in s.get("quantiles", ())),
    }
