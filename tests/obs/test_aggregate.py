"""Merging per-process MetricsRegistry snapshots into one fleet view."""

import pytest

from repro.errors import SnapshotMergeError
from repro.obs import MetricsRegistry, merge_metric_snapshots
from repro.obs.aggregate import merge_metric_snapshots as direct_import


def snap(counters=(), gauges=(), quantiles=()):
    return {"counters": list(counters), "gauges": list(gauges),
            "quantiles": list(quantiles)}


def counter(name, value, **labels):
    return {"name": name, "labels": labels, "value": value}


class TestMergeScalars:
    def test_same_series_sums(self):
        merged = merge_metric_snapshots([
            snap(counters=[counter("scans", 3, replica="grid")]),
            snap(counters=[counter("scans", 4, replica="grid")]),
        ])
        assert merged["counters"] == [
            {"name": "scans", "labels": {"replica": "grid"}, "value": 7}]

    def test_distinct_labels_stay_separate(self):
        merged = merge_metric_snapshots([
            snap(counters=[counter("scans", 1, replica="grid")]),
            snap(counters=[counter("scans", 1, replica="kd")]),
        ])
        assert len(merged["counters"]) == 2

    def test_label_order_is_not_identity(self):
        a = {"name": "x", "labels": {"a": "1", "b": "2"}, "value": 1}
        b = {"name": "x", "labels": {"b": "2", "a": "1"}, "value": 2}
        merged = merge_metric_snapshots([snap(counters=[a]),
                                         snap(counters=[b])])
        assert merged["counters"][0]["value"] == 3

    def test_output_deterministically_ordered(self):
        merged = merge_metric_snapshots([
            snap(counters=[counter("zeta", 1), counter("alpha", 1)]),
        ])
        names = [c["name"] for c in merged["counters"]]
        assert names == sorted(names)

    def test_empty_input(self):
        assert merge_metric_snapshots([]) == {
            "counters": [], "gauges": [], "quantiles": []}


class TestMergeHistograms:
    """The quantile sketch is a log-bucketed histogram: bucket ``i``
    covers ``(gamma**(i-1), gamma**i]`` with ``gamma`` fixed by
    ``alpha``, so two sketches whose ``alpha`` differs have different
    bucket boundaries and must not merge bucket-wise."""

    def test_mismatched_boundaries_raise_structured_error(self):
        reg = MetricsRegistry()
        reg.quantile_sketch("h", labels={"replica": "grid"}).observe(0.5)
        ours = reg.snapshot()
        theirs = reg.snapshot()
        [entry] = theirs["quantiles"]
        entry["alpha"] = 0.02  # same bucket index, other boundaries
        with pytest.raises(SnapshotMergeError) as exc_info:
            merge_metric_snapshots([ours, theirs])
        err = exc_info.value
        assert err.name == "h"
        assert err.labels == {"replica": "grid"}
        assert err.ours == 0.01
        assert err.theirs == 0.02
        assert "h" in str(err) and "grid" in str(err)
        assert isinstance(err, ValueError)  # pre-existing catches hold


class TestMergeQuantiles:
    def test_merged_sketch_equals_single_sketch_over_union(self):
        regs = [MetricsRegistry(), MetricsRegistry()]
        union = MetricsRegistry()
        values = ([0.001 * i for i in range(1, 50)],
                  [0.05 * i for i in range(1, 50)])
        for reg, vals in zip(regs, values):
            sketch = reg.quantile_sketch("lat", labels={"tenant": "a"})
            for v in vals:
                sketch.observe(v)
                union.quantile_sketch("lat",
                                      labels={"tenant": "a"}).observe(v)
        merged = merge_metric_snapshots([r.snapshot() for r in regs])
        [entry] = merged["quantiles"]
        [want] = union.snapshot()["quantiles"]
        assert entry["count"] == want["count"]
        assert entry["sum"] == pytest.approx(want["sum"])
        assert entry["buckets"] == want["buckets"]  # exactly mergeable
        assert entry["quantiles"] == want["quantiles"]
        assert entry["min"] == want["min"]
        assert entry["max"] == want["max"]

    def test_alpha_mismatch_raises_structured_error(self):
        # One build writes one alpha; a snapshot from another build is
        # the only way two can meet, so forge one by editing the dict.
        reg = MetricsRegistry()
        reg.quantile_sketch("lat", labels={"tenant": "a"}).observe(1.0)
        ours = reg.snapshot()
        theirs = reg.snapshot()
        theirs["quantiles"][0]["alpha"] = 0.05
        with pytest.raises(SnapshotMergeError, match="alpha") as exc_info:
            merge_metric_snapshots([ours, theirs])
        err = exc_info.value
        assert err.name == "lat"
        assert err.labels == {"tenant": "a"}
        assert err.ours == 0.01
        assert err.theirs == 0.05
        assert isinstance(err, ValueError)  # pre-existing catches hold

    def test_inputs_not_mutated(self):
        reg = MetricsRegistry()
        reg.quantile_sketch("lat").observe(1.0)
        source = reg.snapshot()
        [entry] = source["quantiles"]
        buckets = dict(entry["buckets"])
        merge_metric_snapshots([source, source])
        assert entry["count"] == 1
        assert entry["buckets"] == buckets

    def test_empty_sketch_merges_cleanly(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.quantile_sketch("lat")  # never observed
        b.quantile_sketch("lat").observe(2.0)
        merged = merge_metric_snapshots([a.snapshot(), b.snapshot()])
        [entry] = merged["quantiles"]
        assert entry["count"] == 1
        assert entry["quantiles"]["0.5"] == pytest.approx(2.0, rel=0.02)


def test_exported_from_obs_package():
    assert merge_metric_snapshots is direct_import
