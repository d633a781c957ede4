"""Tests for the operational report (build, render, validate)."""

import copy
import json

import pytest

from repro.obs import (
    DriftMonitor,
    MetricsRegistry,
    Observability,
    build_report,
    render_report_text,
    validate_report,
)
from repro.obs.timeseries import TimeseriesStore


def make_obs():
    obs = Observability(metrics=MetricsRegistry(),
                        drift=DriftMonitor(min_samples=2))
    m = obs.metrics
    m.counter("repro_workloads_total").inc()
    m.counter("repro_queries_total", labels={"path": "workload"}).inc(10)
    m.counter("repro_queries_by_replica_total", labels={"replica": "a"}).inc(6)
    m.counter("repro_queries_by_replica_total", labels={"replica": "b"}).inc(4)
    m.counter("repro_bytes_read_total").inc(12_345)
    m.counter("repro_records_scanned_total").inc(999)
    m.counter("repro_cache_hits_total").inc(3)
    m.counter("repro_cache_misses_total").inc(1)
    m.counter("repro_failovers_total").inc(2)
    for _ in range(3):
        obs.drift.record("a", 1.0, 4.0)  # err 0.75: flagged
        obs.drift.record("b", 1.0, 1.0)  # err 0: healthy
    return obs


class TestBuildReport:
    def test_sections_and_rollups(self):
        report = build_report(make_obs())
        validate_report(report)
        assert report["queries"]["workloads"] == 1
        assert report["queries"]["by_path"] == {"workload": 10}
        assert report["queries"]["by_replica"] == {"a": 6, "b": 4}
        assert report["cache"]["hit_rate"] == pytest.approx(0.75)
        assert report["degradation"]["failovers"] == 2
        assert report["drift"]["flagged"] == ["a"]
        assert report["recalibration"]["audit"] == []
        assert report["history"]["attached"] is False
        assert report["trends"]["counters"] == {}

    def test_empty_bundle_still_validates(self):
        report = build_report(Observability())
        validate_report(report)
        assert report["cache"]["hit_rate"] is None  # no lookups: not 0/0
        assert report["drift"]["replicas"] == []

    def test_report_is_json_serializable(self):
        report = build_report(make_obs())
        assert json.loads(json.dumps(report)) == report

    def test_trends_need_two_snapshots(self, tmp_path):
        obs = make_obs()
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
        obs.attach_checkpointer(ts, interval_seconds=0.0)
        obs.maybe_checkpoint(force=True)
        report = build_report(obs, timeseries=ts)
        assert report["trends"]["counters"] == {}

        obs.metrics.counter("repro_workloads_total").inc(4)
        obs.maybe_checkpoint(force=True)
        report = build_report(obs, timeseries=ts)
        validate_report(report)
        trend = report["trends"]["counters"]["repro_workloads_total"]
        assert trend == {"first": 1, "last": 5, "delta": 4}
        assert report["trends"]["first_seq"] < report["trends"]["last_seq"]
        assert report["history"] == {
            "attached": True, "path": ts.path, "entries": 2, "last_seq": 2}


class TestRenderText:
    def test_text_covers_every_section(self):
        obs = make_obs()
        text = render_report_text(build_report(obs))
        assert "operational report" in text
        assert "queries: 10 (workloads: 1)" in text
        assert "replica a: 6" in text
        assert "hit rate 75.0%" in text
        assert "failovers 2" in text
        assert "drift[a]" in text and "FLAGGED" in text
        assert "drift[b]" in text
        assert "recalibration: 0 applied, 0 rejected" in text
        assert "no timeseries store attached" in text

    def test_text_renders_audit_entries(self):
        obs = make_obs()
        report = build_report(obs)
        report["recalibration"]["audit"] = [
            {"action": "applied", "replica": "a", "encoding": "ROW-PLAIN",
             "reason": None,
             "old_scan_rate": 1e4, "old_extra_time": 0.01,
             "new_scan_rate": 4e4, "new_extra_time": 0.02,
             "n_samples": 9},
            {"action": "rejected", "replica": "b", "encoding": "COL-GZIP",
             "reason": "no stored units to re-time",
             "old_scan_rate": 1e4, "old_extra_time": 0.01,
             "new_scan_rate": None, "new_extra_time": None,
             "n_samples": 0},
        ]
        text = render_report_text(report)
        assert "[applied] a/ROW-PLAIN: ScanRate 1e+04 -> 4e+04" in text
        assert "n=9" in text
        assert "[rejected] b/COL-GZIP: no stored units to re-time" in text


class TestValidateReport:
    def test_accepts_a_real_report(self):
        validate_report(build_report(make_obs()))

    @pytest.mark.parametrize("mutate, message", [
        (lambda r: r.__setitem__("schema_version", 99), "schema_version"),
        (lambda r: r.pop("cache"), "cache"),
        (lambda r: r["queries"].pop("workloads"), "workloads"),
        (lambda r: r["cache"].__setitem__("hit_rate", "high"), "hit_rate"),
        (lambda r: r["drift"].__setitem__("flagged", "a"), "flagged"),
        (lambda r: r["recalibration"]["audit"].append({"action": "maybe"}),
         "action"),
        (lambda r: r["history"].__setitem__("attached", 1), "attached"),
        # One per schema-table kind not reached above: by-label dict, int,
        # nested section, untagged / tagged-variant / mapping-keyed entries.
        (lambda r: r["queries"].__setitem__("by_path", []), "by_path"),
        (lambda r: r["history"].__setitem__("entries", 1.5), "entries"),
        (lambda r: r["ingest"].pop("wal"), "ingest.wal"),
        (lambda r: r["drift"]["replicas"][0].pop("samples"), "samples"),
        (lambda r: r["recalibration"]["audit"].append(
            {"action": "applied", "replica": "a", "encoding": "e",
             "old_scan_rate": 1.0, "old_extra_time": 0.0, "n_samples": 9}),
         "new_scan_rate"),
        (lambda r: r["trends"]["counters"].__setitem__("x", {"first": 1}),
         r"counters\['x'\].last"),
    ])
    def test_rejects_shape_violations(self, mutate, message):
        report = copy.deepcopy(build_report(make_obs()))
        mutate(report)
        with pytest.raises(ValueError, match=message):
            validate_report(report)

    def test_every_counter_row_names_a_metric_the_code_emits(self):
        """A report row cannot outlive its counter: every metric the
        schema table folds is spelled as a literal somewhere in ``src/``
        outside the report module."""
        import pathlib

        import repro
        from repro.obs.report import REPORT_SCHEMA, _folds

        def metrics(fields):
            for spec in fields.values():
                if isinstance(spec, dict):
                    yield from metrics(spec)
                elif _folds(spec):
                    yield _folds(spec)[0]

        root = pathlib.Path(repro.__file__).parent
        source = "".join(p.read_text() for p in sorted(root.rglob("*.py"))
                         if p.name != "report.py")
        names = list(metrics(REPORT_SCHEMA))
        assert len(names) >= 38
        assert [n for n in names if f'"{n}"' not in source
                and f"'{n}'" not in source] == []

    def test_allows_additive_extension(self):
        report = build_report(make_obs())
        report["extra_section"] = {"anything": True}
        report["cache"]["new_field"] = 42
        validate_report(report)


class TestSloSection:
    def make_firing_engine(self, obs):
        from repro.obs import SLOEngine, SLObjective

        engine = SLOEngine(
            [SLObjective(tenant="*", kind="availability", target=0.999)],
            metrics=obs.metrics)
        for _ in range(20):
            engine.record("a", ok=False, latency_seconds=0.01)
        engine.evaluate()
        return engine

    def test_schema_version_is_4_with_required_slo_section(self):
        report = build_report(make_obs())
        assert report["schema_version"] == 4
        assert report["slo"]["objectives"] == []
        assert report["slo"]["firing"] == []
        validate_report(report)

    def test_firing_alert_lands_in_report_and_text(self):
        obs = make_obs()
        engine = self.make_firing_engine(obs)
        report = build_report(obs, slo=engine)
        validate_report(report)
        assert report["slo"]["alerts"] == 1
        assert report["slo"]["firing"] == [
            {"tenant": "a", "objective": "availability(99.9%)"}]
        [audit] = report["slo"]["audit"]
        assert audit["action"] == "firing"
        [status] = report["slo"]["status"]
        assert status["firing"] is True
        text = render_report_text(report)
        assert "firing now: a:availability(99.9%)" in text
        assert "[firing] a:availability(99.9%)" in text

    def test_slo_audit_prefers_the_timeseries_store(self, tmp_path):
        obs = make_obs()
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
        from repro.obs import SLOEngine, SLObjective

        engine = SLOEngine(
            [SLObjective(tenant="*", kind="availability", target=0.999)],
            metrics=obs.metrics, timeseries=ts)
        for _ in range(20):
            engine.record("a", ok=False, latency_seconds=0.01)
        engine.evaluate()
        report = build_report(obs, timeseries=ts, slo=engine)
        validate_report(report)
        [audit] = report["slo"]["audit"]
        assert audit["action"] == "firing"
        assert "seq" in audit  # came through the durable store

    @pytest.mark.parametrize("mutate, message", [
        (lambda r: r.pop("slo"), "slo"),
        (lambda r: r["slo"].__setitem__("alerts", "many"), "alerts"),
        (lambda r: r["slo"].__setitem__("firing", {}), "firing"),
        (lambda r: r["slo"]["audit"].append({"action": "panic"}), "action"),
    ])
    def test_rejects_malformed_slo_section(self, mutate, message):
        obs = make_obs()
        report = copy.deepcopy(
            build_report(obs, slo=self.make_firing_engine(obs)))
        mutate(report)
        with pytest.raises(ValueError, match=message):
            validate_report(report)
