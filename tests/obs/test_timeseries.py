"""Tests for the on-disk telemetry history (timeseries + checkpointer)."""

import json
from types import SimpleNamespace

import pytest

from repro.obs import Checkpointer, DriftMonitor, MetricsRegistry, Observability
from repro.obs.timeseries import TimeseriesStore


class ManualClock:
    def __init__(self, t=0.0):
        self.t = t

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


class TestAppendAndRead:
    def test_sequence_numbers_are_monotonic(self, tmp_path):
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
        seqs = [ts.append("snapshot", {"i": i}, t=float(i)) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert ts.last_seq == 5
        assert [e["seq"] for e in ts.entries()] == seqs

    def test_entries_filter_by_kind(self, tmp_path):
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
        ts.append("snapshot", {}, t=0.0)
        ts.append("calibration", {"action": "applied"}, t=1.0)
        ts.append("snapshot", {}, t=2.0)
        assert len(ts.entries("snapshot")) == 2
        (cal,) = ts.entries("calibration")
        assert cal["data"]["action"] == "applied"
        assert ts.entries("nope") == []

    def test_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "h.jsonl"
        ts = TimeseriesStore(str(path), retention=None)
        ts.append("snapshot", {"a": 1}, t=0.5)
        (line,) = path.read_text().splitlines()
        entry = json.loads(line)
        assert entry == {"seq": 1, "t": 0.5, "kind": "snapshot",
                         "data": {"a": 1}}


class TestRestartRecovery:
    def test_sequence_continues_across_reopen(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        first = TimeseriesStore(path, retention=None)
        first.append("snapshot", {"run": 1}, t=0.0)
        first.append("snapshot", {"run": 1}, t=1.0)
        # Simulated restart: a brand-new store over the same file.
        second = TimeseriesStore(path, retention=None)
        assert second.last_seq == 2
        assert second.append("snapshot", {"run": 2}, t=2.0) == 3
        assert [e["data"]["run"] for e in second.entries()] == [1, 1, 2]

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "h.jsonl"
        ts = TimeseriesStore(str(path), retention=None)
        ts.append("snapshot", {"ok": True}, t=0.0)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"seq": 2, "t": 1.0, "kind": "snap')  # crash mid-write
        reopened = TimeseriesStore(str(path), retention=None)
        assert reopened.last_seq == 1
        assert len(reopened.entries()) == 1
        # The next append seals over the torn tail without corruption.
        reopened.append("snapshot", {"ok": True}, t=2.0)
        intact = [e for e in reopened.entries() if e["kind"] == "snapshot"]
        assert [e["seq"] for e in intact] == [1, 2]

    def test_missing_file_starts_at_one(self, tmp_path):
        ts = TimeseriesStore(str(tmp_path / "fresh.jsonl"))
        assert ts.last_seq == 0
        assert ts.append("snapshot", {}, t=0.0) == 1


class TestRetentionAndRollups:
    def test_compaction_bounds_the_file(self, tmp_path):
        path = tmp_path / "h.jsonl"
        ts = TimeseriesStore(str(path), retention=8, rollup_every=4)
        for i in range(40):
            ts.append("snapshot", {"i": i}, t=float(i))
        lines = path.read_text().splitlines()
        assert len(lines) <= 8
        # Sequence numbering is unaffected by compaction.
        assert ts.last_seq == 40
        assert ts.append("snapshot", {"i": 40}, t=40.0) == 41

    def test_rollups_summarize_the_old_entries(self, tmp_path):
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=8,
                             rollup_every=4)
        for i in range(9):  # exactly one compaction (9 > retention)
            ts.append("snapshot", {"i": i}, t=float(i))
        roll = ts.entries("rollup")[0]["data"]
        assert roll["count"] == 4
        assert (roll["first_seq"], roll["last_seq"]) == (1, 4)
        assert (roll["first_t"], roll["last_t"]) == (0.0, 3.0)
        assert roll["kinds"] == ["snapshot"]
        assert roll["first"] == {"i": 0} and roll["last"] == {"i": 3}
        # Recent entries stay raw.
        assert len(ts.entries("snapshot")) >= 4

    def test_retention_validation(self, tmp_path):
        with pytest.raises(ValueError, match="retention"):
            TimeseriesStore(str(tmp_path / "h.jsonl"), retention=2)
        with pytest.raises(ValueError, match="rollup_every"):
            TimeseriesStore(str(tmp_path / "h.jsonl"), rollup_every=1)


class TestCheckpointer:
    def make_obs(self):
        return Observability(metrics=MetricsRegistry(),
                             drift=DriftMonitor(min_samples=1))

    def test_deterministic_schedule(self, tmp_path):
        obs = self.make_obs()
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
        clock = ManualClock()
        cp = Checkpointer(obs, ts, interval_seconds=60.0, clock=clock)
        assert cp.maybe_checkpoint() == 1   # first call always fires
        assert cp.maybe_checkpoint() is None
        clock.advance(59.0)
        assert cp.maybe_checkpoint() is None
        clock.advance(1.0)
        assert cp.maybe_checkpoint() == 2
        assert cp.maybe_checkpoint(force=True) == 3

    def test_snapshot_payload_carries_metrics_and_drift(self, tmp_path):
        obs = self.make_obs()
        obs.metrics.counter("repro_queries_total",
                            labels={"path": "query"}).inc(3)
        obs.drift.record("r", 1.0, 4.0)
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
        Checkpointer(obs, ts, interval_seconds=0.0,
                     clock=ManualClock()).maybe_checkpoint(force=True)
        (entry,) = ts.entries("snapshot")
        counters = entry["data"]["metrics"]["counters"]
        assert counters[0]["value"] == 3
        (drift,) = entry["data"]["drift"]
        assert drift["replica"] == "r" and drift["flagged"] is True

    def test_observability_hooks_are_noops_without_attachment(self):
        obs = self.make_obs()
        assert obs.maybe_checkpoint() is None
        replica = SimpleNamespace(name="r",
                                  encoding=SimpleNamespace(name="ROW-PLAIN"),
                                  store=None, unit_keys=("u0",))
        assert obs.maybe_recalibrate(replica) is None

    def test_attach_checkpointer_via_bundle(self, tmp_path):
        obs = self.make_obs()
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
        obs.attach_checkpointer(ts, interval_seconds=0.0, clock=ManualClock())
        assert obs.maybe_checkpoint() == 1
        assert obs.maybe_checkpoint() == 2  # interval 0: every call fires
