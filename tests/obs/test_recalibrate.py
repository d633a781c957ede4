"""Tests for drift-triggered auto-recalibration (the Section V-B loop).

The guard tests stub ``repro.obs.recalibrate.measure_cost_params`` so
they stay deterministic; :class:`TestRetime` runs the real procedure on
a real replica.
"""

from types import SimpleNamespace

import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.costmodel.calibrate import CALIBRATION_UNITS
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.obs import DriftMonitor, MetricsRegistry, Recalibrator, TraceRecorder
from repro.obs.timeseries import TimeseriesStore
from repro.partition import GridPartitioner
from repro.storage import InMemoryStore, build_replica

REPLICA = "kd8/ROW-PLAIN"
ENCODING = "ROW-PLAIN"

TRUE_RATE = 50_000.0
TRUE_EXTRA = 0.02


def make_model(scan_rate=TRUE_RATE / 4, extra_time=TRUE_EXTRA):
    """A serving model whose ScanRate is 4x stale by default."""
    return CostModel({ENCODING: EncodingCostParams(scan_rate=scan_rate,
                                                   extra_time=extra_time)})


def fake_replica(n_units=12):
    """The duck-typed surface the recalibrator reads: name, encoding,
    store and unit keys (None marks an empty partition)."""
    return SimpleNamespace(name=REPLICA, encoding=SimpleNamespace(name=ENCODING),
                           store=InMemoryStore(),
                           unit_keys=tuple(f"u{i}" for i in range(n_units)))


@pytest.fixture
def retime(monkeypatch):
    """Stub the re-time: returns the true row and records each call."""
    calls = []

    def measure(replicas):
        calls.append(list(replicas))
        return ((ENCODING, TRUE_RATE, TRUE_EXTRA),)

    monkeypatch.setattr("repro.obs.recalibrate.measure_cost_params", measure)
    return calls


@pytest.fixture
def failing_retime(monkeypatch):
    def measure(replicas):
        raise OSError("unit u3 unreadable")

    monkeypatch.setattr("repro.obs.recalibrate.measure_cost_params", measure)


def flag_drift(drift, replica=REPLICA, n=5, predicted=1.0, measured=4.0):
    for _ in range(n):
        drift.record(replica, predicted, measured)
    assert drift.status(replica).flagged


def make_recalibrator(model, drift, tracer=None, **kwargs):
    return Recalibrator(model, drift, tracer or TraceRecorder(),
                        metrics=MetricsRegistry(), **kwargs)


class TestGuards:
    def test_unflagged_replica_is_left_alone(self, retime):
        rec = make_recalibrator(make_model(), DriftMonitor())
        assert rec.maybe_recalibrate(fake_replica()) is None
        assert len(rec.audit_log) == 0 and retime == []

    def test_insufficient_samples_is_a_counted_rejection(self, retime):
        """A replica with no stored units has nothing to time."""
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift)
        old = model.params_for(ENCODING)
        replica = fake_replica()
        replica.unit_keys = (None, None)
        update = rec.maybe_recalibrate(replica)
        assert update.action == "rejected" and update.n_samples == 0
        assert "no stored units" in update.reason
        assert rec.metrics.counter_value("repro_recalib_rejected_total") == 1
        assert model.params_for(ENCODING) == old  # untouched
        assert retime == []

    def test_cooldown_after_rejection(self, failing_retime):
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift)
        assert rec.maybe_recalibrate(fake_replica()).action == "rejected"
        # Still flagged, but on cooldown: no retry until the drift
        # monitor's min_samples new pairs arrive.
        assert rec.maybe_recalibrate(fake_replica()) is None
        for _ in range(drift.min_samples - 1):
            drift.record(REPLICA, 1.0, 4.0)
        assert rec.maybe_recalibrate(fake_replica()) is None
        drift.record(REPLICA, 1.0, 4.0)
        assert rec.maybe_recalibrate(fake_replica()) is not None


class TestFitMode:
    def test_recovers_the_true_constants(self, retime):
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift)
        replica = fake_replica(n_units=12)

        update = rec.maybe_recalibrate(replica)
        assert retime == [[replica]]  # the flagged replica's own units
        assert update.action == "applied"
        assert update.new_scan_rate == TRUE_RATE
        assert update.new_extra_time == TRUE_EXTRA
        # Sampled units plus the tiny unit.
        assert update.n_samples == CALIBRATION_UNITS + 1
        # The swap is live in the routing model...
        assert model.params_for(ENCODING) == EncodingCostParams(
            scan_rate=TRUE_RATE, extra_time=TRUE_EXTRA)
        # ...the flag dropped (hysteresis), and the applied counter moved.
        assert drift.status(REPLICA).flagged is False
        assert rec.metrics.counter_value("repro_recalib_applied_total") == 1

    def test_a_failed_retime_rejects_without_touching_the_model(
            self, failing_retime):
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift)
        old = model.params_for(ENCODING)

        update = rec.maybe_recalibrate(fake_replica(n_units=3))
        assert update.action == "rejected" and update.n_samples == 4
        assert "unit u3 unreadable" in update.reason
        assert update.new_scan_rate is None
        assert model.params_for(ENCODING) == old
        assert drift.status(REPLICA).flagged is True
        assert rec.metrics.counter_value("repro_recalib_rejected_total") == 1
        assert rec.metrics.counter_value("repro_recalib_applied_total") == 0

    def test_dry_run_audits_without_applying(self, retime):
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift, dry_run=True)
        old = model.params_for(ENCODING)

        update = rec.maybe_recalibrate(fake_replica())
        assert update.action == "dry-run"
        assert update.new_scan_rate == TRUE_RATE
        assert model.params_for(ENCODING) == old
        assert drift.status(REPLICA).flagged is True  # nothing was fixed
        assert rec.metrics.counter_value("repro_recalib_applied_total") == 0
        # Cooldown stops the hook from auditing the same proposal per call.
        assert rec.maybe_recalibrate(fake_replica()) is None
        assert len(retime) == 1


class TestRetime:
    """The real procedure, on a real replica, with no scan spans at all."""

    @pytest.fixture(scope="class")
    def ds(self):
        return synthetic_shanghai_taxis(3000, seed=41, num_taxis=12)

    @staticmethod
    def build(ds, partitioner):
        return build_replica(ds, partitioner,
                             encoding_scheme_by_name(ENCODING),
                             InMemoryStore(), name=REPLICA)

    def test_times_the_flagged_replicas_own_units(self, ds):
        replica = self.build(ds, GridPartitioner(4, 4))
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        tracer = TraceRecorder()
        rec = make_recalibrator(model, drift, tracer)

        update = rec.maybe_recalibrate(replica)
        assert update.action == "applied"
        assert update.n_samples == CALIBRATION_UNITS + 1
        assert model.params_for(ENCODING) == EncodingCostParams(
            scan_rate=update.new_scan_rate,
            extra_time=update.new_extra_time)
        assert drift.status(REPLICA).flagged is False
        # The attempt is the only span: units were timed, not spans read.
        (span,) = tracer.spans()
        assert span.name == "bg_recalibrate"
        assert span.attrs["action"] == "applied"

    def test_an_unreadable_unit_is_a_rejection(self, ds):
        broken = self.build(ds, GridPartitioner(2, 2))
        broken.store.delete(next(k for k in broken.unit_keys
                                 if k is not None))
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift)
        old = model.params_for(ENCODING)

        update = rec.maybe_recalibrate(broken)
        assert update.action == "rejected"
        assert update.reason.startswith("re-timing failed")
        assert model.params_for(ENCODING) == old


class TestAuditTrail:
    def test_every_decision_lands_in_the_timeseries(self, tmp_path, retime):
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
        rec = make_recalibrator(model, drift, timeseries=ts)

        update = rec.maybe_recalibrate(fake_replica())
        assert rec.audit_dicts() == [update.to_dict()]
        (entry,) = ts.entries("calibration")
        assert entry["data"] == update.to_dict()
