"""Tests for drift-triggered auto-recalibration (the Section V-B loop)."""

import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.obs import DriftMonitor, MetricsRegistry, Recalibrator, TraceRecorder
from repro.obs.timeseries import TimeseriesStore

REPLICA = "kd8/ROW-PLAIN"
ENCODING = "ROW-PLAIN"

TRUE_RATE = 50_000.0
TRUE_EXTRA = 0.02


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


def make_model(scan_rate=TRUE_RATE / 4, extra_time=TRUE_EXTRA):
    """A serving model whose ScanRate is 4x stale by default."""
    return CostModel({ENCODING: EncodingCostParams(scan_rate=scan_rate,
                                                   extra_time=extra_time)})


def synth_scan_spans(tracer, clock, sizes, rate=TRUE_RATE, extra=TRUE_EXTRA,
                     replica=REPLICA):
    """Finished scan spans whose durations follow Eq. 6 exactly."""
    for n in sizes:
        handle = tracer.start("scan", replica=replica, records=n,
                              bytes=n * 16)
        clock.advance(n / rate + extra)
        handle.finish()


def flag_drift(drift, replica=REPLICA, n=5, predicted=1.0, measured=4.0):
    for _ in range(n):
        drift.record(replica, predicted, measured)
    assert drift.status(replica).flagged


def make_recalibrator(model, drift, tracer, **kwargs):
    kwargs.setdefault("min_samples", 4)
    return Recalibrator(model, drift, tracer,
                        metrics=MetricsRegistry(), **kwargs)


class TestGuards:
    def test_constructor_validation(self):
        model, drift, tracer = make_model(), DriftMonitor(), TraceRecorder()
        with pytest.raises(ValueError, match="min_samples"):
            Recalibrator(model, drift, tracer, min_samples=1)
        with pytest.raises(ValueError, match="max_step_factor"):
            Recalibrator(model, drift, tracer, max_step_factor=1.0)

    def test_unflagged_replica_is_left_alone(self):
        rec = make_recalibrator(make_model(), DriftMonitor(), TraceRecorder())
        assert rec.maybe_recalibrate(REPLICA, ENCODING) is None
        assert len(rec.audit_log) == 0

    def test_force_bypasses_the_flag(self):
        clock = ManualClock()
        tracer = TraceRecorder(clock=clock)
        synth_scan_spans(tracer, clock, [1000, 2000, 5000, 10_000])
        rec = make_recalibrator(make_model(), DriftMonitor(), tracer)
        update = rec.maybe_recalibrate(REPLICA, ENCODING, force=True)
        assert update is not None and update.action == "applied"

    def test_insufficient_samples_is_a_counted_rejection(self):
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift, TraceRecorder())
        old = model.params_for(ENCODING)
        update = rec.maybe_recalibrate(REPLICA, ENCODING)
        assert update.action == "rejected"
        assert "insufficient scan measurements" in update.reason
        assert rec.metrics.counter_value("repro_recalib_rejected_total") == 1
        assert model.params_for(ENCODING) == old  # untouched

    def test_cooldown_after_rejection(self):
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift, TraceRecorder())
        assert rec.maybe_recalibrate(REPLICA, ENCODING).action == "rejected"
        # Still flagged, but on cooldown: no retry until min_samples new
        # drift pairs arrive.
        assert rec.maybe_recalibrate(REPLICA, ENCODING) is None
        for _ in range(rec.min_samples):
            drift.record(REPLICA, 1.0, 4.0)
        assert rec.maybe_recalibrate(REPLICA, ENCODING) is not None


class TestFitMode:
    def test_recovers_the_true_constants(self):
        clock = ManualClock()
        tracer = TraceRecorder(clock=clock)
        synth_scan_spans(tracer, clock, [1000, 2000, 5000, 10_000, 20_000])
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift, tracer)

        update = rec.maybe_recalibrate(REPLICA, ENCODING)
        assert update.action == "applied" and update.mode == "fit"
        assert update.new_scan_rate == pytest.approx(TRUE_RATE, rel=1e-3)
        assert update.new_extra_time == pytest.approx(TRUE_EXTRA, rel=1e-3)
        assert update.r_squared == pytest.approx(1.0, abs=1e-6)
        assert update.n_samples == 5 and update.clamped is False
        # The swap is live in the routing model...
        assert model.params_for(ENCODING).scan_rate == update.new_scan_rate
        # ...the flag dropped (hysteresis), and the applied counter moved.
        assert drift.status(REPLICA).flagged is False
        assert rec.metrics.counter_value("repro_recalib_applied_total") == 1

    def test_nonpositive_slope_rejects_without_touching_the_model(self):
        # Larger partitions measured *faster*: the Section V-B fit slope
        # is negative and calibrate.py raises; satellite guarantee —
        # caught, counted, model untouched.
        clock = ManualClock()
        tracer = TraceRecorder(clock=clock)
        for n, seconds in [(1000, 2.0), (2000, 1.5), (5000, 1.0),
                           (10_000, 0.5)]:
            handle = tracer.start("scan", replica=REPLICA, records=n,
                                  bytes=n * 16)
            clock.advance(seconds)
            handle.finish()
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift, tracer)
        old = model.params_for(ENCODING)

        update = rec.maybe_recalibrate(REPLICA, ENCODING)
        assert update.action == "rejected"
        assert "non-positive" in update.reason
        assert update.new_scan_rate is None
        assert model.params_for(ENCODING) == old
        assert rec.metrics.counter_value("repro_recalib_rejected_total") == 1
        assert rec.metrics.counter_value("repro_recalib_applied_total") == 0

    def test_clamp_bounds_the_step(self):
        clock = ManualClock()
        tracer = TraceRecorder(clock=clock)
        synth_scan_spans(tracer, clock, [1000, 2000, 5000, 10_000])
        # 100x stale: the honest fix exceeds a 2x step budget.
        model = make_model(scan_rate=TRUE_RATE / 100)
        drift = DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift, tracer, max_step_factor=2.0)

        update = rec.maybe_recalibrate(REPLICA, ENCODING)
        assert update.action == "applied" and update.clamped is True
        assert update.new_scan_rate == pytest.approx(
            update.old_scan_rate * 2.0)

    def test_dry_run_audits_without_applying(self):
        clock = ManualClock()
        tracer = TraceRecorder(clock=clock)
        synth_scan_spans(tracer, clock, [1000, 2000, 5000, 10_000])
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        rec = make_recalibrator(model, drift, tracer, dry_run=True)
        old = model.params_for(ENCODING)

        update = rec.maybe_recalibrate(REPLICA, ENCODING)
        assert update.action == "dry-run"
        assert update.new_scan_rate == pytest.approx(TRUE_RATE, rel=1e-3)
        assert model.params_for(ENCODING) == old
        assert drift.status(REPLICA).flagged is True  # nothing was fixed
        assert rec.metrics.counter_value("repro_recalib_applied_total") == 0
        # Cooldown stops the hook from auditing the same proposal per call.
        assert rec.maybe_recalibrate(REPLICA, ENCODING) is None


class TestRescaleMode:
    def test_equal_sizes_fall_back_to_rescale(self):
        clock = ManualClock()
        tracer = TraceRecorder(clock=clock)
        synth_scan_spans(tracer, clock, [4000] * 6)  # spread 1.0 < 1.5
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift, predicted=1.0, measured=4.0)
        rec = make_recalibrator(model, drift, tracer)
        old = model.params_for(ENCODING)

        update = rec.maybe_recalibrate(REPLICA, ENCODING)
        assert update.action == "applied" and update.mode == "rescale"
        assert update.r_squared is None
        # scale factor = mean measured / mean predicted = 4.
        assert update.new_scan_rate == pytest.approx(old.scan_rate / 4.0)
        assert update.new_extra_time == pytest.approx(old.extra_time * 4.0)
        assert drift.status(REPLICA).flagged is False


class TestHarvest:
    def test_harvest_filters_unusable_spans(self):
        clock = ManualClock()
        tracer = TraceRecorder(clock=clock)
        rec = make_recalibrator(make_model(), DriftMonitor(), tracer)

        synth_scan_spans(tracer, clock, [1000, 2000])  # usable
        tracer.start("route", replica=REPLICA)  # wrong name, unfinished
        synth_scan_spans(tracer, clock, [3000], replica="other")  # wrong replica
        hit = tracer.start("scan", replica=REPLICA, records=500, bytes=0)
        hit.finish()  # cache hit: scanned nothing
        open_scan = tracer.start("scan", replica=REPLICA, records=9, bytes=9)
        del open_scan  # never finished

        points = rec.harvest_points(REPLICA)
        assert [p.partition_records for p in points] == [1000, 2000]
        assert all(p.seconds > 0 for p in points)


class TestAuditTrail:
    def test_every_decision_lands_in_the_timeseries(self, tmp_path):
        clock = ManualClock()
        tracer = TraceRecorder(clock=clock)
        synth_scan_spans(tracer, clock, [1000, 2000, 5000, 10_000])
        model, drift = make_model(), DriftMonitor()
        flag_drift(drift)
        ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
        rec = make_recalibrator(model, drift, tracer, timeseries=ts)

        update = rec.maybe_recalibrate(REPLICA, ENCODING)
        assert rec.audit_dicts() == [update.to_dict()]
        (entry,) = ts.entries("calibration")
        assert entry["data"] == update.to_dict()
