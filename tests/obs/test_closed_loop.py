"""The closed-telemetry-loop acceptance test.

Inject a 4x-stale ``ScanRate``, run a seeded workload, and assert the
:class:`~repro.obs.Recalibrator` restores the constant, the drift flag
clears, and the full applied-update audit trail appears in both the
``repro report`` output and the on-disk timeseries store after a
simulated restart.

Two variants:

- a deterministic one, where the re-time of the flagged replica's units
  is stubbed to return the true constants, so the swap must restore
  truth exactly;
- a live-engine one, where a :class:`BlotStore` serves a real seeded
  workload with tracing off and the engine's own telemetry hooks drive
  the loop: the recalibrator re-times the replica's stored units, so it
  needs no scan spans.
"""

from types import SimpleNamespace

import numpy as np

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.obs import (
    DriftMonitor,
    MetricsRegistry,
    Observability,
    TraceRecorder,
    build_report,
    render_report_text,
)
from repro.obs.timeseries import TimeseriesStore
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, ExecOptions, InMemoryStore
from repro.workload import Query, Workload, positioned_random_workload

REPLICA = "kd8/ROW-PLAIN"
ENCODING = "ROW-PLAIN"

TRUE_RATE = 40_000.0
TRUE_EXTRA = 0.05
STALE_FACTOR = 4.0


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


def test_deterministic_closed_loop(tmp_path, monkeypatch):
    truth = EncodingCostParams(scan_rate=TRUE_RATE, extra_time=TRUE_EXTRA)
    stale = EncodingCostParams(scan_rate=TRUE_RATE / STALE_FACTOR,
                               extra_time=TRUE_EXTRA)
    model = CostModel({ENCODING: stale})
    monkeypatch.setattr(
        "repro.obs.recalibrate.measure_cost_params",
        lambda replicas: ((ENCODING, truth.scan_rate, truth.extra_time),))
    replica = SimpleNamespace(name=REPLICA,
                              encoding=SimpleNamespace(name=ENCODING),
                              store=None,
                              unit_keys=tuple(f"u{i}" for i in range(32)))
    clock = ManualClock()
    obs = Observability(metrics=MetricsRegistry(),
                        tracer=TraceRecorder(clock=clock),
                        drift=DriftMonitor(min_samples=5))
    history = tmp_path / "history.jsonl"
    ts = TimeseriesStore(str(history), retention=None)
    obs.attach_checkpointer(ts, interval_seconds=0.0, clock=ManualClock())
    obs.attach_recalibrator(model, timeseries=ts)

    # A seeded "workload": drift pairs comparing the stale prediction
    # to scan seconds that follow Eq. 6 with the TRUE constants.
    obs.maybe_checkpoint(force=True)
    rng = np.random.default_rng(17)
    flagged_at = None
    for n in rng.integers(2_000, 60_000, size=12):
        n = int(n)
        obs.drift.record(REPLICA, model.params_for(ENCODING)
                         .partition_cost(n), truth.partition_cost(n))
        if flagged_at is None and obs.drift.status(REPLICA).flagged:
            flagged_at = obs.drift.recorded
        # The engine hook: give the recalibrator a chance after each query.
        obs.maybe_recalibrate(replica)

    assert flagged_at is not None, "a 4x-stale model must trip the monitor"

    # 1. The re-timed constants are live in the routing model.
    fitted = model.params_for(ENCODING)
    assert fitted == truth

    # 2. The drift flag cleared, and stays down under the fixed model.
    assert obs.drift.status(REPLICA).flagged is False
    for n in (5_000, 10_000, 20_000, 40_000, 80_000):
        obs.drift.record(REPLICA, fitted.partition_cost(n),
                         truth.partition_cost(n))
    assert obs.drift.status(REPLICA).flagged is False

    applied = [u for u in obs.recalibrator.audit_log if u.action == "applied"]
    assert len(applied) == 1 and applied[0].n_samples == 9
    obs.maybe_checkpoint(force=True)

    # 3. The audit trail survives a simulated restart: a fresh process
    # (new store object, new bundle) reads it back off disk, and the
    # report renders it.
    reopened = TimeseriesStore(str(history), retention=None)
    assert reopened.last_seq == ts.last_seq
    trail = [e["data"] for e in reopened.entries("calibration")]
    assert [t["action"] for t in trail] == ["applied"]
    assert trail[0]["new_scan_rate"] == fitted.scan_rate

    report = build_report(obs, timeseries=reopened,
                          recalibrator=obs.recalibrator)
    audit = [e for e in report["recalibration"]["audit"]
             if e["action"] == "applied"]
    assert len(audit) == 1 and "seq" in audit[0]
    assert report["recalibration"]["applied"] == 1
    assert report["drift"]["flagged"] == []
    text = render_report_text(report)
    assert f"[applied] {REPLICA}/{ENCODING}: ScanRate" in text


def test_live_engine_closed_loop(tmp_path):
    ds = synthetic_shanghai_taxis(4000, seed=23, num_taxis=16)
    model = CostModel({ENCODING: EncodingCostParams(scan_rate=8e6,
                                                    extra_time=0.0)})
    stale = EncodingCostParams(scan_rate=8e6 * STALE_FACTOR, extra_time=0.0)
    model.update_params(ENCODING, stale)

    obs = Observability.create()
    ts = TimeseriesStore(str(tmp_path / "history.jsonl"), retention=None)
    obs.attach_checkpointer(ts, interval_seconds=0.0)
    obs.attach_recalibrator(model, timeseries=ts)

    store = BlotStore(ds, cost_model=model, observability=obs)
    store.add_replica(CompositeScheme(KdTreePartitioner(8), 4),
                      encoding_scheme_by_name(ENCODING),
                      InMemoryStore(), name=REPLICA)
    rng = np.random.default_rng(7)
    workload = positioned_random_workload(ds.bounding_box(), 30, rng,
                                          max_fraction=0.4)
    # Tracing off: there are no scan spans to learn from, only the
    # replica's stored units.
    store.execute_workload(workload, options=ExecOptions(trace=False))

    applied = obs.metrics.counter_value("repro_recalib_applied_total")
    assert applied >= 1, "engine hooks never closed the loop"
    report = build_report(obs, timeseries=ts, recalibrator=obs.recalibrator)
    assert any(e["action"] == "applied"
               for e in report["recalibration"]["audit"])
    assert model.params_for(ENCODING) != stale
    assert not any(span.name == "scan" for span in obs.tracer.spans())
    # The applied update dropped the stale-model pairs (hysteresis), so
    # the flag is down.
    assert report["drift"]["flagged"] == []


def test_reselection_and_checkpoint_are_offered_once_per_call(tmp_path):
    """The closed-loop tail of a served call offers reselection and the
    checkpointer one shot each — not one per serving replica."""
    class CountingReselector:
        offers = 0

        def observe(self, query):
            pass

        def maybe_reselect(self):
            self.offers += 1

    ds = synthetic_shanghai_taxis(1500, seed=29, num_taxis=8)
    obs = Observability.create()
    ts = TimeseriesStore(str(tmp_path / "history.jsonl"), retention=None)
    obs.attach_checkpointer(ts, interval_seconds=0.0)
    reselector = obs.attach_reselector(CountingReselector())
    model = CostModel({ENCODING: EncodingCostParams(scan_rate=8e6,
                                                    extra_time=1e-6)})
    store = BlotStore(ds, cost_model=model, observability=obs)
    for leaves, name in ((4, "coarse"), (16, "fine")):
        store.add_replica(CompositeScheme(KdTreePartitioner(leaves), 2),
                          encoding_scheme_by_name(ENCODING),
                          InMemoryStore(), name=name)
    # The whole range pays fewer partition set-ups on the coarse replica,
    # a small box scans fewer records on the fine one: one call, two
    # serving replicas.
    bb = ds.bounding_box()
    workload = Workload.unweighted([
        Query.from_box(bb),
        Query(bb.width * 1e-3, bb.height * 1e-3, bb.duration * 1e-3,
              bb.x_min + bb.width / 3, bb.y_min + bb.height / 3,
              bb.t_min + bb.duration / 3)])
    result = store.execute_workload(workload)
    assert result.stats.per_replica_queries == {"coarse": 1, "fine": 1}
    assert reselector.offers == 1
    assert len(ts.entries("snapshot")) == 1
    store.close()
