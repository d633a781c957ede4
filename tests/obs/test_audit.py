"""The audit sink shared by the recalibrator, the reselection controller
and the SLO engine: bounded in memory, complete on disk, safe to read
while a background thread appends."""

import threading

from repro.obs import MetricsRegistry, TimeseriesStore
from repro.obs.audit import AuditTrail


def test_ring_is_bounded_and_the_timeseries_keeps_everything(tmp_path):
    ts = TimeseriesStore(str(tmp_path / "h.jsonl"), retention=None)
    metrics = MetricsRegistry()
    trail = AuditTrail("decision", capacity=8, timeseries=ts,
                       metrics=metrics)
    for i in range(8 + 5):
        trail.append({"i": i}, "decisions_total" if i % 2 else None)
    assert len(trail) == 8
    assert [e["i"] for e in trail] == list(range(5, 13))
    assert trail[-1] == {"i": 12} and trail.dicts()[0] == {"i": 5}
    assert [e["data"]["i"] for e in ts.entries("decision")] == list(range(13))
    assert metrics.counter_value("decisions_total") == 6


def test_reading_races_an_appending_thread():
    trail = AuditTrail("decision", capacity=64)
    stop = threading.Event()

    def appender():
        i = 0
        while not stop.is_set():
            trail.append({"i": i})
            i += 1

    thread = threading.Thread(target=appender)
    thread.start()
    try:
        # A plain list or deque raises "mutated during iteration" here.
        for _ in range(2000):
            assert len(trail.dicts()) <= 64
            assert len(list(trail)) <= 64
    finally:
        stop.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
