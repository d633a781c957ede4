"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``; not
part of the Tier-1 ``testpaths``).  Drives the full run at ``--smoke``
scale: 100k records, three-second phases, nothing written to history."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from benchmarks.e2e import history, inputs, spec
from benchmarks.e2e.verify import Verifier
from repro import Dataset


@pytest.fixture(scope="module")
def smoke_run():
    before = history.HISTORY.read_text() if history.HISTORY.exists() else None
    proc = subprocess.run(
        [sys.executable, str(spec.HERE / "run.py"), "--smoke", "--seed", "7"],
        capture_output=True, text=True, timeout=900)
    after = history.HISTORY.read_text() if history.HISTORY.exists() else None
    with open(spec.HERE / "results" / "latest.json", encoding="utf-8") as fh:
        latest = json.load(fh)
    return proc, latest, before == after


def test_smoke_run_is_correct_and_leaves_history_alone(smoke_run):
    proc, latest, history_untouched = smoke_run
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert history_untouched
    assert sorted(latest["workloads"]) == sorted(spec.WORKLOADS)
    for row in latest["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            attempted, failed = row[f"{section}_ops"]
            assert attempted > 1 and failed == 0        # error_share == 0


def test_every_declared_name_is_emitted_with_its_unit_and_nothing_else(smoke_run):
    _proc, latest, _ = smoke_run
    declared = {**spec.END_TO_END, **spec.PER_LAYER}
    assert latest["units"] == {n: m["unit"] for n, m in declared.items()}
    for row in latest["workloads"].values():
        assert sorted(row["end_to_end"]) == sorted(spec.END_TO_END)
        assert sorted(row["per_layer"]) == sorted(spec.PER_LAYER)
        assert all(v > 0 for v in row["end_to_end"].values())
    # every layer metric is measured by at least one workload
    for name in spec.PER_LAYER:
        if name in ("serve.shed", "serve.failovers", "serve.degraded",
                    "cache.evictions", "obs.spans_dropped"):
            continue                                    # must-be-zero counters
        assert any(row["per_layer"][name] != 0
                   for row in latest["workloads"].values()), name


def test_layer_rows_sum_to_the_request_wall_time(smoke_run):
    _proc, latest, _ = smoke_run
    for workload in ("serve_interactive", "serve_scan"):
        row = latest["workloads"][workload]
        assert abs(float(row["per_layer_notes"]["rows_over_wall"]) - 1) < 0.05
        assert row["per_layer"]["obs.spans_dropped"] == 0
        for name in ("serve.shed", "serve.failovers", "serve.degraded"):
            assert row["per_layer"][name] == 0
    for row in latest["workloads"].values():
        for name, value in row["per_layer"].items():
            if "roofline_frac" in name or "eq7_ratio" in name:
                assert np.isfinite(value) and value >= 0


def test_a_corrupted_answer_is_caught_by_the_oracle():
    dataset = inputs.make_dataset(7, 5_000)
    u = dataset.bounding_box()
    box = type(u)(u.x_min, u.x_max, u.y_min, u.y_max, u.t_min,
                  (u.t_min + u.t_max) / 2)
    good = dataset.filter_box(box)
    assert len(good) > 10
    dropped = good.take(np.arange(len(good)) != 3)
    altered = Dataset({name: (col + 1 if name == "oid" else col)
                       for name, col in good.columns.items()})
    verifier = Verifier(budget_s=30.0)
    verifier.check(dataset, [("good", box, good), ("good-count", box, len(good))])
    assert verifier.mismatched == 0 and verifier.full == 1
    verifier.check(dataset, [("dropped", box, dropped), ("altered", box, altered),
                             ("bad-count", box, len(good) + 1)])
    verifier.check_counts(dataset, [("short", box, len(good) - 1)])
    assert verifier.mismatched == 4


def test_stream_is_a_pure_function_of_the_seed():
    dataset = inputs.make_dataset(7, 5_000)

    def stream(seed):
        rng = np.random.default_rng(seed)
        s = inputs.QueryStream(dataset.bounding_box(), (0, 1, 2), 300, rng)
        return [s[i] for i in range(300)]

    assert stream(1) == stream(1)
    assert stream(1) != stream(2)
    classes = inputs.class_schedule((5, 6, 7), 50, np.random.default_rng(0), 5)
    for k in range(0, 50, 5):       # every block of five: 2 x q6, 2 x q7, q8
        assert sorted(classes[k:k + 5]) == [5, 5, 6, 6, 7]
