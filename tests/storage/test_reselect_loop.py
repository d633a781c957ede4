"""Acceptance: the full drift -> reselect -> swap loop on a live engine.

The scenario the feature exists for: a store deployed with the Eq. 1-5
selection for a wide-scan baseline starts serving a hot-spot probe
workload.  The attached controller must (a) flag the drift from the
served queries alone, (b) re-solve warm from the incumbent to a
strictly better Eq. 5 objective, (c) build and install the winners and
retire the displaced — all while concurrent reads stay bit-equal to
the brute-force oracle and never block on the transition.
"""

import threading

import numpy as np
import pytest

from repro.core import ReselectionConfig
from repro.data import synthetic_shanghai_taxis
from repro.drills import (
    hotspot_query,
    probe_set,
    probes_bit_equal,
    reselect_scenario,
    run_reselect_drill,
)
from repro.obs import build_report, validate_report

MIN_QUERIES = 16


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(2500, seed=43, num_taxis=10)


def make_loop(ds, copies=3):
    """The ``repro reselect`` scenario at this file's scale:
    ``(store, controller, obs, bounding box)``."""
    return reselect_scenario(
        ds, copies=copies, cache_bytes=1 << 25,
        config=ReselectionConfig(min_queries=MIN_QUERIES))[:4]


class TestDriftReselectSwapLoop:
    def test_hot_spot_shift_reselects_online(self, ds):
        """The headline loop — the ``repro reselect`` drill itself —
        driven entirely through ``store.query``: the engine's obs hooks
        feed the controller and trip the evaluation, no calls into the
        controller at all."""
        scenario, verified = run_reselect_drill(
            ds, 7, cache_bytes=1 << 25,
            config=ReselectionConfig(min_queries=MIN_QUERIES))
        store, controller = scenario.store, scenario.controller
        # Probes were bit-equal after the baseline phase and the swap.
        assert verified
        applied = [u for u in controller.audit_log if u.action == "applied"]
        assert applied, (
            f"no reselection applied; audit: {controller.audit_dicts()}")
        update = applied[0]
        # The baseline-shaped first window alone did not trigger it.
        assert update.observed_queries > MIN_QUERIES
        assert update.divergence >= update.drift_threshold
        # Strictly better Eq. 5 objective, by at least the guard margin.
        assert update.candidate_cost < update.incumbent_cost
        assert update.improvement >= controller.config.min_improvement
        assert set(store.replica_names()) == set(update.candidate)
        assert set(store.replica_names()) != set(scenario.incumbent)
        assert controller.epoch >= 1
        store.close()

    def test_reads_stay_bit_equal_through_concurrent_swap(self, ds):
        """A reader hammering fixed probes while the swap happens must
        never block, error, or see a non-oracle answer."""
        store, controller, obs, bb = make_loop(ds, copies=1)
        rng = np.random.default_rng(11)
        probes, oracles = probe_set(ds, rng, n=2, frac=0.2)
        for _ in range(MIN_QUERIES):
            controller.observe(hotspot_query(bb, rng))

        stop = threading.Event()
        errors: list[str] = []
        reads = [0]

        def reader():
            while not stop.is_set():
                try:
                    same = probes_bit_equal(store, probes, oracles)
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"read raised: {exc!r}")
                    return
                if not same:
                    errors.append("read diverged from oracle")
                    return
                reads[0] += len(probes)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            update = controller.evaluate(force=True)
        finally:
            stop.set()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert errors == []
        assert reads[0] > 0
        assert update.action == "applied"
        # And the probes still answer bit-equal after the dust settles.
        assert probes_bit_equal(store, probes, oracles)
        store.close()

    def test_tight_budget_swap_retires_displaced_replica(self, ds):
        """With the budget pinned to one replica's storage, the winner
        cannot be added alongside the incumbent — the apply path must
        install it first and then retire the displaced replica."""
        store, controller, obs, bb = make_loop(ds, copies=1)
        incumbent = {name: store.replica(name)
                     for name in store.replica_names()}
        rng = np.random.default_rng(13)
        probes, oracles = probe_set(ds, rng, n=2, frac=0.2)
        for _ in range(MIN_QUERIES):
            controller.observe(hotspot_query(bb, rng))
        update = controller.evaluate(force=True)

        assert update.action == "applied"
        assert update.retired, "tight budget must displace the incumbent"
        assert set(update.retired) & set(incumbent)
        assert update.candidate_cost < update.incumbent_cost
        serving = store.replica_names()
        assert not set(serving) & set(update.retired)
        # Retired replicas' cached partitions are freed...
        cache = store.partition_cache
        for name in update.retired:
            old = incumbent[name]
            assert all(cache.get((old.serial, pid)) is None
                       for pid in range(old.n_partitions))
        # ...and reads against the survivor set stay bit-equal.
        assert probes_bit_equal(store, probes, oracles)
        store.close()

    def test_report_carries_the_reselection_audit(self, ds):
        store, controller, obs, bb = make_loop(ds, copies=1)
        rng = np.random.default_rng(17)
        for _ in range(MIN_QUERIES):
            controller.observe(hotspot_query(bb, rng))
        update = controller.evaluate(force=True)
        assert update.action == "applied"

        report = build_report(obs, reselector=controller)
        validate_report(report)
        section = report["reselection"]
        assert section["evaluations"] == 1
        assert section["applied"] == 1
        assert section["audit"][-1]["action"] == "applied"
        assert section["audit"][-1]["built"] == list(update.built)
        assert section["replica_changes_by_op"].get("register", 0) >= 1
        store.close()
