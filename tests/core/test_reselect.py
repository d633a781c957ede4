"""Unit coverage for workload-drift-triggered replica reselection.

The acceptance loop (live engine, physical builds, bit-equal reads
across the swap) lives in ``tests/storage/test_reselect_loop.py``; this
file pins the pieces in isolation: the Jensen-Shannon drift signal, the
warm-started incremental re-solve, and every decision branch of the
controller (gates, cooldown, dry-run, builder failures).
"""

import threading
import types

import numpy as np
import pytest

from repro.core import (
    AdvisorConfig,
    ReplicaAdvisor,
    ReselectionConfig,
    ReselectionController,
    replica_builder,
    warm_reselect,
    workload_divergence,
)
from repro.core.problem import SelectionInstance
from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.drills import hotspot_query, positioned_query
from repro.encoding import encoding_scheme_by_name
from repro.obs import Observability
from repro.partition import small_partitioning_schemes
from repro.workload import GroupedQuery, Workload


# -- shared fixtures ----------------------------------------------------------


def make_model():
    # Scan-bound regime: the Eq. 5 optimum genuinely moves when the
    # workload shifts from wide scans to hot-spot probes.
    return CostModel({
        "ROW-PLAIN": EncodingCostParams(scan_rate=250_000, extra_time=0.004),
        "COL-GZIP": EncodingCostParams(scan_rate=100_000, extra_time=0.001),
    })


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(800, seed=3, num_taxis=8)


@pytest.fixture(scope="module")
def advisor(ds):
    return ReplicaAdvisor(
        ds,
        small_partitioning_schemes((4, 16, 64), (2, 4)),
        [encoding_scheme_by_name(n) for n in ("ROW-PLAIN", "COL-GZIP")],
        make_model(),
        AdvisorConfig(n_records=len(ds)),
    )


def wide_workload(bb):
    return Workload([
        (GroupedQuery(bb.width * 0.6, bb.height * 0.6, bb.duration * 0.6),
         0.9),
        (GroupedQuery(bb.width * 0.2, bb.height * 0.2, bb.duration * 0.2),
         0.1),
    ])


def wide_query(bb, rng):
    return positioned_query(bb, 0.6, rng)


class FakeStore:
    """Just enough store surface for the controller: a named serving
    set with register/retire."""

    def __init__(self, names):
        self._names = list(names)
        self.registered = []
        self.retired = []

    def replica_names(self):
        return list(self._names)

    def register_replica(self, replica):
        self.registered.append(replica.name)
        self._names.append(replica.name)

    def retire_replica(self, name):
        self.retired.append(name)
        self._names.remove(name)


def fake_build(name):
    return types.SimpleNamespace(name=name)


def make_controller(ds, advisor, *, copies=3, build=fake_build,
                    config=None, obs=None):
    bb = ds.bounding_box()
    baseline = wide_workload(bb)
    budget = advisor.single_replica_budget(baseline, copies=copies)
    initial = advisor.recommend(baseline, budget, method="local-search")
    store = FakeStore(initial.replica_names)
    controller = ReselectionController(
        store, advisor, budget, baseline, build=build,
        config=config or ReselectionConfig(min_queries=8),
        obs=obs, rng=np.random.default_rng(0))
    return controller, store, bb


# -- drift signal -------------------------------------------------------------


class TestWorkloadDivergence:
    def test_identical_mixes_score_zero(self, ds):
        w = wide_workload(ds.bounding_box())
        assert workload_divergence(w, w) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_score_one(self, ds):
        bb = ds.bounding_box()
        big = wide_workload(bb)
        small = Workload([
            (GroupedQuery(bb.width * 0.01, bb.height * 0.01,
                          bb.duration * 0.01), 1.0),
        ])
        assert workload_divergence(big, small) == pytest.approx(1.0)

    def test_symmetric_and_bounded(self, ds):
        bb = ds.bounding_box()
        a = wide_workload(bb)
        b = Workload([
            (GroupedQuery(bb.width * 0.6, bb.height * 0.6,
                          bb.duration * 0.6), 0.2),
            (GroupedQuery(bb.width * 0.02, bb.height * 0.02,
                          bb.duration * 0.02), 0.8),
        ])
        ab = workload_divergence(a, b)
        ba = workload_divergence(b, a)
        assert ab == pytest.approx(ba)
        assert 0.0 < ab < 1.0

    def test_weight_shift_on_shared_support_registers(self, ds):
        bb = ds.bounding_box()
        a = wide_workload(bb)
        flipped = Workload([(g, w) for (g, _), w
                            in zip(a, [0.1, 0.9])])
        assert workload_divergence(a, flipped) > 0.1

    def test_deterministic_given_rng(self, ds):
        bb = ds.bounding_box()
        a = wide_workload(bb)
        b = Workload([
            (GroupedQuery(bb.width * 0.05, bb.height * 0.05,
                          bb.duration * 0.05), 1.0),
        ])
        runs = {workload_divergence(a, b, rng=np.random.default_rng(7))
                for _ in range(3)}
        assert len(runs) == 1


# -- warm re-solve ------------------------------------------------------------


def hand_instance():
    # Query 0 is cheap on replica 1, query 1 on replica 2; replica 0 is
    # a mediocre generalist.  Budget fits any two replicas.
    costs = np.array([
        [5.0, 1.0, 9.0],
        [5.0, 9.0, 0.5],
    ])
    return SelectionInstance(
        costs=costs, weights=np.array([1.0, 1.0]),
        storage=np.array([1.0, 1.0, 1.0]), budget=2.0,
        replica_names=("gen", "left", "right"))


class TestWarmReselect:
    def test_finds_the_specialist_pair(self):
        instance = hand_instance()
        result = warm_reselect(instance, incumbent=[0])
        assert result.selected == (1, 2)
        assert result.cost == pytest.approx(1.5)
        assert result.solver.startswith("warm[")

    def test_never_worse_than_incumbent(self, ds, advisor):
        bb = ds.bounding_box()
        workload = wide_workload(bb)
        budget = advisor.single_replica_budget(workload, copies=3)
        instance = advisor.build_instance(workload, budget)
        rng = np.random.default_rng(2)
        for _ in range(5):
            cols = sorted(rng.choice(
                instance.n_replicas, size=2, replace=False).tolist())
            if not instance.is_feasible(tuple(cols)):
                continue
            warm = warm_reselect(instance, cols)
            assert instance.capped_workload_cost(warm.selected) <= \
                instance.capped_workload_cost(cols) + 1e-9

    def test_pool_is_restricted_not_full(self, ds, advisor):
        bb = ds.bounding_box()
        workload = wide_workload(bb)
        budget = advisor.single_replica_budget(workload, copies=3)
        instance = advisor.build_instance(workload, budget)
        warm = warm_reselect(instance, [0])
        pool = int(warm.solver.split("[")[1].split("/")[0])
        assert pool < instance.n_replicas

    def test_empty_incumbent_still_solves(self):
        instance = hand_instance()
        result = warm_reselect(instance, incumbent=[])
        assert result.selected
        assert instance.is_feasible(result.selected)

    def test_out_of_range_incumbent_ignored(self):
        instance = hand_instance()
        result = warm_reselect(instance, incumbent=[-3, 99, 1])
        assert result.selected == (1, 2)


# -- the controller -----------------------------------------------------------


class TestControllerGates:
    def test_no_evaluation_before_min_queries(self, ds, advisor):
        obs = Observability.create()
        controller, _, bb = make_controller(ds, advisor, obs=obs)
        rng = np.random.default_rng(0)
        for _ in range(7):
            controller.observe(hotspot_query(bb, rng))
            controller.maybe_reselect()
        controller.wait()
        assert obs.metrics.counter(
            "repro_reselect_evaluations_total").value == 0

    def test_cooldown_between_evaluations(self, ds, advisor):
        obs = Observability.create()
        controller, _, bb = make_controller(ds, advisor, obs=obs)
        rng = np.random.default_rng(0)
        evals = obs.metrics.counter("repro_reselect_evaluations_total")
        for _ in range(8):
            controller.observe(wide_query(bb, rng))
        controller.maybe_reselect()
        controller.wait()
        assert evals.value == 1
        # The next min_queries - 1 offers are counter checks only.
        for _ in range(7):
            controller.maybe_reselect()
            controller.wait()
            assert evals.value == 1
        for _ in range(8):
            controller.observe(wide_query(bb, rng))
        controller.maybe_reselect()
        controller.wait()
        assert evals.value == 2

    def test_below_threshold_is_silent(self, ds, advisor):
        """Baseline-shaped traffic: the evaluation runs but neither
        audits nor re-solves — below-threshold is the steady state."""
        obs = Observability.create()
        controller, store, bb = make_controller(ds, advisor, obs=obs)
        rng = np.random.default_rng(1)
        for _ in range(8):
            controller.observe(wide_query(bb, rng))
        controller.maybe_reselect()
        controller.wait()
        assert len(controller.audit_log) == 0
        assert obs.metrics.counter(
            "repro_reselect_evaluations_total").value == 1
        assert store.registered == [] and store.retired == []

    def test_min_improvement_rejection(self, ds, advisor):
        controller, store, bb = make_controller(
            ds, advisor,
            config=ReselectionConfig(min_queries=8, min_improvement=0.99))
        rng = np.random.default_rng(2)
        for _ in range(8):
            controller.observe(hotspot_query(bb, rng))
        update = controller.evaluate(force=True)
        assert update.action == "rejected"
        assert "below minimum" in update.reason
        assert store.registered == []

    def test_incumbent_still_winner_rejection(self, ds, advisor):
        """Forced evaluation under baseline-shaped traffic: the warm
        solve re-confirms the incumbent and nothing changes."""
        controller, store, bb = make_controller(ds, advisor)
        rng = np.random.default_rng(3)
        for _ in range(8):
            controller.observe(wide_query(bb, rng))
        update = controller.evaluate(force=True)
        assert update.action == "rejected"
        assert "incumbent" in update.reason
        assert set(update.candidate) == set(update.incumbent)

    def test_dry_run_touches_nothing(self, ds, advisor):
        controller, store, bb = make_controller(
            ds, advisor, copies=1,
            config=ReselectionConfig(min_queries=8, dry_run=True))
        before = store.replica_names()
        rng = np.random.default_rng(4)
        for _ in range(8):
            controller.observe(hotspot_query(bb, rng))
        update = controller.evaluate(force=True)
        assert update.action == "dry-run"
        assert update.built and update.retired
        assert store.replica_names() == before
        assert controller.epoch == 0

    def test_no_builder_rejection(self, ds, advisor):
        controller, store, bb = make_controller(
            ds, advisor, copies=1, build=None)
        rng = np.random.default_rng(5)
        for _ in range(8):
            controller.observe(hotspot_query(bb, rng))
        update = controller.evaluate(force=True)
        assert update.action == "rejected"
        assert "no replica builder" in update.reason
        assert store.replica_names() == list(update.incumbent)

    def test_failed_build_is_audited_not_fatal(self, ds, advisor):
        def broken(name):
            raise RuntimeError("disk full")

        controller, store, bb = make_controller(
            ds, advisor, copies=1, build=broken)
        rng = np.random.default_rng(6)
        for _ in range(8):
            controller.observe(hotspot_query(bb, rng))
        update = controller.evaluate(force=True)
        assert update.action == "rejected"
        assert "failed" in update.reason and "disk full" in update.reason
        assert store.registered == [] and store.retired == []


class TestControllerApply:
    def test_applied_swap_starts_a_new_epoch(self, ds, advisor):
        obs = Observability.create()
        controller, store, bb = make_controller(
            ds, advisor, copies=1, obs=obs)
        incumbent = store.replica_names()
        rng = np.random.default_rng(7)
        for _ in range(8):
            controller.observe(hotspot_query(bb, rng))
        update = controller.evaluate(force=True)
        assert update.action == "applied"
        assert update.candidate_cost < update.incumbent_cost
        assert store.registered == list(update.built)
        assert store.retired == list(update.retired)
        assert set(store.replica_names()) == set(update.candidate)
        assert set(store.retired) & set(incumbent)
        # New epoch: observed becomes baseline, log cleared, fresh gate.
        assert controller.epoch == 1
        assert len(controller.logger) == 0
        assert workload_divergence(
            controller.baseline,
            Workload(list(update_observed(update)))) < 0.05
        assert obs.metrics.counter(
            "repro_reselect_applied_total").value == 1

    def test_install_happens_before_retire(self, ds, advisor):
        order = []

        class OrderedStore(FakeStore):
            def register_replica(self, replica):
                order.append(("install", replica.name))
                super().register_replica(replica)

            def retire_replica(self, name):
                order.append(("retire", name))
                super().retire_replica(name)

        bb = ds.bounding_box()
        baseline = wide_workload(bb)
        budget = advisor.single_replica_budget(baseline, copies=1)
        initial = advisor.recommend(baseline, budget, method="local-search")
        store = OrderedStore(initial.replica_names)
        controller = ReselectionController(
            store, advisor, budget, baseline, build=fake_build,
            config=ReselectionConfig(min_queries=8),
            rng=np.random.default_rng(0))
        rng = np.random.default_rng(8)
        for _ in range(8):
            controller.observe(hotspot_query(bb, rng))
        update = controller.evaluate(force=True)
        assert update.action == "applied"
        assert order, "swap never happened"
        first_retire = next(i for i, (op, _) in enumerate(order)
                            if op == "retire")
        assert all(op == "install" for op, _ in order[:first_retire])

    def test_background_evaluation(self, ds, advisor):
        obs = Observability.create()
        controller, store, bb = make_controller(
            ds, advisor, copies=1, obs=obs,
            config=ReselectionConfig(min_queries=8))
        rng = np.random.default_rng(9)
        for _ in range(8):
            controller.observe(hotspot_query(bb, rng))
        controller.maybe_reselect()  # handed to the thread
        controller.wait(timeout=30.0)
        assert controller.audit_log
        assert controller.audit_log[-1].action == "applied"

    def test_concurrent_offers_run_one_evaluation(self, ds, advisor):
        obs = Observability.create()
        controller, _, bb = make_controller(ds, advisor, obs=obs)
        rng = np.random.default_rng(10)
        for _ in range(8):
            controller.observe(wide_query(bb, rng))
        barrier = threading.Barrier(4)

        def offer():
            barrier.wait()
            controller.maybe_reselect()

        threads = [threading.Thread(target=offer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        controller.wait()
        assert obs.metrics.counter(
            "repro_reselect_evaluations_total").value == 1


def update_observed(update):
    for w, h, t, weight in update.observed:
        yield GroupedQuery(w, h, t), weight


class TestConfigAndBuilder:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            ReselectionConfig(drift_threshold=0.0)
        with pytest.raises(ValueError, match="drift_threshold"):
            ReselectionConfig(drift_threshold=1.5)
        with pytest.raises(ValueError, match="min_queries"):
            ReselectionConfig(min_queries=0)
        with pytest.raises(ValueError, match="min_improvement"):
            ReselectionConfig(min_improvement=-0.1)
        with pytest.raises(ValueError, match="max_grouped_queries"):
            ReselectionConfig(max_grouped_queries=0)

    def test_controller_validation(self, ds, advisor):
        baseline = wide_workload(ds.bounding_box())
        with pytest.raises(ValueError, match="budget"):
            ReselectionController(FakeStore([]), advisor, 0.0, baseline)
        with pytest.raises(ValueError, match="baseline"):
            ReselectionController(FakeStore([]), advisor, 1.0, Workload([]))

    def test_replica_builder_builds_named_profiles(self, ds, advisor):
        schemes = small_partitioning_schemes((4,), (2,))
        encodings = [encoding_scheme_by_name("ROW-PLAIN")]
        build = replica_builder(ds, schemes, encodings,
                                universe=advisor.universe)
        name = f"{schemes[0].name}/ROW-PLAIN"
        replica = build(name)
        assert replica.name == name
        assert replica.n_partitions > 0

    def test_replica_builder_rejects_unknown_names(self, ds):
        schemes = small_partitioning_schemes((4,), (2,))
        encodings = [encoding_scheme_by_name("ROW-PLAIN")]
        build = replica_builder(ds, schemes, encodings)
        with pytest.raises(KeyError):
            build("NOPE/ROW-PLAIN")
        with pytest.raises(KeyError):
            build("no-slash-at-all")
