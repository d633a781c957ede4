"""Tests for the vectorized batch paths of the cost model, and for the
batch routing the engine builds on them."""

import numpy as np
import pytest

from repro.costmodel import (
    CostModel,
    EncodingCostParams,
    ReplicaProfile,
    batch_expected_partitions,
    expected_partitions,
)
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.errors import ReplicaExists
from repro.geometry import Box3
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore
from repro.workload import (
    GroupedQuery,
    Query,
    Workload,
    positioned_random_workload,
)

UNIVERSE = Box3(0.0, 10.0, 0.0, 10.0, 0.0, 100.0)


def make_profile(name, n_partitions, rng, encoding="ROW-PLAIN"):
    lo_xy = rng.uniform(0.0, 9.0, size=(n_partitions, 2))
    hi_xy = lo_xy + rng.uniform(0.2, 1.0, size=(n_partitions, 2))
    lo_t = rng.uniform(0.0, 90.0, size=n_partitions)
    hi_t = lo_t + rng.uniform(2.0, 10.0, size=n_partitions)
    arr = np.column_stack([
        lo_xy[:, 0], hi_xy[:, 0], lo_xy[:, 1], hi_xy[:, 1], lo_t, hi_t,
    ])
    return ReplicaProfile(name, "synthetic", encoding, arr, UNIVERSE,
                          n_records=1e5, storage_bytes=1e6)


def mixed_workload(rng, n_positioned=25, n_grouped=6):
    entries = []
    for _ in range(n_positioned):
        cx, cy = rng.uniform(2.0, 8.0, size=2)
        ct = rng.uniform(20.0, 80.0)
        entries.append((Query(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                              rng.uniform(5.0, 20.0), cx, cy, ct), 1.0))
    for _ in range(n_grouped):
        entries.append((GroupedQuery(rng.uniform(0.5, 5.0),
                                     rng.uniform(0.5, 5.0),
                                     rng.uniform(5.0, 50.0)), 1.0))
    return Workload(entries)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="module")
def model():
    return CostModel({
        "ROW-PLAIN": EncodingCostParams(scan_rate=1_000.0, extra_time=0.5),
        "COL-GZIP": EncodingCostParams(scan_rate=4_000.0, extra_time=0.8),
    })


@pytest.fixture(scope="module")
def profiles(rng):
    return [
        make_profile("r0", 40, rng),
        make_profile("r1", 80, rng, encoding="COL-GZIP"),
        make_profile("r2", 25, rng),
    ]


class TestBatchExpectedPartitions:
    def test_matches_scalar_positioned_and_grouped(self, rng, profiles):
        queries = mixed_workload(rng).queries()
        for profile in profiles:
            batch = batch_expected_partitions(profile, queries)
            scalar = np.array([expected_partitions(profile, q) for q in queries])
            assert np.array_equal(batch, scalar)

    def test_empty_query_list(self, profiles):
        assert batch_expected_partitions(profiles[0], []).shape == (0,)

    def test_all_grouped(self, rng, profiles):
        queries = [GroupedQuery(1.0, 1.0, 10.0), GroupedQuery(9.0, 9.0, 90.0)]
        batch = batch_expected_partitions(profiles[0], queries)
        assert batch[1] > batch[0]  # bigger query involves more partitions

    def test_universe_spanning_grouped_query(self, profiles):
        # Degenerate centroid range: probability 1 for every partition.
        full = GroupedQuery(UNIVERSE.width, UNIVERSE.height, UNIVERSE.duration)
        batch = batch_expected_partitions(profiles[0], [full])
        assert batch[0] == profiles[0].n_partitions


class TestCostMatrix:
    def test_matches_scalar_query_cost(self, rng, model, profiles):
        workload = mixed_workload(rng)
        matrix = model.cost_matrix(workload, profiles)
        for i, q in enumerate(workload.queries()):
            for j, p in enumerate(profiles):
                assert matrix[i, j] == model.query_cost(q, p)


@pytest.fixture(scope="module")
def taxis():
    return synthetic_shanghai_taxis(2000, seed=11, num_taxis=8)


def make_store(ds, model, specs=((8, 2, "ROW-PLAIN", "r0"),
                                 (16, 4, "COL-GZIP", "r1"),
                                 (4, 2, "ROW-PLAIN", "r2"))):
    store = BlotStore(ds, cost_model=model)
    for leaves, slices, enc, name in specs:
        store.add_replica(CompositeScheme(KdTreePartitioner(leaves), slices),
                          encoding_scheme_by_name(enc), InMemoryStore(),
                          name=name)
    return store


def taxi_workload(ds, n=25):
    return positioned_random_workload(ds.bounding_box(), n,
                                      np.random.default_rng(5),
                                      max_fraction=0.5)


class TestRouteBatch:
    """``BlotStore.route_workload`` is the batch form of ``route`` /
    ``route_ranked``: one pass, the same costs, the same ties."""

    def test_plan_matches_per_query_argmin(self, taxis, model):
        store = make_store(taxis, model)
        workload = taxi_workload(taxis)
        plan = store.route_workload(workload)
        profiles = [store.replica(n).profile() for n in plan.replica_names]
        for i, q in enumerate(workload.queries()):
            costs = [model.query_cost(q, p) for p in profiles]
            assert plan.costs[i].tolist() == costs
            assert costs[int(plan.assignments[i])] == min(costs)
            assert plan.assigned_names()[i] == store.route(q)
            assert list(plan.ranking_for(i)) == store.route_ranked(q)

    def test_tie_breaks_to_lexicographically_smallest_name(self, taxis,
                                                           model):
        # Registered late-name first: the tie rule must not depend on it.
        twins = ((8, 2, "ROW-PLAIN", "zz-late"), (8, 2, "ROW-PLAIN", "aa-early"))
        store = make_store(taxis, model, twins)
        workload = taxi_workload(taxis)
        plan = store.route_workload(workload)
        assert set(plan.assigned_names()) == {"aa-early"}
        assert {store.route(q) for q in workload.queries()} == {"aa-early"}
        assert store.route_ranked(workload.queries()[0]) == [
            "aa-early", "zz-late"]

    def test_empty_profiles_rejected(self, taxis, model):
        with pytest.raises(ValueError, match="no replicas"):
            BlotStore(taxis, cost_model=model).route_workload(
                taxi_workload(taxis))
        with pytest.raises(ValueError, match="no cost model"):
            make_store(taxis, None).route_workload(taxi_workload(taxis))
        with pytest.raises(ValueError, match="positioned"):
            make_store(taxis, model).route_workload(mixed_workload(
                np.random.default_rng(1)))

    def test_duplicate_names_rejected(self, taxis, model):
        store = make_store(taxis, model)
        with pytest.raises(ReplicaExists):
            store.register_replica(store.replica("r0"))

    def test_plan_accessors(self, taxis, model):
        workload = taxi_workload(taxis)
        plan = make_store(taxis, model).route_workload(workload)
        assert plan.n_queries == len(workload)
        counts = plan.query_counts()
        assert sum(counts.values()) == len(workload)
        recovered = np.zeros(len(workload), dtype=bool)
        for name in counts:
            idx = plan.queries_for(name)
            assert all(plan.assigned_names()[i] == name for i in idx)
            recovered[idx] = True
        assert recovered.all()

    def test_total_cost_matches_workload_cost(self, taxis, model):
        store = make_store(taxis, model)
        workload = taxi_workload(taxis)
        plan = store.route_workload(workload)
        profiles = [store.replica(n).profile() for n in plan.replica_names]
        assert plan.total_cost(workload.weights()) == pytest.approx(
            model.workload_cost(workload, profiles))
