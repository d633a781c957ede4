"""The plan stage reads a routed request's involved partitions off the
intersect masks its Eq. 7 ranking priced it with.  These tests fail if
that memo is wrong: stale after a same-name re-register, reused for a
box it was not computed on, or out of step with a brute-force sweep of
the replica's partition boxes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore, build_replica
from repro.verify import datasets_identical, oracle_answer
from repro.workload import Query, Workload

SPECS = (("fine", 16, 2, "COL-GZIP"), ("mid", 4, 2, "ROW-PLAIN"),
         ("coarse", 2, 1, "ROW-PLAIN"))


def make_model():
    return CostModel({
        "COL-GZIP": EncodingCostParams(scan_rate=100_000, extra_time=0.001),
        "ROW-PLAIN": EncodingCostParams(scan_rate=250_000, extra_time=0.0),
    })


def make_store(ds):
    store = BlotStore(ds, cost_model=make_model())
    for name, leaves, slices, enc in SPECS:
        store.add_replica(CompositeScheme(KdTreePartitioner(leaves), slices),
                          encoding_scheme_by_name(enc), InMemoryStore(),
                          name=name)
    return store


def spy_plans(store):
    """Record ``(replica object, read, plan)`` for every ``_plan`` call."""
    calls = []
    original = store._plan

    def plan(stored, read):
        out = original(stored, read)
        calls.append((stored, read, out))
        return out

    store._plan = plan
    return calls


def brute_force_plan(stored, request):
    """What ``_plan`` must return, by ``Box3.intersects`` /
    ``contains_box`` over every partition box of ``stored``."""
    box, keys = request.box, stored.unit_keys
    ids, inside = [], []
    for pid, part in enumerate(stored.partitioning.boxes()):
        if part.intersects(box):
            ids.append(pid)
            inside.append(keys[pid] is not None and box.contains_box(part))
    if not request.count:
        return ids, inside, len(ids), 0
    counts = stored.partitioning.counts
    boundary = [p for p, whole in zip(ids, inside)
                if not whole and keys[p] is not None]
    metadata = sum(int(counts[p]) for p, whole in zip(ids, inside) if whole)
    return boundary, [False] * len(boundary), len(boundary), metadata


def assert_plans_exact(calls):
    assert calls
    for stored, read, (pids, inside, n_involved, metadata) in calls:
        expected = brute_force_plan(stored, read.request)
        assert (list(pids), list(inside), n_involved, metadata) == expected


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(1500, seed=29, num_taxis=8)


@pytest.fixture(scope="module")
def spied(ds):
    store = make_store(ds)
    return store, spy_plans(store)


def edge_values(store, lo_col):
    """Every distinct partition face on one axis, across all replicas."""
    cols = [store.replica(n).partitioning.box_array[:, lo_col:lo_col + 2]
            for n in store.replica_names()]
    return sorted(set(np.concatenate(cols).ravel().tolist()))


@st.composite
def boxes(draw, store, universe):
    """Random boxes whose faces often sit exactly on a partition face;
    half of them grow outward from one partition box, so some contain
    whole partitions."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(store.replica_names()))
        part = store.replica(name).partitioning.box_array
        row = part[draw(st.integers(0, len(part) - 1))]
        grow = [draw(st.sampled_from([0.0, 0.0, 0.1, 0.5]))
                * (row[2 * k + 1] - row[2 * k]) for k in range(3)]
        return Box3(row[0] - grow[0], row[1] + grow[0], row[2] - grow[1],
                    row[3] + grow[1], row[4] - grow[2], row[5] + grow[2])
    bounds = []
    for col, lo, hi in ((0, universe.x_min, universe.x_max),
                        (2, universe.y_min, universe.y_max),
                        (4, universe.t_min, universe.t_max)):
        pad = (hi - lo) * 0.05
        coord = st.one_of(st.floats(lo - pad, hi + pad),
                          st.sampled_from(edge_values(store, col)))
        a, b = draw(coord), draw(coord)
        bounds += [min(a, b), max(a, b)]
    return Box3(*bounds)


class TestPlanMatchesBruteForce:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_read_surface(self, spied, ds, data):
        store, calls = spied
        box = data.draw(boxes(store, ds.bounding_box()))
        surface = data.draw(st.sampled_from(
            ["query", "count", "pinned", "each"]))
        as_query = data.draw(st.booleans())
        target = Query.from_box(box) if as_query else box
        request_box = target.box() if as_query else box
        calls.clear()
        if surface == "query":
            got = store.query(target).records
        elif surface == "count":
            got, _ = store.count(target)
        elif surface == "pinned":
            name = data.draw(st.sampled_from(store.replica_names()))
            got = store.query(target, replica=name).records
        else:
            (result,) = store.execute_each(
                Workload.unweighted([Query.from_box(box)])).results
            got, request_box = result.records, Query.from_box(box).box()
        assert_plans_exact(calls)
        if surface in ("query", "count") and as_query:
            # The memo is exercised, not bypassed: the routed read
            # carries the very replica object it was planned on.
            stored, read, _ = calls[0]
            assert read.routed[stored.name][0] is stored
        expected = oracle_answer(ds, request_box)
        if surface == "count":
            assert got == len(expected)
        else:
            assert datasets_identical(got, expected)


class TestMemoIsKeyedByReplicaObject:
    def test_swap_between_routing_and_scan_plans_on_new_boxes(self, ds):
        """A read routed on a replica that is retired and re-registered
        (same name, new partitioning) before its scan must be planned on
        the new replica's boxes — a memo keyed by name would hand it
        the old replica's partition ids."""
        store = make_store(ds)
        calls = spy_plans(store)
        bb = ds.bounding_box()
        q = Query(bb.width * 0.3, bb.height * 0.3, bb.duration * 0.5,
                  bb.x_min + bb.width * 0.4, bb.y_min + bb.height * 0.45,
                  bb.t_min + bb.duration * 0.5)
        rank = store._rank
        swapped = {}

        def rank_then_swap(*args, **kwargs):
            reads, plan = rank(*args, **kwargs)
            name = reads[0].walk.current
            old = store.replica(name)
            new = build_replica(
                ds, CompositeScheme(KdTreePartitioner(8), 4),
                encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore(),
                name=name)
            assert new.n_partitions != old.n_partitions
            store.retire_replica(name)
            store.register_replica(new)
            swapped["old"], swapped["new"] = old, new
            return reads, plan

        store._rank = rank_then_swap
        result = store.query(q)
        (stored, read, _), = calls
        assert read.routed[stored.name][0] is swapped["old"]
        assert stored is swapped["new"]
        assert_plans_exact(calls)
        assert datasets_identical(result.records, oracle_answer(ds, q.box()))


class TestRawBoxPlansOnItsOwnBounds:
    def test_drifting_box_is_not_planned_on_the_routed_mask(self, ds):
        """A raw ``Box3`` whose ``Query.from_box(box).box()`` lands one
        ulp inside a partition face must be planned on the exact box:
        reusing the routing mask would drop the partition it touches."""
        store = make_store(ds)
        bb = ds.bounding_box()
        fine = store.replica("fine").partitioning
        rng = np.random.default_rng(3)
        found = None
        for _ in range(20_000):
            pid = int(rng.integers(fine.n_partitions))
            face = fine.box_array[pid, 0]  # x_min of a partition
            if face <= bb.x_min:
                continue
            box = Box3(face - rng.uniform(1e-4, bb.width / 2), face,
                       bb.y_min, bb.y_max, bb.t_min, bb.t_max)
            derived = Query.from_box(box).box()
            if not np.array_equal(fine.involved(box), fine.involved(derived)):
                found = box
                break
        assert found is not None, "no drifting box found — widen the search"
        calls = spy_plans(store)
        result = store.query(found, replica="fine")
        n, _ = store.count(found)
        assert_plans_exact(calls)
        assert datasets_identical(result.records, oracle_answer(ds, found))
        assert n == len(oracle_answer(ds, found))
