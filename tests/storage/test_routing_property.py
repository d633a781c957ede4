"""Property: every read routes through one ranking.

``route_ranked``, ``route_workload``, ``query``, ``count`` and
``execute_each`` all rank replicas in the same pass, so for any store
(with or without a cost model), pin and failover setting they must agree
on the ranking a read walks and on the replica that serves it — and
every answer must equal the brute-force oracle.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, ExecOptions, InMemoryStore
from repro.verify import datasets_identical, oracle_answer
from repro.workload import Query, Workload

#: ``coarse`` and ``twin`` are identical, so every query ties them.
SPECS = (("fine", 16, 2, "COL-GZIP"), ("coarse", 4, 2, "ROW-PLAIN"),
         ("twin", 4, 2, "ROW-PLAIN"))


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(1500, seed=31, num_taxis=8)


@pytest.fixture(scope="module")
def stores(ds):
    model = CostModel({
        "COL-GZIP": EncodingCostParams(scan_rate=100_000, extra_time=0.001),
        "ROW-PLAIN": EncodingCostParams(scan_rate=250_000, extra_time=0.0),
    })
    built = {}
    for label, cost_model, specs in (("model", model, SPECS),
                                     ("no-model", None, SPECS),
                                     ("single", None, SPECS[:1])):
        store = BlotStore(ds, cost_model=cost_model)
        for name, leaves, slices, enc in specs:
            store.add_replica(
                CompositeScheme(KdTreePartitioner(leaves), slices),
                encoding_scheme_by_name(enc), InMemoryStore(), name=name)
        built[label] = store
    return built


def walked_rankings(store, read):
    """Run ``read()`` and return the rankings its reads walk."""
    rank = store._rank
    seen = []

    def spy(*args, **kwargs):
        reads, plan = rank(*args, **kwargs)
        seen.extend(list(r.walk.ranking) for r in reads)
        return reads, plan

    store._rank = spy
    try:
        return read(), seen
    finally:
        del store._rank


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_read_walks_the_one_ranking(ds, stores, data):
    label = data.draw(st.sampled_from(sorted(stores)))
    store = stores[label]
    names = store.replica_names()
    pin = data.draw(st.one_of(st.none(), st.sampled_from(names)))
    opts = ExecOptions(failover=data.draw(st.booleans()))
    bb = ds.bounding_box()
    queries = [
        Query(bb.width * f[0], bb.height * f[1], bb.duration * f[2],
              bb.x_min + bb.width * f[3], bb.y_min + bb.height * f[4],
              bb.t_min + bb.duration * f[5])
        for f in data.draw(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 6),
                                    min_size=1, max_size=4, unique=True))]
    workload = Workload.unweighted(queries)

    if pin is None and len(names) > 1 and store.cost_model is None:
        for read in (lambda: store.route_ranked(queries[0]),
                     lambda: store.route_workload(workload),
                     lambda: store.query(queries[0], options=opts),
                     lambda: store.count(queries[0], options=opts),
                     lambda: store.execute_each(workload, options=opts)):
            with pytest.raises(ValueError, match="no cost model"):
                read()
        return

    if store.cost_model is not None or len(names) == 1:
        plan = store.route_workload(workload)
        routed = [store.route_ranked(q) for q in queries]
        assert [list(plan.ranking_for(i)) for i in range(len(queries))] \
            == routed
    else:
        routed = [sorted(names)] * len(queries)
    expected = []
    for ranking in routed:
        if pin is not None:
            ranking = [pin] + [n for n in ranking if n != pin]
        expected.append(ranking if opts.failover else ranking[:1])

    each, each_walked = walked_rankings(store, lambda: store.execute_each(
        workload, replica=pin, options=opts))
    assert each_walked == expected
    for i, q in enumerate(queries):
        want = oracle_answer(ds, q.box())
        got, walked = walked_rankings(
            store, lambda: store.query(q, replica=pin, options=opts))
        assert walked == [expected[i]]
        (n, count_stats), walked = walked_rankings(
            store, lambda: store.count(q, replica=pin, options=opts))
        assert walked == [expected[i]]
        served = each.results[i]
        assert (got.stats.replica_name == count_stats.replica_name
                == served.stats.replica_name == expected[i][0])
        assert datasets_identical(got.records, want)
        assert datasets_identical(served.records, want)
        assert n == len(want)
