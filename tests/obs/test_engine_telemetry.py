"""Integration tests: the instrumented read path of :class:`BlotStore`.

Covers the acceptance criteria of the telemetry PR: spans per executed
query (including per-partition scan spans), registry counters consistent
with the per-call ``QueryStats``/``WorkloadStats``, drift pairs recorded
for the serving replica, and a strictly silent disabled path.
"""

import numpy as np
import pytest

from repro.costmodel import CostModel, EncodingCostParams
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.obs import Observability
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, ExecOptions, FaultInjector, InMemoryStore
from repro.workload import positioned_random_workload


MODEL = CostModel({
    "ROW-PLAIN": EncodingCostParams(scan_rate=5_000, extra_time=0.01),
    "COL-GZIP": EncodingCostParams(scan_rate=2_000, extra_time=0.05),
})

TRACED = ExecOptions(trace=True)


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(4000, seed=23, num_taxis=16)


def make_store(ds, obs=None, cache_bytes=None, injector=None):
    store = BlotStore(ds, cost_model=MODEL, cache_bytes=cache_bytes,
                      fault_injector=injector, observability=obs)
    scheme = CompositeScheme(KdTreePartitioner(8), 4)
    store.add_replica(scheme, encoding_scheme_by_name("ROW-PLAIN"),
                      InMemoryStore(), name="fast")
    store.add_replica(scheme, encoding_scheme_by_name("COL-GZIP"),
                      InMemoryStore(), name="slow")
    return store


def make_workload(ds, n, seed=3):
    rng = np.random.default_rng(seed)
    return positioned_random_workload(ds.bounding_box(), n, rng,
                                      max_fraction=0.4)


def one_query(ds):
    return next(iter(make_workload(ds, 1)))[0]


class TestQueryTracing:
    def test_query_produces_a_span_tree(self, ds):
        obs = Observability.create()
        store = make_store(ds, obs)
        result = store.query(one_query(ds), options=TRACED)
        spans = obs.tracer.spans()
        assert spans, "tracing enabled must record spans"
        counts = obs.tracer.span_counts()
        assert counts["query"] == 1
        assert counts["route"] == 1
        # One scan span per involved partition, each with a decode child.
        assert counts["scan"] == result.stats.partitions_involved
        assert counts["decode"] == result.stats.partitions_involved
        (root,) = [s for s in spans if s.name == "query"]
        assert root.parent_id is None
        assert root.attrs["replica"] == result.stats.replica_name
        for s in spans:
            assert s.trace_id == root.trace_id
            if s.name == "scan":
                assert s.parent_id == root.span_id
                assert "partition" in s.attrs

    def test_count_traced_too(self, ds):
        obs = Observability.create()
        store = make_store(ds, obs)
        store.count(one_query(ds), options=TRACED)
        counts = obs.tracer.span_counts()
        assert counts["query"] == 1
        assert counts["route"] == 1

    def test_workload_spans_cover_every_query(self, ds):
        obs = Observability.create()
        store = make_store(ds, obs)
        n = 8
        store.execute_workload(make_workload(ds, n), options=TRACED)
        counts = obs.tracer.span_counts()
        assert counts["workload"] == 1
        assert counts["query"] == n          # >= 1 span per executed query
        assert counts["scan"] >= 1           # per-partition scan spans
        traces = obs.tracer.traces()
        assert len(traces) == 1              # one trace rooted at the batch
        (spans,) = traces.values()
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["workload"]

    def test_trace_off_records_nothing(self, ds):
        obs = Observability.create()
        store = make_store(ds, obs)
        store.query(one_query(ds))  # default options: trace=False
        store.execute_workload(make_workload(ds, 4))
        assert obs.tracer.spans() == []
        assert obs.tracer.recorded == 0

    def test_no_observability_is_silent_and_correct(self, ds):
        plain = make_store(ds)
        with_obs = make_store(ds, Observability.create())
        q = one_query(ds)
        a = plain.query(q, options=TRACED)   # trace=True without obs: no-op
        b = with_obs.query(q, options=TRACED)
        assert a.records.binary_size_bytes() == b.records.binary_size_bytes()
        assert plain.observability is None


class TestSpanVocabulary:
    """The span names, nesting and ``kind`` attribute the end-to-end
    benchmark folds into its per-layer rows (``benchmarks/e2e/fold.py``
    reads ``query -> route, scan -> decode``, ``workload -> scan ->
    decode``, ``query[kind=workload]`` and ``buffer_scan``): a read-path
    refactor that renames or re-parents one silently zeroes a row."""

    @staticmethod
    def edges(spans):
        """``{(parent name | None, name)}`` over one recorder's spans."""
        by_id = {s.span_id: s for s in spans}
        return {(by_id[s.parent_id].name if s.parent_id else None, s.name)
                for s in spans}

    @pytest.mark.parametrize("kind", ["query", "count"])
    def test_scalar_read(self, ds, kind):
        obs = Observability.create()
        store = make_store(ds, obs)
        getattr(store, kind)(one_query(ds), options=TRACED)
        spans = obs.tracer.spans()
        assert self.edges(spans) == {(None, "query"), ("query", "route"),
                                     ("query", "scan"), ("scan", "decode")}
        (root,) = [s for s in spans if s.name == "query"]
        assert root.attrs["kind"] == kind

    def test_two_query_workload(self, ds):
        obs = Observability.create()
        store = make_store(ds, obs)
        store.execute_workload(make_workload(ds, 2), options=TRACED)
        spans = obs.tracer.spans()
        assert self.edges(spans) == {
            (None, "workload"), ("workload", "route"), ("workload", "scan"),
            ("scan", "decode"), ("workload", "query")}
        per_query = [s for s in spans if s.name == "query"]
        assert [s.attrs["kind"] for s in per_query] == ["workload"] * 2
        assert sorted(s.attrs["query"] for s in per_query) == [0, 1]

    def test_ingest_buffer_scan_is_its_own_root(self, tmp_path, ds):
        from repro.storage.ingest import IngestingBlotStore, ReplicaSpec

        obs = Observability.create()
        ordered = ds.sorted_by_time()
        head, tail = (ordered.take(np.arange(3000)),
                      ordered.take(np.arange(3000, len(ordered))))
        store = IngestingBlotStore(head, [ReplicaSpec(
            CompositeScheme(KdTreePartitioner(8), 4),
            encoding_scheme_by_name("COL-GZIP"), name="r")],
            wal_dir=str(tmp_path), observability=obs)
        store.append(tail)
        store.query(ds.bounding_box(), options=TRACED)
        assert self.edges(obs.tracer.spans()) == {
            (None, "query"), ("query", "route"), ("query", "scan"),
            ("scan", "decode"), (None, "buffer_scan")}


class TestMetricsConsistency:
    def test_workload_counters_match_stats(self, ds):
        obs = Observability.create()
        store = make_store(ds, obs, cache_bytes=1 << 22)
        result = store.execute_workload(make_workload(ds, 10))
        s = result.stats
        m = obs.metrics
        assert m.counter_value("repro_workloads_total") == 1
        assert m.counter_value("repro_queries_total",
                               labels={"path": "workload"}) == s.n_queries
        assert m.counter_value("repro_bytes_read_total") == s.bytes_read
        assert m.counter_value("repro_records_scanned_total") == s.records_scanned
        per_replica = {
            name: m.counter_value("repro_queries_by_replica_total",
                                  labels={"replica": name})
            for name in store.replica_names()
        }
        assert {k: v for k, v in per_replica.items() if v} == {
            k: float(v) for k, v in s.per_replica_queries.items()}
        # Cache counters mirror the store's lifetime cache stats.
        cs = store.cache_stats()
        assert m.counter_value("repro_cache_hits_total") == cs.hits
        assert m.counter_value("repro_cache_misses_total") == cs.misses

    def test_query_path_counters(self, ds):
        obs = Observability.create()
        store = make_store(ds, obs)
        r = store.query(one_query(ds))
        m = obs.metrics
        assert m.counter_value("repro_queries_total",
                               labels={"path": "query"}) == 1
        assert m.counter_value("repro_bytes_read_total") == r.stats.bytes_read
        assert obs.metrics.quantile_sketch("repro_query_seconds").count == 1

    def test_failover_and_fault_counters(self, ds):
        obs = Observability.create()
        inj = FaultInjector()
        store = make_store(ds, obs, injector=inj)
        q = one_query(ds)
        involved = store.replica("fast").involved_partitions(q.box())
        inj.fail_partition("fast", int(involved[0]))  # persistent
        result = store.query(q, options=TRACED)
        assert result.stats.replica_name == "slow"
        assert result.stats.failovers == 1
        m = obs.metrics
        assert m.counter_value("repro_failovers_total") == 1
        assert m.counter_value("repro_retries_total") == result.stats.retries
        assert m.counter_value("repro_faults_injected_total") >= 1
        assert "failover" in obs.tracer.span_counts()

    def test_retry_uses_injected_sleep_not_wall_clock(self, ds):
        # A retry is made at once: nothing sleeps between attempts.  It
        # is counted, and traced as an instant span under its scan.
        obs = Observability.create()
        inj = FaultInjector()
        store = make_store(ds, obs, injector=inj)
        q = one_query(ds)
        involved = store.replica("fast").involved_partitions(q.box())
        inj.fail_partition("fast", int(involved[0]), times=1)
        opts = ExecOptions(retries=2, trace=True)
        result = store.query(q, options=opts)
        assert result.stats.retries == 1
        assert obs.metrics.counter_value("repro_retries_total") == 1
        spans = {s.span_id: s for s in obs.tracer.spans()}
        (retry,) = [s for s in spans.values() if s.name == "retry"]
        assert retry.seconds < 0.01
        assert retry.attrs["attempt"] == 1
        assert spans[retry.parent_id].name == "scan"


class TestDriftRecording:
    def test_query_path_records_drift_for_serving_replica(self, ds):
        obs = Observability.create()
        store = make_store(ds, obs)
        r = store.query(one_query(ds))
        assert obs.drift.replica_names() == [r.stats.replica_name]
        status = obs.drift.status(r.stats.replica_name)
        assert status.samples == 1
        assert status.mean_predicted > 0

    def test_workload_records_one_pair_per_query(self, ds):
        obs = Observability.create()
        store = make_store(ds, obs)
        n = 8
        result = store.execute_workload(make_workload(ds, n))
        assert obs.drift.recorded == n
        sampled = sum(s.samples for s in obs.drift.statuses())
        assert sampled == n
        assert set(obs.drift.replica_names()) <= set(
            result.stats.per_replica_queries)
