"""Integration: advisor recommendations deployed into a live engine.

The advisor's report names replicas and routes queries; this test builds
exactly those replicas into a BlotStore and verifies the engine's own
cost-based routing agrees with the report's assignment — the recommend →
deploy → serve handoff.
"""

import numpy as np
import pytest

from repro.cluster import cost_model_for, make_cluster, position_query
from repro.core import AdvisorConfig, ReplicaAdvisor
from repro.data import synthetic_shanghai_taxis
from repro.partition import small_partitioning_schemes
from repro.storage import BlotStore, InMemoryStore
from repro.workload import paper_workload


@pytest.fixture(scope="module")
def deployment():
    sample = synthetic_shanghai_taxis(8000, seed=193, num_taxis=24)
    cluster = make_cluster("amazon-s3-emr", seed=53)
    schemes = small_partitioning_schemes((4, 16, 64), (4, 16))
    from repro.encoding import paper_encoding_schemes
    encodings = paper_encoding_schemes()
    model = cost_model_for(cluster, [s.name for s in encodings])
    advisor = ReplicaAdvisor(
        sample, schemes, encodings, model,
        AdvisorConfig(n_records=len(sample)),  # deploy at sample scale
    )
    workload = paper_workload(advisor.universe)
    budget = advisor.single_replica_budget(workload, copies=3)
    report = advisor.recommend(workload, budget, method="exact")

    # Deploy: build exactly the recommended replicas.
    store = BlotStore(sample, cost_model=model)
    scheme_by_name = {s.name: s for s in schemes}
    encoding_by_name = {e.name: e for e in encodings}
    for name in report.replica_names:
        part_name, enc_name = name.split("/")
        store.add_replica(scheme_by_name[part_name],
                          encoding_by_name[enc_name],
                          InMemoryStore(), name=name)
    return advisor, workload, report, store


class TestAdvisorToEngine:
    def test_all_recommended_replicas_deployed(self, deployment):
        _, _, report, store = deployment
        assert set(store.replica_names()) == set(report.replica_names)

    def test_engine_routing_matches_report_assignment(self, deployment):
        """For positioned samples of each grouped query, the engine's
        router picks the replica the report assigned (costs per grouped
        query are position-independent in expectation, so positions near
        the centroid range's middle agree with the grouped decision)."""
        advisor, workload, report, store = deployment
        rng = np.random.default_rng(3)
        agreements = 0
        total = 0
        for (query, _), label in zip(workload, report.instance.query_labels):
            expected = report.assignment[label]
            for _ in range(3):
                q = position_query(query, advisor.candidates[0], rng)
                total += 1
                agreements += store.route(q) == expected
        # Positioned instances can legitimately deviate near partition
        # boundaries; the bulk must agree.
        assert agreements / total > 0.6

    def test_deployed_store_answers_workload(self, deployment):
        advisor, workload, _, store = deployment
        rng = np.random.default_rng(5)
        ds = store.dataset
        for query, _ in workload:
            q = position_query(query, advisor.candidates[0], rng)
            res = store.query(q)
            assert res.stats.records_returned == ds.count_in_box(q.box())

    def test_storage_within_budget(self, deployment):
        _, _, report, store = deployment
        # Actual materialized storage respects the planned budget within
        # estimation error (ratios measured on the same sample).
        assert store.total_storage_bytes() <= report.budget * 1.2
