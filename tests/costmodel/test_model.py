"""Tests for the Eq. 6-7 cost model and the analytic Np estimator."""

import numpy as np
import pytest

from repro.data import synthetic_shanghai_taxis
from repro.costmodel import (
    CostModel,
    EncodingCostParams,
    ReplicaProfile,
    expected_partitions,
    monte_carlo_partitions,
)
from repro.partition import CompositeScheme, GridPartitioner, KdTreePartitioner
from repro.workload import GroupedQuery, Query, Workload


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(4000, seed=23, num_taxis=16)


@pytest.fixture(scope="module")
def profile(ds):
    p = CompositeScheme(KdTreePartitioner(16), 8).build(ds)
    return ReplicaProfile.from_partitioning(p, "ROW-GZIP", len(ds), 1_000_000.0)


class TestEncodingCostParams:
    def test_partition_cost(self):
        params = EncodingCostParams(scan_rate=1000.0, extra_time=0.5)
        assert params.partition_cost(2000) == pytest.approx(2.5)

    def test_invalid_scan_rate(self):
        with pytest.raises(ValueError):
            EncodingCostParams(scan_rate=0, extra_time=0)

    def test_invalid_extra_time(self):
        with pytest.raises(ValueError):
            EncodingCostParams(scan_rate=1, extra_time=-1)


class TestReplicaProfile:
    def test_from_partitioning(self, profile, ds):
        assert profile.n_partitions == 128
        assert profile.records_per_partition == pytest.approx(len(ds) / 128)
        assert profile.encoding_name == "ROW-GZIP"

    def test_scaled(self, profile):
        big = profile.scaled(10)
        assert big.n_records == profile.n_records * 10
        assert big.storage_bytes == profile.storage_bytes * 10
        assert big.n_partitions == profile.n_partitions

    def test_scaled_invalid(self, profile):
        with pytest.raises(ValueError):
            profile.scaled(0)

    def test_invalid_records(self, profile):
        with pytest.raises(ValueError):
            ReplicaProfile("x", "p", "e", profile.box_array, profile.universe, 0, 0)

    def test_invalid_boxes(self, profile):
        with pytest.raises(ValueError):
            ReplicaProfile("x", "p", "e", np.zeros((2, 3)), profile.universe, 1, 0)


class TestExpectedPartitions:
    def test_positioned_exact(self, profile):
        u = profile.universe
        q = Query.from_box(u)
        assert expected_partitions(profile, q) == profile.n_partitions

    def test_grouped_universe(self, profile):
        u = profile.universe
        g = GroupedQuery(u.width, u.height, u.duration)
        assert expected_partitions(profile, g) == pytest.approx(profile.n_partitions)

    def test_grouped_tiny(self, profile):
        g = GroupedQuery(1e-12, 1e-12, 1e-6)
        assert expected_partitions(profile, g) == pytest.approx(1.0, abs=1e-6)

    def test_analytic_matches_monte_carlo(self, profile):
        u = profile.universe
        g = GroupedQuery(u.width * 0.2, u.height * 0.15, u.duration * 0.1)
        analytic = expected_partitions(profile, g)
        mc = monte_carlo_partitions(profile, g, np.random.default_rng(1), trials=1500)
        assert analytic == pytest.approx(mc, rel=0.05)

    def test_analytic_matches_monte_carlo_on_grid(self, ds):
        p = GridPartitioner(6, 5, 4).build(ds)
        profile = ReplicaProfile.from_partitioning(p, "ROW-PLAIN", len(ds), 1.0)
        u = profile.universe
        g = GroupedQuery(u.width * 0.33, u.height * 0.4, u.duration * 0.25)
        analytic = expected_partitions(profile, g)
        mc = monte_carlo_partitions(profile, g, np.random.default_rng(2), trials=1500)
        assert analytic == pytest.approx(mc, rel=0.05)

    def test_monte_carlo_invalid_trials(self, profile):
        with pytest.raises(ValueError):
            monte_carlo_partitions(profile, GroupedQuery(1, 1, 1),
                                   np.random.default_rng(0), trials=0)


class TestCostModel:
    @pytest.fixture(scope="class")
    def model(self):
        return CostModel({
            "ROW-GZIP": EncodingCostParams(scan_rate=10_000, extra_time=0.5),
            "COL-LZMA2": EncodingCostParams(scan_rate=5_000, extra_time=0.4),
        })

    def test_requires_params(self):
        with pytest.raises(ValueError):
            CostModel({})

    def test_unknown_encoding(self, model, profile):
        q = GroupedQuery(0.1, 0.1, 100)
        bad = ReplicaProfile("x", "p", "ROW-BROTLI", profile.box_array,
                             profile.universe, 100, 0)
        with pytest.raises(KeyError, match="ROW-BROTLI"):
            model.query_cost(q, bad)

    def test_update_params_publishes_a_new_mapping(self):
        """Readers take no lock, so the mapping one already holds must
        never change under it: an update replaces, it does not mutate."""
        old = EncodingCostParams(scan_rate=10_000, extra_time=0.5)
        new = EncodingCostParams(scan_rate=20_000, extra_time=0.1)
        model = CostModel({"ROW-GZIP": old})
        held = model._params
        assert model.update_params("ROW-GZIP", new) == old
        assert held == {"ROW-GZIP": old}
        assert model.params_for("ROW-GZIP") == new
        with pytest.raises(KeyError, match="ROW-BROTLI"):
            model.update_params("ROW-BROTLI", new)
        assert model.encoding_names == ["ROW-GZIP"]
        assert model.params_for("ROW-GZIP") == new

    def test_query_cost_formula(self, model, profile):
        """Eq. 7 against a hand computation."""
        u = profile.universe
        g = GroupedQuery(u.width, u.height, u.duration)  # touches all partitions
        np_q = profile.n_partitions
        expected = (
            np_q * profile.records_per_partition / 10_000 + np_q * 0.5
        )
        assert model.query_cost(g, profile) == pytest.approx(expected)

    def test_small_query_cheaper_than_big(self, model, profile):
        u = profile.universe
        small = GroupedQuery(u.width * 0.05, u.height * 0.05, u.duration * 0.05)
        big = GroupedQuery(u.width * 0.8, u.height * 0.8, u.duration * 0.8)
        assert model.query_cost(small, profile) < model.query_cost(big, profile)

    def test_cost_matrix_shape(self, model, profile):
        w = Workload([(GroupedQuery(0.1, 0.1, 1000), 1.0),
                      (GroupedQuery(0.5, 0.5, 10_000), 2.0)])
        other = ReplicaProfile("y", "p", "COL-LZMA2", profile.box_array,
                               profile.universe, profile.n_records, 1.0)
        m = model.cost_matrix(w, [profile, other])
        assert m.shape == (2, 2)
        assert np.all(m > 0)

    def test_workload_cost_picks_min(self, model, profile):
        u = profile.universe
        w = Workload([(GroupedQuery(u.width * 0.1, u.height * 0.1, u.duration * 0.1), 1.0)])
        fast = ReplicaProfile("fast", "p", "ROW-GZIP", profile.box_array,
                              profile.universe, profile.n_records, 1.0)
        slow = ReplicaProfile("slow", "p", "COL-LZMA2", profile.box_array,
                              profile.universe, profile.n_records * 100, 1.0)
        cost_both = model.workload_cost(w, [fast, slow])
        cost_fast = model.workload_cost(w, [fast])
        assert cost_both == pytest.approx(cost_fast)

    def test_workload_cost_weighting(self, model, profile):
        u = profile.universe
        g = GroupedQuery(u.width * 0.2, u.height * 0.2, u.duration * 0.2)
        base = model.workload_cost(Workload([(g, 1.0)]), [profile])
        doubled = model.workload_cost(Workload([(g, 2.0)]), [profile])
        assert doubled == pytest.approx(2 * base)

    def test_workload_cost_empty_replicas(self, model):
        with pytest.raises(ValueError):
            model.workload_cost(Workload([]), [])

    def test_scaling_data_scales_scan_term_only(self, model, profile):
        """Figure 6 mechanics: growing |D| leaves the extra cost term
        unchanged, so diverse replicas pay off more at scale."""
        u = profile.universe
        g = GroupedQuery(u.width * 0.3, u.height * 0.3, u.duration * 0.3)
        c1 = model.query_cost(g, profile)
        c10 = model.query_cost(g, profile.scaled(10))
        np_q = expected_partitions(profile, g)
        extra = np_q * 0.5
        assert c10 - extra == pytest.approx(10 * (c1 - extra))

    def test_finer_partitioning_cheaper_for_small_queries(self, model, ds):
        """The Figure 2 trade-off: small queries prefer fine partitions."""
        coarse = CompositeScheme(KdTreePartitioner(4), 2).build(ds)
        fine = CompositeScheme(KdTreePartitioner(64), 8).build(ds)
        n = 10_000_000  # large data so scan cost dominates extra cost
        p_coarse = ReplicaProfile.from_partitioning(coarse, "ROW-GZIP", n, 1.0)
        p_fine = ReplicaProfile.from_partitioning(fine, "ROW-GZIP", n, 1.0)
        u = p_coarse.universe
        small = GroupedQuery(u.width * 0.02, u.height * 0.02, u.duration * 0.02)
        assert model.query_cost(small, p_fine) < model.query_cost(small, p_coarse)

    def test_coarse_partitioning_cheaper_for_huge_queries_when_extra_dominates(
        self, model, ds
    ):
        coarse = CompositeScheme(KdTreePartitioner(4), 2).build(ds)
        fine = CompositeScheme(KdTreePartitioner(64), 8).build(ds)
        n = 1000  # tiny data: extra cost dominates
        p_coarse = ReplicaProfile.from_partitioning(coarse, "ROW-GZIP", n, 1.0)
        p_fine = ReplicaProfile.from_partitioning(fine, "ROW-GZIP", n, 1.0)
        u = p_coarse.universe
        huge = GroupedQuery(u.width * 0.9, u.height * 0.9, u.duration * 0.9)
        assert model.query_cost(huge, p_coarse) < model.query_cost(huge, p_fine)
