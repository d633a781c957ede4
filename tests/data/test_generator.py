"""Tests for the synthetic taxi-fleet generator."""

import numpy as np
import pytest

from repro.data import FleetConfig, TaxiFleetGenerator, synthetic_shanghai_taxis
from repro.data.generator import SHANGHAI_BBOX, Hotspot


@pytest.fixture(scope="module")
def small_fleet():
    cfg = FleetConfig(num_taxis=8, duration=4 * 3600.0, seed=11)
    return cfg, TaxiFleetGenerator(cfg).generate()


class TestFleetGeneration:
    def test_nonempty(self, small_fleet):
        _, ds = small_fleet
        assert len(ds) > 100

    def test_deterministic(self, small_fleet):
        cfg, ds = small_fleet
        again = TaxiFleetGenerator(cfg).generate()
        assert ds == again

    def test_different_seed_differs(self, small_fleet):
        cfg, ds = small_fleet
        other = TaxiFleetGenerator(FleetConfig(
            num_taxis=cfg.num_taxis, duration=cfg.duration, seed=cfg.seed + 1,
        )).generate()
        assert ds != other

    def test_within_bbox(self, small_fleet):
        cfg, ds = small_fleet
        assert cfg.bounding_box().contains_box(ds.bounding_box())

    def test_sorted_by_time(self, small_fleet):
        _, ds = small_fleet
        assert np.all(np.diff(ds.column("t")) >= 0)

    def test_all_taxis_present(self, small_fleet):
        cfg, ds = small_fleet
        assert set(np.unique(ds.column("oid"))) == set(range(cfg.num_taxis))

    def test_sampling_cadence(self, small_fleet):
        cfg, ds = small_fleet
        # Per-taxi gaps are multiples of the sample interval.
        oid = ds.column("oid")
        t = ds.column("t")
        one = np.sort(t[oid == 0])
        gaps = np.diff(one)
        assert np.allclose(gaps % cfg.sample_interval, 0, atol=1e-6)

    def test_occupancy_is_binary(self, small_fleet):
        _, ds = small_fleet
        assert set(np.unique(ds.column("occupied"))) <= {0, 1}

    def test_trip_ids_monotone_per_taxi(self, small_fleet):
        _, ds = small_fleet
        oid, trip, t = ds.column("oid"), ds.column("trip_id"), ds.column("t")
        for o in np.unique(oid):
            mask = oid == o
            order = np.argsort(t[mask])
            assert np.all(np.diff(trip[mask][order]) >= 0)

    def test_odometer_monotone_per_taxi(self, small_fleet):
        _, ds = small_fleet
        oid, odo, t = ds.column("oid"), ds.column("odometer"), ds.column("t")
        for o in np.unique(oid):
            mask = oid == o
            order = np.argsort(t[mask])
            assert np.all(np.diff(odo[mask][order]) >= -1e-3)

    def test_spatial_skew_toward_hotspots(self, small_fleet):
        cfg, ds = small_fleet
        # The downtown hotspot should see far more than a uniform share of
        # points: its 3-sigma box covers ~1.4% of the area.
        h = cfg.hotspots[0]
        near = (
            (np.abs(ds.column("x") - h.x) < 3 * h.sigma)
            & (np.abs(ds.column("y") - h.y) < 3 * h.sigma)
        ).mean()
        assert near > 0.10

    def test_speeds_reasonable(self, small_fleet):
        _, ds = small_fleet
        speed = ds.column("speed")
        assert speed.min() >= -10 and speed.max() < 100


class TestHotspotWeights:
    @pytest.mark.parametrize("hotspots", [
        (),
        (Hotspot(121.4, 31.2, 0.1, -1.0), Hotspot(121.5, 31.1, 0.1, 2.0)),
        (Hotspot(121.4, 31.2, 0.1, 0.0),),
    ])
    def test_unusable_weights_rejected(self, hotspots):
        cfg = FleetConfig(num_taxis=2, duration=3600.0, hotspots=hotspots)
        with pytest.raises(ValueError):
            TaxiFleetGenerator(cfg).generate()

    def test_no_hotspots_needed_when_all_background(self):
        cfg = FleetConfig(num_taxis=2, duration=3600.0, hotspots=(),
                          background_probability=1.0)
        assert len(TaxiFleetGenerator(cfg).generate()) > 0


class TestSyntheticShanghai:
    def test_exact_count(self):
        ds = synthetic_shanghai_taxis(5000, seed=3, num_taxis=16)
        assert len(ds) == 5000

    def test_bbox_matches_paper(self):
        ds = synthetic_shanghai_taxis(3000, seed=3, num_taxis=16)
        assert SHANGHAI_BBOX.contains_box(ds.bounding_box())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            synthetic_shanghai_taxis(0)

    def test_deterministic(self):
        a = synthetic_shanghai_taxis(2000, seed=5, num_taxis=8)
        b = synthetic_shanghai_taxis(2000, seed=5, num_taxis=8)
        assert a == b
