"""Tests for the local wall-clock scan measurer and its calibration fit."""

import numpy as np
import pytest

from repro.costmodel import calibrate_encoding
from repro.data import Dataset, synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import GridPartitioner
from repro.storage import InMemoryStore, LocalScanMeasurer, build_replica
from repro.storage.measure import measure_cost_params


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(6000, seed=41, num_taxis=16)


class TestLocalScanMeasurer:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            LocalScanMeasurer(Dataset.empty())

    def test_invalid_repeats(self, ds):
        with pytest.raises(ValueError):
            LocalScanMeasurer(ds, repeats=0)

    def test_partition_too_large(self, ds):
        m = LocalScanMeasurer(ds)
        with pytest.raises(ValueError, match="exceeds"):
            m("ROW-PLAIN", len(ds) + 1, 2)

    def test_returns_positive_seconds(self, ds):
        m = LocalScanMeasurer(ds)
        assert m("ROW-PLAIN", 500, 3) > 0

    def test_bigger_partitions_take_longer(self, ds):
        m = LocalScanMeasurer(ds, repeats=3)
        small = m("COL-GZIP", 200, 3)
        large = m("COL-GZIP", 4000, 3)
        assert large > small

    def test_calibration_end_to_end(self, ds):
        """The full paper procedure on the real engine: measure 4 sizes,
        fit Eq. 6, and check the fit is sane."""
        m = LocalScanMeasurer(ds, repeats=2)
        result = calibrate_encoding(
            "ROW-PLAIN", m, sizes=(300, 1000, 2500, 5000), partitions_per_set=3,
        )
        assert result.params.scan_rate > 0
        assert result.params.extra_time >= 0
        assert result.r_squared > 0.8

    def test_lzma_scans_slower_than_plain(self, ds):
        """Higher compression ratio -> slower scan (Section II-C), in
        genuine wall-clock terms."""
        m = LocalScanMeasurer(ds, repeats=2)
        plain = m("ROW-PLAIN", 4000, 3)
        lzma = m("ROW-LZMA2", 4000, 3)
        assert lzma > plain


class TestMeasureCostParams:
    def test_one_row_per_encoding_sorted(self, ds):
        replicas = [
            build_replica(ds, GridPartitioner(4, 4),
                          encoding_scheme_by_name(name), InMemoryStore(),
                          name=name)
            for name in ("ROW-GZIP", "COL-GZIP")]
        rows = measure_cost_params(replicas)
        assert [name for name, _, _ in rows] == ["COL-GZIP", "ROW-GZIP"]
        for _, scan_rate, extra_time in rows:
            assert scan_rate > 0 and extra_time >= 0

    def test_units_too_small_to_fit_charge_the_records(self, ds):
        """One 10-record unit: the tiny unit is the same size, so no
        slope can be fitted and every second goes to the records."""
        replica = build_replica(ds.take(np.arange(10)), GridPartitioner(1, 1),
                                encoding_scheme_by_name("ROW-PLAIN"),
                                InMemoryStore())
        [(name, scan_rate, extra_time)] = measure_cost_params([replica])
        assert name == "ROW-PLAIN"
        assert scan_rate > 0 and extra_time == 0.0
