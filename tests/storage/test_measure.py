"""Tests for calibration from stored units: Eq. 6 fitted on wall-clock
timings of units a replica set has written."""

import numpy as np
import pytest

from repro.costmodel.calibrate import measure_cost_params
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import GridPartitioner
from repro.storage import InMemoryStore, build_replica


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(6000, seed=41, num_taxis=16)


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

    def test_lzma_scans_slower_than_plain(self, ds):
        """Higher compression ratio -> slower scan (Section II-C), in
        genuine wall-clock terms: one dataset, one layout, two
        encodings."""
        replicas = [
            build_replica(ds, GridPartitioner(2, 2),
                          encoding_scheme_by_name(name), InMemoryStore(),
                          name=name)
            for name in ("ROW-PLAIN", "COL-LZMA2")]
        rates = {name: scan_rate
                 for name, scan_rate, _ in measure_cost_params(replicas)}
        assert rates["COL-LZMA2"] < rates["ROW-PLAIN"]
