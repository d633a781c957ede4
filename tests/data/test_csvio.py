"""Tests for CSV import/export."""

import io

import numpy as np
import pytest

from repro.data import dataset_from_csv, dataset_to_csv, synthetic_shanghai_taxis
from repro.data.csvio import render_csv_rows


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(500, seed=9, num_taxis=8)


class TestCsvRoundtrip:
    def test_roundtrip_counts(self, ds):
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        back = dataset_from_csv(io.StringIO(buf.getvalue()))
        assert len(back) == len(ds)

    def test_roundtrip_core_attributes_precise(self, ds):
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        back = dataset_from_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.column("oid"), ds.column("oid"))
        assert np.allclose(back.column("x"), ds.column("x"), atol=1e-6)
        assert np.allclose(back.column("y"), ds.column("y"), atol=1e-6)
        assert np.allclose(back.column("t"), ds.column("t"), atol=1.0)

    def test_header_roundtrip(self, ds):
        buf = io.StringIO()
        dataset_to_csv(ds.head(10), buf, header=True)
        back = dataset_from_csv(io.StringIO(buf.getvalue()), header=True)
        assert len(back) == 10

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            dataset_from_csv(io.StringIO("a,b,c\n"), header=True)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            dataset_from_csv(io.StringIO("1,2,3\n"))

    def test_file_path_roundtrip(self, ds, tmp_path):
        path = str(tmp_path / "sample.csv")
        dataset_to_csv(ds.head(50), path)
        back = dataset_from_csv(path)
        assert len(back) == 50

    def test_empty(self):
        back = dataset_from_csv(io.StringIO(""))
        assert len(back) == 0

    def test_render_one_line_per_record(self, ds):
        text = render_csv_rows(ds.head(7))
        assert text.count("\n") == 7
        assert all(len(line.split(",")) == 9 for line in text.splitlines())
