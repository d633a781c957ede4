"""Tests for the v2 columnar container: zone maps, the column directory,
lazy per-column decoding, and compatibility with v1 blobs.

The committed golden fixture (`data/columnar_v1_golden.bin` + expected
columns) pins that v1 blobs written by the seed code keep decoding
bit-exactly; the v1 *writer* is gone, so arbitrary-data v1 blobs are
re-spelled from v2 ones (`v1_from_v2`).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset, synthetic_shanghai_taxis
from repro.data.record import FIELDS
from repro.encoding import ColumnarBlob, decode_columns, encode_columns
from repro.encoding.varint import decode_uvarint

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _golden_blob() -> bytes:
    with open(os.path.join(_DATA_DIR, "columnar_v1_golden.bin"), "rb") as f:
        return f.read()


def _golden_dataset() -> Dataset:
    z = np.load(os.path.join(_DATA_DIR, "columnar_v1_golden_expected.npz"))
    return Dataset({name: z[name] for name in z.files})


def columns_bit_equal(a: Dataset, b: Dataset) -> bool:
    return all(
        a.column(f.name).tobytes() == b.column(f.name).tobytes()
        for f in FIELDS
    )


def v1_from_v2(v2: bytes) -> bytes:
    """The v1 spelling of a v2 blob: same record count and column
    blocks (their bytes are identical across versions), no zone map or
    directory."""
    pos = body = decode_uvarint(v2, 5)[1]
    pos += len(FIELDS) * 16
    for _ in FIELDS:
        pos = decode_uvarint(v2, pos)[1]
    return v2[:4] + b"\x01" + v2[5:body] + v2[pos:]


def sample_dataset(n=600, seed=20140707) -> Dataset:
    return synthetic_shanghai_taxis(n, seed=seed, num_taxis=9).sorted_by_time()


class TestV1Golden:
    def test_golden_blob_decodes_bit_exact(self):
        assert columns_bit_equal(decode_columns(_golden_blob()),
                                 _golden_dataset())

    def test_golden_reader_is_eager(self):
        blob = ColumnarBlob(_golden_blob())
        assert blob.version == 1
        assert not blob.lazy
        assert blob.zone("x") is None


class TestV2Container:
    def test_roundtrip_matches_v1(self):
        ds = sample_dataset()
        v2 = encode_columns(ds)
        v1 = v1_from_v2(v2)
        assert v1_from_v2(encode_columns(_golden_dataset())) == _golden_blob()
        assert v2[4] == 2 and v1[4] == 1
        assert columns_bit_equal(decode_columns(v2), ds)
        assert columns_bit_equal(decode_columns(v1), ds)

    def test_lazy_column_access_matches_full_decode(self):
        ds = sample_dataset()
        blob = ColumnarBlob(encode_columns(ds))
        assert blob.lazy and blob.version == 2
        assert blob.n_records == len(ds)
        for f in FIELDS:
            got = blob.decode_column(f.name)
            assert got.tobytes() == ds.column(f.name).tobytes()

    def test_zone_bounds_are_tight(self):
        ds = sample_dataset()
        blob = ColumnarBlob(encode_columns(ds))
        for name in ("x", "y", "t", "speed"):
            lo, hi = blob.zone(name)
            col = ds.column(name)
            assert lo == col.min() and hi == col.max()

    def test_empty_dataset_never_prunes(self):
        blob = ColumnarBlob(encode_columns(Dataset.empty()))
        assert blob.n_records == 0
        assert blob.zone("x") is None
        assert len(blob.dataset()) == 0

    def test_memoryview_input(self):
        ds = sample_dataset(100)
        blob = encode_columns(ds)
        assert columns_bit_equal(decode_columns(memoryview(blob)), ds)


class TestV2Rejection:
    def blob(self, n=50):
        return bytearray(encode_columns(sample_dataset(n)))

    def test_truncated_zone_map(self):
        b = self.blob()
        with pytest.raises(ValueError, match="truncated zone map"):
            ColumnarBlob(bytes(b[:20]))

    def test_garbled_zone_map_min_above_max(self):
        b = self.blob()
        # Swap the x column's (min, max) pair in place.
        from repro.encoding.varint import decode_uvarint
        pos = decode_uvarint(b, 5)[1]
        xi = [f.name for f in FIELDS].index("x")
        start = pos + xi * 16
        lo, hi = b[start:start + 8], b[start + 8:start + 16]
        b[start:start + 8], b[start + 8:start + 16] = hi, lo
        with pytest.raises(ValueError, match="min exceeds max"):
            ColumnarBlob(bytes(b))

    def test_truncated_column_block(self):
        b = self.blob()
        with pytest.raises(ValueError, match="truncated column block"):
            ColumnarBlob(bytes(b[:-5]))

    def test_trailing_garbage(self):
        b = self.blob()
        with pytest.raises(ValueError, match="trailing bytes"):
            ColumnarBlob(bytes(b) + b"\x00\x00")

    def test_directory_length_mismatch(self):
        b = self.blob(50)
        # Corrupt one payload byte inside the first column block; either
        # the block decoder rejects it outright or the directory
        # cross-check catches the consumed-length drift.
        first_block = ColumnarBlob(bytes(b))._offsets[0]
        b[first_block + 2] ^= 0x80
        with pytest.raises(ValueError):
            ColumnarBlob(bytes(b)).dataset()

    def test_unsupported_version(self):
        b = self.blob()
        b[4] = 9
        with pytest.raises(ValueError, match="version"):
            ColumnarBlob(bytes(b))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corrupted_blobs_never_crash(self, data):
        """Random byte flips anywhere in a v2 blob either decode cleanly
        or raise ValueError — never segfault, hang, or over-allocate."""
        b = self.blob(40)
        n_flips = data.draw(st.integers(1, 6))
        for _ in range(n_flips):
            i = data.draw(st.integers(0, len(b) - 1))
            b[i] ^= data.draw(st.integers(1, 255))
        try:
            blob = ColumnarBlob(bytes(b))
            blob.dataset()
        except (ValueError, KeyError, OverflowError):
            pass
