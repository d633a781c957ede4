"""Fuzz tests: decoders must reject garbage cleanly.

A storage system reads bytes that may be truncated, bit-flipped or
entirely foreign.  Every decoder must either return a valid result or
raise a controlled error (``ValueError`` family) — never crash the
interpreter, hang, or silently return corrupt data that then fails
deeper in the stack with an unrelated exception.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import synthetic_shanghai_taxis
from repro.encoding import (
    all_encoding_schemes,
    decode_columns,
    decode_rows,
    encode_columns,
    encode_rows,
    snappy_decompress,
)

#: The errors a decoder may raise on malformed input.  zlib/lzma raise
#: their own error types; numpy size mismatches surface as ValueError.
CONTROLLED = (ValueError, KeyError, EOFError, zlib.error)

try:
    import lzma
    CONTROLLED = CONTROLLED + (lzma.LZMAError,)
except ImportError:  # pragma: no cover
    pass


@pytest.fixture(scope="module")
def sample_blobs():
    ds = synthetic_shanghai_taxis(500, seed=167, num_taxis=8).sorted_by_time()
    return {
        "rows": encode_rows(ds),
        "cols": encode_columns(ds),
    }


class TestRandomBytes:
    @settings(max_examples=80, deadline=None)
    @given(data=st.binary(max_size=300))
    def test_snappy_decompress_never_hangs(self, data):
        try:
            snappy_decompress(data)
        except CONTROLLED:
            pass

    @settings(max_examples=80, deadline=None)
    @given(data=st.binary(max_size=300))
    def test_row_decoder(self, data):
        try:
            decode_rows(data)
        except CONTROLLED:
            pass

    @settings(max_examples=80, deadline=None)
    @given(data=st.binary(max_size=300))
    def test_columnar_decoder(self, data):
        try:
            decode_columns(data)
        except CONTROLLED:
            pass

    @settings(max_examples=20, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_every_scheme_decoder(self, data):
        for scheme in all_encoding_schemes():
            try:
                scheme.decode(data)
            except CONTROLLED:
                pass


class TestBitFlips:
    """Valid blobs with a single flipped byte: controlled failure or a
    still-consistent dataset (some flips only touch payload values)."""

    @settings(max_examples=60, deadline=None)
    @given(pos=st.integers(0, 10_000), flip=st.integers(1, 255))
    def test_row_blob_bitflip(self, sample_blobs, pos, flip):
        blob = bytearray(sample_blobs["rows"])
        blob[pos % len(blob)] ^= flip
        try:
            ds = decode_rows(bytes(blob))
            assert len(ds) >= 0
        except CONTROLLED:
            pass

    @settings(max_examples=60, deadline=None)
    @given(pos=st.integers(0, 10_000), flip=st.integers(1, 255))
    def test_columnar_blob_bitflip(self, sample_blobs, pos, flip):
        blob = bytearray(sample_blobs["cols"])
        blob[pos % len(blob)] ^= flip
        try:
            ds = decode_columns(bytes(blob))
            assert len(ds) >= 0
        except CONTROLLED:
            pass


class TestTruncations:
    @settings(max_examples=40, deadline=None)
    @given(keep=st.floats(0.0, 0.999))
    def test_truncated_columnar(self, sample_blobs, keep):
        blob = sample_blobs["cols"]
        cut = blob[: int(len(blob) * keep)]
        try:
            decode_columns(cut)
        except CONTROLLED:
            pass

    @settings(max_examples=40, deadline=None)
    @given(keep=st.floats(0.0, 0.999))
    def test_truncated_rows(self, sample_blobs, keep):
        blob = sample_blobs["rows"]
        cut = blob[: int(len(blob) * keep)]
        try:
            decode_rows(cut)
        except CONTROLLED:
            pass
