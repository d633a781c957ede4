"""Columnar codec with delta / zigzag-varint / RLE column encodings.

The paper's third encoding option (Section II-C): "organize the data in
column fashion and then apply column-wise encoding schemes (e.g., delta
encoding and run-length encoding)".  Per column we pick the encoding that
exploits its structure inside a time-sorted partition:

- ``t``        — numeric delta + varint when all values are integral
                 (GPS loggers emit whole seconds); raw bit-pattern delta
                 otherwise.  Sorted timestamps make deltas tiny.
- ``oid``/``trip_id`` — zigzag delta varint (quasi-constant runs become
                 streams of zero bytes).
- ``occupied`` — byte RLE (long occupancy runs).
- ``x``/``y``  — fixed-point 1e-6-degree quantization is *not* used to stay
                 lossless; instead the float64 bit patterns are XOR-ed with
                 the previous value (a simplified Gorilla) and stored
                 byte-plane transposed (shuffle filter): nearby coordinates
                 share exponent/high-mantissa bits, so the high planes are
                 almost all zeros and each plane is kept raw or RLE-packed,
                 whichever is smaller.
- ``speed``/``heading``/``odometer`` — same XOR+shuffle scheme on float32.

Everything round-trips bit-exactly.

Two container versions share the column-block wire format:

- **v1** (the original, read-only now): magic, version byte, varint
  record count, then the nine column blocks back to back.  Decoding is
  necessarily sequential — block boundaries are only discovered by
  decoding.
- **v2** (what :func:`encode_columns` writes): between the record count and the blocks sit a
  **zone map** (per-column min/max as little-endian float64, NaN when
  empty/unknown) and a **column directory** (nine varint block byte
  lengths).  The zone map lets the query engine prune partitions the
  router's coarse box test cannot; the directory makes every column
  independently addressable so a reader can decode ``x``/``y``/``t``
  first and skip the rest when no row survives the filter.

:class:`ColumnarBlob` is the lazy reader over both versions; the eager
:func:`decode_columns` is a thin wrapper over it.  Decoding runs on the
vectorized varint/RLE kernels and accepts any buffer (``bytes``,
``memoryview`` from :meth:`UnitStore.get_view`) without copying it.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from repro.data.dataset import Dataset
from repro.data.record import FIELDS
from repro.encoding.rle import rle_decode_array, rle_encode_bytes
from repro.encoding.varint import (
    decode_svarint_np,
    decode_uvarint,
    encode_svarint_array,
    encode_uvarint,
)

_MAGIC = b"BCOL"
_VERSION_V1 = 1
_VERSION_V2 = 2

# Column block kinds.
_KIND_SVARINT_DELTA = 0  # zigzag varint of numeric deltas (int columns)
_KIND_RLE = 1            # byte run-length (uint8 columns)
_KIND_XOR_FLOAT = 2      # XOR-ed IEEE bit patterns, byte-plane shuffled
_KIND_IVARINT_DELTA = 3  # zigzag varint of deltas of integral floats
_KIND_SCALED_DELTA = 4   # zigzag varint of deltas of 10^e fixed-point floats

#: Telemetry label per block kind (see ``DecodeTelemetry`` duck type:
#: any object with ``column_decoded(kind: str, seconds: float)``).
_KIND_NAMES = {
    _KIND_SVARINT_DELTA: "svarint_delta",
    _KIND_RLE: "rle",
    _KIND_XOR_FLOAT: "xor_float",
    _KIND_IVARINT_DELTA: "ivarint_delta",
    _KIND_SCALED_DELTA: "scaled_delta",
}

#: Decimal quantization hints per column: real GPS loggers emit fixed
#: precision (micro-degrees, tenths of km/h, ...).  The encoder verifies the
#: hint reproduces the column bit-for-bit and falls back to XOR otherwise.
_SCALE_HINTS: dict[str, int] = {
    "x": 6,
    "y": 6,
    "speed": 1,
    "heading": 1,
    "odometer": 2,
}

_N_COLS = len(FIELDS)
_ZONE_BYTES = _N_COLS * 2 * 8  # (min, max) float64 per column


def _encode_int_delta(values: np.ndarray, out: bytearray) -> None:
    v = values.astype(np.int64)
    deltas = np.empty_like(v)
    if v.size:
        deltas[0] = v[0]
        np.subtract(v[1:], v[:-1], out=deltas[1:])
    encode_svarint_array(deltas, out)


def _decode_int_delta(
    data: memoryview, pos: int, count: int
) -> tuple[np.ndarray, int]:
    deltas, pos = decode_svarint_np(data, pos, count)
    return np.cumsum(deltas, dtype=np.int64), pos


_PLANE_RAW = 0
_PLANE_RLE = 1


def _encode_xor_float(values: np.ndarray, out: bytearray) -> None:
    if values.dtype == np.float64:
        bits = values.view(np.uint64)
        width = 8
    elif values.dtype == np.float32:
        bits = values.view(np.uint32)
        width = 4
    else:
        raise ValueError(f"XOR float encoding expects float column, got {values.dtype}")
    xored = np.empty_like(bits)
    if bits.size:
        xored[0] = bits[0]
        np.bitwise_xor(bits[1:], bits[:-1], out=xored[1:])
    # Shuffle filter: transpose the (n, width) byte matrix so each output
    # plane holds one byte of significance across all values.
    planes = (
        xored.astype(f"<u{width}").view(np.uint8).reshape(-1, width).T
        if bits.size
        else np.empty((width, 0), dtype=np.uint8)
    )
    for plane in planes:
        raw = plane.tobytes()
        packed = rle_encode_bytes(raw)
        if len(packed) < len(raw):
            out.append(_PLANE_RLE)
            out += packed
        else:
            out.append(_PLANE_RAW)
            out += raw


def _decode_xor_float(
    data, pos: int, count: int, dtype: np.dtype
) -> tuple[np.ndarray, int]:
    width = 8 if dtype == np.float64 else 4
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"XOR float decoding expects float dtype, got {dtype}")
    planes = np.empty((width, count), dtype=np.uint8)
    n = len(data)
    for k in range(width):
        if pos >= n:
            raise ValueError("truncated float column block")
        mode = int(data[pos])
        pos += 1
        if mode == _PLANE_RLE:
            raw, pos = rle_decode_array(data, pos, expect=count)
        elif mode == _PLANE_RAW:
            if pos + count > n:
                raise ValueError("truncated float column block")
            raw = np.frombuffer(data[pos:pos + count], dtype=np.uint8)
            pos += count
        else:
            raise ValueError(f"unknown float plane mode {mode}")
        if raw.shape[0] != count:
            raise ValueError(
                f"float plane has {raw.shape[0]} bytes, expected {count}"
            )
        planes[k] = raw
    bits = np.ascontiguousarray(planes.T).view(f"<u{width}").reshape(count)
    if count:
        bits = np.bitwise_xor.accumulate(bits)
    if dtype == np.float64:
        return bits.astype(np.uint64).view(np.float64), pos
    return bits.astype(np.uint32).view(np.float32), pos


def _scaled_fixed_point(values: np.ndarray, exponent: int) -> np.ndarray | None:
    """Return int64 fixed-point mantissas when ``values * 10^exponent``
    round-trips the column bit-for-bit, else None."""
    if values.size == 0:
        return np.empty(0, dtype=np.int64)
    scale = 10.0 ** exponent
    as64 = values.astype(np.float64)
    if not np.all(np.isfinite(as64)):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.round(as64 * scale)
    # Stay below 2**52 so int64 -> float64 in the decoder is exact (this
    # also rejects overflowed non-finite products).
    if not np.all(np.abs(scaled) < 2**52):
        return None
    mantissas = scaled.astype(np.int64)
    # Emulate the decoder exactly (int64 mantissas, not the float
    # intermediate) and compare raw bytes: ``==`` would let -0.0 slip
    # through and come back as +0.0, breaking bit-identical replicas.
    back = (mantissas.astype(np.float64) / scale).astype(values.dtype)
    if back.tobytes() != values.tobytes():
        return None
    return mantissas


def _encode_column(name: str, values: np.ndarray, out: bytearray) -> None:
    """Append one column block: kind byte + payload."""
    dtype = values.dtype
    if dtype == np.uint8:
        out.append(_KIND_RLE)
        out += rle_encode_bytes(values)
        return
    if np.issubdtype(dtype, np.integer):
        out.append(_KIND_SVARINT_DELTA)
        _encode_int_delta(values, out)
        return
    # Float columns: prefer exact numeric deltas when every value is an
    # integral number representable in int64 (e.g. whole-second timestamps).
    if dtype == np.float64 and values.size and np.all(values == np.floor(values)) \
            and np.all(np.abs(values) < 2**62):
        as_int = values.astype(np.int64)
        # Bit-exact guard: the int64 round-trip drops the sign of -0.0,
        # so only take this path when the raw bytes survive it.
        if as_int.astype(np.float64).tobytes() == values.tobytes():
            out.append(_KIND_IVARINT_DELTA)
            _encode_int_delta(as_int, out)
            return
    exponent = _SCALE_HINTS.get(name)
    if exponent is not None:
        mantissas = _scaled_fixed_point(values, exponent)
        if mantissas is not None:
            out.append(_KIND_SCALED_DELTA)
            out.append(exponent)
            _encode_int_delta(mantissas, out)
            return
    out.append(_KIND_XOR_FLOAT)
    _encode_xor_float(values, out)


def _decode_column(
    name: str, dtype: np.dtype, data, pos: int, count: int
) -> tuple[np.ndarray, int, int]:
    """Decode one column block; returns ``(values, next_pos, kind)``."""
    if pos >= len(data):
        raise ValueError("truncated column block")
    kind = int(data[pos])
    pos += 1
    if kind == _KIND_RLE:
        raw, pos = rle_decode_array(data, pos, expect=count)
        if raw.shape[0] != count:
            raise ValueError(
                f"RLE column {name!r} has {raw.shape[0]} values, expected {count}"
            )
        return raw.astype(dtype), pos, kind
    if kind == _KIND_SVARINT_DELTA:
        values, pos = _decode_int_delta(data, pos, count)
        return values.astype(dtype), pos, kind
    if kind == _KIND_IVARINT_DELTA:
        values, pos = _decode_int_delta(data, pos, count)
        return values.astype(np.float64).astype(dtype), pos, kind
    if kind == _KIND_SCALED_DELTA:
        if pos >= len(data):
            raise ValueError("truncated scaled column block")
        exponent = int(data[pos])
        pos += 1
        mantissas, pos = _decode_int_delta(data, pos, count)
        return (mantissas.astype(np.float64) / 10.0 ** exponent).astype(dtype), pos, kind
    if kind == _KIND_XOR_FLOAT:
        values, pos = _decode_xor_float(data, pos, count, dtype)
        return values.astype(dtype), pos, kind
    raise ValueError(f"unknown column block kind {kind} for column {name!r}")


def _zone_map(dataset: Dataset) -> np.ndarray:
    """Per-column (min, max) as a ``(n_cols, 2)`` float64 array.

    NaN bounds mean "unknown — never prune": empty partitions and all-NaN
    float columns get them, and ``nanmin``/``nanmax`` keep a mixed
    NaN/valid column's bounds tight over the valid values (rows with NaN
    coordinates never match a box mask, so pruning on the valid range is
    safe).
    """
    zones = np.full((_N_COLS, 2), np.nan, dtype=np.float64)
    if len(dataset) == 0:
        return zones
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
        for i, f in enumerate(FIELDS):
            col = dataset.column(f.name)
            if np.issubdtype(col.dtype, np.floating):
                zones[i, 0] = np.nanmin(col)
                zones[i, 1] = np.nanmax(col)
            else:
                zones[i, 0] = col.min()
                zones[i, 1] = col.max()
    return zones


def encode_columns(dataset: Dataset) -> bytes:
    """Serialize a dataset in column-major order with per-column
    encodings, in the v2 container (zone map + column directory).
    The v1 layout is read-only: :class:`ColumnarBlob` still decodes
    stores written before the directory existed.
    """
    out = bytearray()
    out += _MAGIC
    out.append(_VERSION_V2)
    encode_uvarint(len(dataset), out)
    body = bytearray()
    lengths = []
    for f in FIELDS:
        start = len(body)
        _encode_column(f.name, dataset.column(f.name), body)
        lengths.append(len(body) - start)
    out += _zone_map(dataset).tobytes()
    for length in lengths:
        encode_uvarint(length, out)
    out += body
    return bytes(out)


class ColumnarBlob:
    """Lazy reader over a v1 or v2 columnar blob.

    Construction only parses the header (plus, for v2, the zone map and
    column directory — a few hundred bytes); column payloads decode on
    demand.  For v2, :meth:`decode_column` seeks straight to the block
    via the directory; for v1 the layout is sequential, so the first
    column access decodes the whole blob once and caches it
    (``lazy`` is False).

    ``telemetry``, when given, must expose
    ``column_decoded(kind: str, seconds: float)`` and is called once per
    column block actually decoded.
    """

    __slots__ = (
        "_data", "_version", "_n", "_zones", "_offsets", "_lengths",
        "_columns", "_dataset", "_telemetry",
    )

    def __init__(self, data, telemetry=None):
        if len(data) < 5 or data[:4] != _MAGIC:
            raise ValueError("bad columnar blob magic")
        version = int(data[4])
        if version not in (_VERSION_V1, _VERSION_V2):
            raise ValueError(f"unsupported columnar blob version {version}")
        self._data = data
        self._version = version
        self._telemetry = telemetry
        self._columns: dict[str, np.ndarray] = {}
        self._dataset: Dataset | None = None
        self._n, pos = decode_uvarint(data, 5)
        if version == _VERSION_V1:
            self._zones = None
            self._offsets = None
            self._lengths = None
            return
        if pos + _ZONE_BYTES > len(data):
            raise ValueError("truncated zone map")
        zones = np.frombuffer(
            data[pos:pos + _ZONE_BYTES], dtype="<f8"
        ).reshape(_N_COLS, 2)
        # Garbled detection: a real zone map never has min > max (NaN
        # bounds compare False, so "unknown" passes).
        if bool(np.any(zones[:, 0] > zones[:, 1])):
            raise ValueError("invalid zone map: min exceeds max")
        self._zones = zones
        pos += _ZONE_BYTES
        lengths = []
        for _ in range(_N_COLS):
            length, pos = decode_uvarint(data, pos)
            lengths.append(length)
        offsets = [pos]
        for length in lengths:
            offsets.append(offsets[-1] + length)
        if offsets[-1] > len(data):
            raise ValueError("truncated column block")
        if offsets[-1] < len(data):
            raise ValueError(
                f"{len(data) - offsets[-1]} trailing bytes in columnar blob"
            )
        self._offsets = offsets
        self._lengths = lengths

    @property
    def version(self) -> int:
        return self._version

    @property
    def n_records(self) -> int:
        return self._n

    @property
    def lazy(self) -> bool:
        """True when columns are independently addressable (v2)."""
        return self._version == _VERSION_V2

    def zone(self, name: str) -> tuple[float, float] | None:
        """(min, max) bounds for a column, or None when unknown (v1, or
        NaN bounds in v2)."""
        if self._zones is None:
            return None
        i = _FIELD_INDEX[name]
        lo, hi = float(self._zones[i, 0]), float(self._zones[i, 1])
        if np.isnan(lo) or np.isnan(hi):
            return None
        return lo, hi

    def _decode_block(self, f, pos: int):
        t0 = time.perf_counter() if self._telemetry is not None else 0.0
        values, end, kind = _decode_column(f.name, f.dtype, self._data, pos, self._n)
        if self._telemetry is not None:
            self._telemetry.column_decoded(
                _KIND_NAMES.get(kind, str(kind)), time.perf_counter() - t0
            )
        return values, end

    def decode_column(self, name: str) -> np.ndarray:
        """Decode (and cache) one column by name."""
        col = self._columns.get(name)
        if col is not None:
            return col
        if self._version == _VERSION_V1:
            return self.dataset().column(name)
        i = _FIELD_INDEX[name]
        f = FIELDS[i]
        start = self._offsets[i]
        values, end = self._decode_block(f, start)
        if end != self._offsets[i + 1]:
            raise ValueError(
                f"column {name!r} block consumed {end - start} bytes, "
                f"directory says {self._lengths[i]}"
            )
        self._columns[name] = values
        return values

    def dataset(self) -> Dataset:
        """Decode (and cache) the full dataset."""
        if self._dataset is not None:
            return self._dataset
        if self._version == _VERSION_V1:
            pos = decode_uvarint(self._data, 5)[1]
            columns: dict[str, np.ndarray] = {}
            for f in FIELDS:
                columns[f.name], pos = self._decode_block(f, pos)
            if pos != len(self._data):
                raise ValueError(
                    f"{len(self._data) - pos} trailing bytes in columnar blob"
                )
            self._dataset = Dataset(columns)
        else:
            self._dataset = Dataset(
                {f.name: self.decode_column(f.name) for f in FIELDS}
            )
        return self._dataset


_FIELD_INDEX = {f.name: i for i, f in enumerate(FIELDS)}


def decode_columns(data) -> Dataset:
    """Inverse of :func:`encode_columns` (eager; reads v1 and v2)."""
    return ColumnarBlob(data).dataset()
