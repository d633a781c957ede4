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

import numpy as np

from repro.data.dataset import Dataset
from repro.data.record import FIELDS
from repro.encoding.rle import rle_decode_array, rle_encode_groups
from repro.encoding.varint import (
    decode_svarint_np,
    decode_uvarint,
    encode_uvarint,
    uvarint_stream,
    zigzag_encode_np,
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


def _int_delta_groups(values: np.ndarray, bounds: np.ndarray) -> list[bytes]:
    """Zigzag-varint deltas of each group ``values[bounds[g]:bounds[g+1]]``
    from one pass over all groups: the delta restarts at every group
    start, so a group's bytes are one slice of the batch emit."""
    v = values.astype(np.int64)
    deltas = np.empty_like(v)
    np.subtract(v[1:], v[:-1], out=deltas[1:])
    starts = bounds[:-1][bounds[:-1] < v.size]
    deltas[starts] = v[starts]
    encoded, offsets = uvarint_stream(zigzag_encode_np(deltas))
    return _cut(encoded.tobytes(), offsets[bounds])


def _cut(blob: bytes, edges: np.ndarray) -> list[bytes]:
    """``blob`` split at ``edges`` (``len(edges) - 1`` pieces)."""
    e = edges.tolist()
    return [blob[lo:hi] for lo, hi in zip(e[:-1], e[1:])]


def _every(ok: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per group: does ``ok`` hold for all of its values (True when empty)."""
    failed = np.zeros(ok.size + 1, dtype=np.int64)
    np.cumsum(~ok, out=failed[1:])
    return failed[bounds[1:]] == failed[bounds[:-1]]


def _decode_int_delta(
    data: memoryview, pos: int, count: int
) -> tuple[np.ndarray, int]:
    deltas, pos = decode_svarint_np(data, pos, count)
    return np.cumsum(deltas, dtype=np.int64), pos


_PLANE_RAW = 0
_PLANE_RLE = 1


def _xor_float_groups(values: np.ndarray, bounds: np.ndarray) -> list[bytes]:
    """XOR-float payload of each group, from one pass: the XOR with the
    previous value restarts at every group start, and every byte plane of
    every group is RLE-packed by one grouped call."""
    if values.dtype not in (np.float64, np.float32):
        raise ValueError(f"XOR float encoding expects float column, got {values.dtype}")
    width = values.dtype.itemsize
    bits = values.view(f"u{width}")
    n = bits.size
    xored = np.empty_like(bits)
    np.bitwise_xor(bits[1:], bits[:-1], out=xored[1:])
    starts = bounds[:-1][bounds[:-1] < n]
    xored[starts] = bits[starts]
    # Shuffle filter: transpose the (n, width) byte matrix so each plane
    # holds one byte of significance across all values; plane k of group
    # g is flat[k * n + lo:k * n + hi].
    flat = np.ascontiguousarray(
        xored.astype(f"<u{width}").view(np.uint8).reshape(n, width).T).reshape(-1)
    pieces = np.concatenate(
        [np.add.outer(np.arange(width) * n, bounds[:-1]).reshape(-1), [width * n]])
    packed = rle_encode_groups(flat, pieces)
    raw = _cut(flat.tobytes(), pieces)
    groups = len(bounds) - 1
    payloads = []
    for g in range(groups):
        out = bytearray()
        for k in range(width):
            p, r = packed[k * groups + g], raw[k * groups + g]
            if len(p) < len(r):
                out.append(_PLANE_RLE)
                out += p
            else:
                out.append(_PLANE_RAW)
                out += r
        payloads.append(bytes(out))
    return payloads


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


def _scaled_fixed_point(
    values: np.ndarray, exponent: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per value: the int64 fixed-point mantissa of ``values * 10^exponent``
    and whether it round-trips the value bit-for-bit."""
    scale = 10.0 ** exponent
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.round(values.astype(np.float64) * scale)
        # Stay below 2**52 so int64 -> float64 in the decoder is exact
        # (this also rejects non-finite values and overflowed products).
        exact = np.abs(scaled) < 2**52
        mantissas = scaled.astype(np.int64)
        back = (mantissas.astype(np.float64) / scale).astype(values.dtype)
    # Emulate the decoder exactly (int64 mantissas, not the float
    # intermediate) and compare raw bits: ``==`` would let -0.0 slip
    # through and come back as +0.0, breaking bit-identical replicas.
    bits = f"u{values.dtype.itemsize}"
    exact &= back.view(bits) == values.view(bits)
    return mantissas, exact


def _column_groups(name: str, values: np.ndarray,
                   bounds: np.ndarray) -> list[bytes]:
    """One column block (kind byte + payload) per group.  Each group
    takes the kind a lone encode of it would; every check and every kind
    runs once, over all the groups it applies to."""
    dtype = values.dtype
    if dtype == np.uint8:
        head = bytes([_KIND_RLE])
        return [head + b for b in rle_encode_groups(values, bounds)]
    if np.issubdtype(dtype, np.integer):
        head = bytes([_KIND_SVARINT_DELTA])
        return [head + b for b in _int_delta_groups(values, bounds)]
    blocks: list[bytes | None] = [None] * (len(bounds) - 1)
    # Float columns: prefer exact numeric deltas when every value is an
    # integral number representable in int64 (e.g. whole-second timestamps).
    if dtype == np.float64:
        with np.errstate(invalid="ignore"):
            as_int = values.astype(np.int64)
        # Bit-exact guard: the int64 round-trip drops the sign of -0.0,
        # so only take this path when the raw bits survive it.
        exact = ((values == np.floor(values)) & (np.abs(values) < 2**62)
                 & (as_int.astype(np.float64).view(np.uint64)
                    == values.view(np.uint64)))
        _fill(blocks, bounds, _every(exact, bounds) & (np.diff(bounds) > 0),
              bytes([_KIND_IVARINT_DELTA]), as_int, _int_delta_groups)
    exponent = _SCALE_HINTS.get(name)
    if exponent is not None:
        mantissas, exact = _scaled_fixed_point(values, exponent)
        _fill(blocks, bounds, _every(exact, bounds),
              bytes([_KIND_SCALED_DELTA, exponent]), mantissas,
              _int_delta_groups)
    _fill(blocks, bounds, np.ones(len(blocks), dtype=bool),
          bytes([_KIND_XOR_FLOAT]), values, _xor_float_groups)
    return blocks


def _fill(blocks: list, bounds: np.ndarray, take: np.ndarray, head: bytes,
          values: np.ndarray, encode) -> None:
    """Give each group in ``take`` that has no block yet the block
    ``head`` + ``encode`` of its ``values``, encoding those groups in one
    call."""
    take = take & np.array([b is None for b in blocks], dtype=bool)
    if not take.any():
        return
    sizes = np.diff(bounds)
    if not take.all():
        values = values[np.repeat(take, sizes)]
        sizes = sizes[take]
    sub_bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=sub_bounds[1:])
    for g, payload in zip(np.flatnonzero(take).tolist(),
                          encode(values, sub_bounds)):
        blocks[g] = head + payload


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


def _zone_maps(dataset: Dataset, bounds: np.ndarray) -> np.ndarray:
    """Per group, per column (min, max) as a ``(groups, n_cols, 2)``
    float64 array.

    NaN bounds mean "unknown — never prune": empty groups and all-NaN
    float columns get them, and the NaN-skipping ``fmin``/``fmax`` keep a
    mixed NaN/valid column's bounds tight over the valid values (rows
    with NaN coordinates never match a box mask, so pruning on the valid
    range is safe).  ``np.nanmin`` is an ``fmin`` reduction, so one
    ``reduceat`` over the non-empty groups gives each group's exact bounds.
    """
    zones = np.full((len(bounds) - 1, _N_COLS, 2), np.nan, dtype=np.float64)
    filled = np.flatnonzero(np.diff(bounds))
    if filled.size == 0:
        return zones
    starts = bounds[filled]
    for i, f in enumerate(FIELDS):
        col = dataset.column(f.name)
        floating = np.issubdtype(col.dtype, np.floating)
        lo, hi = (np.fmin, np.fmax) if floating else (np.minimum, np.maximum)
        zones[filled, i, 0] = lo.reduceat(col, starts)
        zones[filled, i, 1] = hi.reduceat(col, starts)
    return zones


def encode_column_groups(dataset: Dataset, bounds: np.ndarray) -> list[bytes]:
    """The v2 blob of each group ``dataset[bounds[g]:bounds[g + 1]]``.

    ``bounds`` starts at 0, ends at ``len(dataset)`` and never decreases.
    A group's blob depends only on its records — it equals
    :func:`encode_columns` of the group alone — but every column is laid
    out for all groups in one vectorized pass.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    columns = [_column_groups(f.name, dataset.column(f.name), bounds)
               for f in FIELDS]
    zones = _zone_maps(dataset, bounds)
    blobs = []
    for g, size in enumerate(np.diff(bounds).tolist()):
        blocks = [column[g] for column in columns]
        head = bytearray(_MAGIC)
        head.append(_VERSION_V2)
        encode_uvarint(size, head)
        head += zones[g].tobytes()
        for block in blocks:
            encode_uvarint(len(block), head)
        blobs.append(b"".join([head, *blocks]))
    return blobs


def encode_columns(dataset: Dataset) -> bytes:
    """Serialize a dataset in column-major order with per-column
    encodings, in the v2 container (zone map + column directory): the
    one-group case of :func:`encode_column_groups`.  The v1 layout is
    read-only: :class:`ColumnarBlob` still decodes stores written before
    the directory existed.
    """
    return encode_column_groups(dataset, np.array([0, len(dataset)]))[0]


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
