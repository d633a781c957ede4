"""LEB128 variable-length integers and zigzag transforms.

These are the byte-level primitives of the columnar encoder: small
magnitudes (deltas of sorted or slowly-varying columns) become single
bytes.  All functions are pure and operate on Python ints / numpy arrays;
the encoders keep hot paths allocation-light by appending into a shared
``bytearray``.

The array codecs come in two flavours sharing one wire format:

- **vectorized** (:func:`decode_uvarint_np`, :func:`encode_uvarint_array`
  and friends) — numpy batch kernels: decoding scans the continuation
  bits of the whole stream at once (``byte < 0x80`` marks value ends),
  groups payload bytes by value with ``repeat``/``reduceat``, and shifts
  them into place in one pass; encoding computes per-value byte widths by
  threshold comparison and emits all bytes with one gather.  These are
  the hot paths of :mod:`repro.encoding.columnar`.
- **scalar** (``*_scalar``) — the original per-value Python loops, kept
  as the executable specification: the equivalence fuzz suite
  (``tests/encoding/test_vector_scalar_equivalence.py``) pins the
  vectorized kernels to them byte-for-byte, and the scan/decode
  benchmark measures the speedup against them.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: Thresholds above which a uvarint needs one more byte: value >= 2**(7k)
#: takes at least k+1 bytes.  Used by the vectorized width computation.
_WIDTH_BOUNDS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)

_U64_ONE = np.uint64(1)
_U64_SEVEN = np.uint64(7)
_U64_ALL = np.uint64(_MASK64)


def _as_u8(data: bytes | bytearray | memoryview | np.ndarray) -> np.ndarray:
    """A zero-copy ``uint8`` view of any byte buffer."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise ValueError(f"byte buffer must be uint8, got {data.dtype}")
        return data
    return np.frombuffer(data, dtype=np.uint8)


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append one unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    if value > _MASK64:
        raise ValueError(f"uvarint value {value} exceeds 64 bits")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def decode_uvarint(data: bytes | memoryview | np.ndarray, pos: int) -> tuple[int, int]:
    """Decode one unsigned varint at ``pos``; return ``(value, next_pos)``.

    Rejects streams longer than the 10 bytes a 64-bit value needs and
    values whose magnitude overflows 64 bits (a 10-byte varint can carry
    up to 70 payload bits; corrupted input must not decode silently).
    """
    result = 0
    shift = 0
    n = len(data)
    while True:
        if pos >= n:
            raise ValueError("truncated varint")
        byte = int(data[pos])
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result > _MASK64:
                raise ValueError("varint overflows 64 bits")
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def zigzag_encode(value: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,... -> 0,1,2,3,..."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def encode_svarint(value: int, out: bytearray) -> None:
    """Append one zigzag-encoded signed varint to ``out``."""
    encode_uvarint(_zigzag64(value), out)


def decode_svarint(data: bytes | memoryview, pos: int) -> tuple[int, int]:
    """Decode one signed (zigzag) varint; return ``(value, next_pos)``."""
    raw, pos = decode_uvarint(data, pos)
    return zigzag_decode(raw), pos


def _zigzag64(value: int) -> int:
    """Zigzag for arbitrary Python ints (the columns fit in 64 bits)."""
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def zigzag_encode_np(values: np.ndarray) -> np.ndarray:
    """Vectorized zigzag: int64 array -> uint64 array."""
    v = np.ascontiguousarray(values, dtype=np.int64)
    u = v.view(np.uint64)
    return (u << _U64_ONE) ^ np.where(v < 0, _U64_ALL, np.uint64(0))


def zigzag_decode_np(values: np.ndarray) -> np.ndarray:
    """Vectorized zigzag inverse: uint64 array -> int64 array."""
    u = np.asarray(values, dtype=np.uint64)
    return (u >> _U64_ONE).astype(np.int64) ^ -((u & _U64_ONE).astype(np.int64))


# -- vectorized decode --------------------------------------------------------

def _decode_uvarint_np_reject(
    data: bytes | memoryview | np.ndarray, pos: int, count: int
) -> tuple[np.ndarray, int]:
    """Rejection path of :func:`decode_uvarint_np`: re-decode with the
    scalar reference so a malformed stream raises the same error, for the
    same byte, in the same stream order as the specification decoder.
    (A stream can be simultaneously truncated, over-long and overflowing;
    the scalar loop reports whichever it meets first.)"""
    values, end = decode_uvarint_array_scalar(data, pos, count)
    return np.array(values, dtype=np.uint64), end


def decode_uvarint_np(
    data: bytes | memoryview | np.ndarray, pos: int, count: int
) -> tuple[np.ndarray, int]:
    """Decode ``count`` unsigned varints starting at ``pos``, vectorized.

    Returns ``(values, next_pos)`` with ``values`` a ``uint64`` array.
    The whole stream is processed at once: value boundaries are the bytes
    with the continuation bit clear, payload bytes are grouped by value
    and shifted into place, and one segmented sum per value assembles the
    results.  Malformed input (truncation, >10-byte varints, 64-bit
    overflow) is detected vectorized but re-decoded through the scalar
    reference, which raises the canonical error in stream order.
    """
    if count == 0:
        return np.empty(0, dtype=np.uint64), pos
    buf = _as_u8(data)
    region = buf[pos:]
    ends = np.flatnonzero(region < 0x80)
    if ends.size < count:
        return _decode_uvarint_np_reject(data, pos, count)
    ends = ends[:count]
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > 10:
        return _decode_uvarint_np_reject(data, pos, count)
    nbytes = int(ends[-1]) + 1
    payload = (region[:nbytes] & 0x7F).astype(np.uint64)
    # Bit offset of each byte inside its value (LEB128 is LSB-first).
    offsets = np.arange(nbytes, dtype=np.uint64)
    offsets -= np.repeat(starts, lengths).view(np.uint64)
    # A 10-byte varint carries 70 payload bits; the top byte must be 0 or
    # 1 for the value to fit 64 bits (corrupted input must not wrap).
    tenth = payload[offsets == 9]
    if tenth.size and int(tenth.max()) > 1:
        return _decode_uvarint_np_reject(data, pos, count)
    np.left_shift(payload, offsets * _U64_SEVEN, out=payload)
    values = np.add.reduceat(payload, starts)
    return values, pos + nbytes


def decode_svarint_np(
    data: bytes | memoryview | np.ndarray, pos: int, count: int
) -> tuple[np.ndarray, int]:
    """Decode ``count`` zigzag signed varints, vectorized; returns an
    ``int64`` array and the next position."""
    raw, pos = decode_uvarint_np(data, pos, count)
    return zigzag_decode_np(raw), pos


def decode_uvarint_array(
    data: bytes | memoryview, pos: int, count: int
) -> tuple[list[int], int]:
    """Decode ``count`` consecutive unsigned varints starting at ``pos``.

    List-returning compatibility wrapper over :func:`decode_uvarint_np`;
    the same malformed-input guards apply.
    """
    values, pos = decode_uvarint_np(data, pos, count)
    return values.tolist(), pos


def decode_svarint_array(
    data: bytes | memoryview, pos: int, count: int
) -> tuple[list[int], int]:
    """Decode ``count`` zigzag signed varints starting at ``pos``."""
    values, pos = decode_svarint_np(data, pos, count)
    return values.tolist(), pos


def decode_uvarint_array_scalar(
    data: bytes | memoryview, pos: int, count: int
) -> tuple[list[int], int]:
    """Per-value reference decoder (the executable specification the
    vectorized kernel is fuzzed against)."""
    values = []
    n = len(data)
    for _ in range(count):
        result = 0
        shift = 0
        while True:
            if pos >= n:
                raise ValueError("truncated varint stream")
            byte = int(data[pos])
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise ValueError("varint too long")
        if result > _MASK64:
            raise ValueError("varint overflows 64 bits")
        values.append(result)
    return values, pos


def decode_svarint_array_scalar(
    data: bytes | memoryview, pos: int, count: int
) -> tuple[list[int], int]:
    """Per-value reference decoder for signed varints."""
    raw, pos = decode_uvarint_array_scalar(data, pos, count)
    return [(u >> 1) ^ -(u & 1) for u in raw], pos


# -- vectorized encode --------------------------------------------------------

def _uvarint_byte_widths(values: np.ndarray) -> np.ndarray:
    """Encoded byte count per value (1..10) for a ``uint64`` array."""
    widths = np.ones(values.shape[0], dtype=np.int64)
    for bound in _WIDTH_BOUNDS:
        widths += values >= bound
    return widths


def uvarint_stream(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LEB128 bytes of a ``uint64`` array and where each value sits.

    Returns ``(encoded, starts)``: a ``uint8`` array and ``n + 1`` byte
    offsets, value ``i`` being ``encoded[starts[i]:starts[i + 1]]`` — so
    any run of consecutive values can be cut out of one batch emit.
    """
    n = values.shape[0]
    widths = _uvarint_byte_widths(values)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(widths, out=starts[1:])
    total = int(starts[-1])
    value_id = np.repeat(np.arange(n, dtype=np.int64), widths)
    offsets = np.arange(total, dtype=np.int64) - starts[:-1][value_id]
    chunks = values[value_id] >> (offsets * 7).view(np.uint64).astype(np.uint64)
    encoded = (chunks & np.uint64(0x7F)).astype(np.uint8)
    encoded[offsets < widths[value_id] - 1] |= 0x80
    return encoded, starts


def _emit_uvarints(values: np.ndarray, out: bytearray) -> None:
    """Append the LEB128 bytes of a ``uint64`` array to ``out``."""
    if values.shape[0]:
        out += uvarint_stream(values)[0].tobytes()


def encode_uvarint_array(values: np.ndarray | list[int], out: bytearray) -> None:
    """Append a sequence of unsigned varints (no length prefix).

    Vectorized batch emitter; output is byte-identical to repeated
    :func:`encode_uvarint` calls.  Inputs that cannot be represented as a
    ``uint64`` array (negatives, values past 64 bits, non-integer dtypes)
    fall back to the scalar path for exact error behavior.
    """
    try:
        arr = np.asarray(values) if not isinstance(values, np.ndarray) else values
    except (OverflowError, ValueError):
        # Python ints outside any 64-bit dtype: scalar path raises the
        # canonical out-of-range errors.
        encode_uvarint_array_scalar(values, out)
        return
    if arr.dtype.kind == "i":
        if arr.size and int(arr.min()) < 0:
            bad = int(arr[arr < 0][0])
            raise ValueError(f"uvarint cannot encode negative value {bad}")
        arr = arr.astype(np.uint64)
    elif arr.dtype.kind == "b":
        arr = arr.astype(np.uint64)
    if arr.dtype.kind == "u":
        _emit_uvarints(arr.astype(np.uint64, copy=False), out)
        return
    encode_uvarint_array_scalar(values, out)


def encode_uvarint_array_scalar(
    values: np.ndarray | list[int], out: bytearray
) -> None:
    """Per-value reference encoder (also the fallback for inputs outside
    the uint64 fast path, where it raises the canonical errors)."""
    for v in values:
        v = int(v)
        if v < 0:
            raise ValueError(f"uvarint cannot encode negative value {v}")
        if v > _MASK64:
            raise ValueError(f"uvarint value {v} exceeds 64 bits")
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)


def encode_svarint_array(values: np.ndarray | list[int], out: bytearray) -> None:
    """Append a sequence of zigzag signed varints (no length prefix).

    Vectorized: one zigzag transform plus one batch LEB128 emit.  Inputs
    outside the int64 fast path (Python ints past 64 bits) fall back to
    the scalar encoder for exact error behavior.
    """
    try:
        arr = np.asarray(values) if not isinstance(values, np.ndarray) else values
    except (OverflowError, ValueError):
        encode_svarint_array_scalar(values, out)
        return
    if arr.dtype.kind == "u":
        if arr.size and int(arr.max()) > 2**63 - 1:
            bad = int(arr[arr > 2**63 - 1][0])
            raise ValueError(f"svarint value {bad} exceeds 64 bits")
        arr = arr.astype(np.int64)
    elif arr.dtype.kind == "b":
        arr = arr.astype(np.int64)
    if arr.dtype.kind == "i":
        if arr.dtype != np.int64:
            arr = arr.astype(np.int64)
        _emit_uvarints(zigzag_encode_np(arr), out)
        return
    encode_svarint_array_scalar(values, out)


def encode_svarint_array_scalar(
    values: np.ndarray | list[int], out: bytearray
) -> None:
    """Per-value reference encoder for signed varints."""
    for v in values:
        v = int(v)
        z = (v << 1) if v >= 0 else ((-v) << 1) - 1
        if z > _MASK64:
            raise ValueError(f"svarint value {v} exceeds 64 bits")
        while z >= 0x80:
            out.append((z & 0x7F) | 0x80)
            z >>= 7
        out.append(z)
