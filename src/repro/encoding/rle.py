"""Byte-level run-length encoding.

Used for low-cardinality columns such as ``occupied`` where long runs of
identical values dominate (a taxi stays occupied/vacant across many
consecutive GPS samples).  The format is a varint run count followed by
``(value_byte, varint_run_length)`` pairs.

Both codec directions are vectorized: encoding finds run boundaries with
one ``diff`` scan and emits all value bytes and run-length varints with a
single gather; decoding locates the run-length varints via a
continuation-bit scan, decodes them as one batch, and materializes the
output with ``np.repeat``.  The ``*_scalar`` functions are the original
per-run loops, kept as the executable specification for the equivalence
fuzz suite.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.varint import decode_uvarint, encode_uvarint, uvarint_stream

#: Absolute cap on decoded output when the caller does not know the
#: expected size.  Run lengths are 64-bit varints, so corrupted input
#: could otherwise demand petabytes from ``np.repeat`` before any
#: validation fires.
_MAX_DECODED = 1 << 31


def rle_encode_bytes(values: bytes | np.ndarray) -> bytes:
    """Run-length encode a byte sequence (vectorized batch emitter)."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint8:
        arr = np.ascontiguousarray(values)
    else:
        arr = np.frombuffer(bytes(values), dtype=np.uint8)
    return rle_encode_groups(arr, np.array([0, arr.size]))[0]


def rle_encode_groups(values: np.ndarray, bounds: np.ndarray) -> list[bytes]:
    """One RLE block per group ``values[bounds[i]:bounds[i + 1]]``.

    ``bounds`` starts at 0, ends at ``len(values)`` and never decreases.
    All groups share one pass: runs break where the value changes and at
    every group start, every run serializes as its value byte plus its
    varint length, and a group's block is its run count followed by the
    slice of run records that fall inside it.
    """
    arr = np.ascontiguousarray(values, dtype=np.uint8)
    bounds = np.asarray(bounds, dtype=np.int64)
    n = arr.size
    breaks = np.empty(n, dtype=bool)
    if n:
        breaks[0] = True
        np.not_equal(arr[1:], arr[:-1], out=breaks[1:])
        breaks[bounds[bounds < n]] = True
    starts = np.flatnonzero(breaks)
    run_lengths = np.diff(starts, append=n).astype(np.uint64)
    # Each run serializes as 1 value byte + its varint run length.
    encoded, vstarts = uvarint_stream(run_lengths)
    vwidths = np.diff(vstarts)
    rec_starts = vstarts + np.arange(starts.size + 1)
    body = np.empty(int(rec_starts[-1]), dtype=np.uint8)
    body[rec_starts[:-1]] = arr[starts]
    value_id = np.repeat(np.arange(starts.size), vwidths)
    body[np.arange(encoded.size) + value_id + 1] = encoded
    body = body.tobytes()
    # Group g holds runs [first[g], first[g + 1]).
    first = np.searchsorted(starts, bounds).tolist()
    counts, cstarts = uvarint_stream(np.diff(first).astype(np.uint64))
    counts = counts.tobytes()
    cstarts = cstarts.tolist()
    rec = rec_starts.tolist()
    return [
        counts[cstarts[g]:cstarts[g + 1]] + body[rec[first[g]]:rec[first[g + 1]]]
        for g in range(len(first) - 1)
    ]


def rle_decode_array(
    data: bytes | memoryview | np.ndarray,
    pos: int = 0,
    expect: int | None = None,
) -> tuple[np.ndarray, int]:
    """Decode one RLE block to a ``uint8`` array; returns
    ``(values, next_pos)``.

    Vectorized: a single continuation-bit scan finds every run-length
    varint terminator, a monotone pointer walk (O(runs)) splits the
    stream into ``(value, varint)`` records, the run lengths decode as
    one batch, and ``np.repeat`` expands the output.

    ``expect``, when given, bounds the decoded size so corrupted run
    lengths fail fast instead of asking ``np.repeat`` for petabytes;
    without it an absolute 2**31 cap applies.
    """
    if isinstance(data, np.ndarray):
        buf = data
        if buf.dtype != np.uint8:
            raise ValueError(f"byte buffer must be uint8, got {buf.dtype}")
    else:
        buf = np.frombuffer(data, dtype=np.uint8)
    n_runs, pos = decode_uvarint(data, pos)
    if n_runs == 0:
        return np.empty(0, dtype=np.uint8), pos
    region = buf[pos:]
    # Every run needs at least a value byte plus a 1-byte varint.
    if n_runs * 2 > region.shape[0]:
        raise ValueError("truncated RLE block")
    terminators = np.flatnonzero(region < 0x80)
    # Walk run records: value byte at p, varint from p+1 to its first
    # terminator.  The pointer into `terminators` only moves forward, so
    # the whole walk is O(bytes) even though it is a Python loop over
    # runs (runs << bytes for RLE-worthy data).
    vstarts = np.empty(n_runs, dtype=np.int64)
    vends = np.empty(n_runs, dtype=np.int64)
    t_idx = 0
    n_terms = terminators.shape[0]
    p = 0
    for i in range(n_runs):
        vstarts[i] = p + 1
        while t_idx < n_terms and terminators[t_idx] <= p:
            t_idx += 1
        if t_idx >= n_terms:
            raise ValueError("truncated RLE block")
        end = int(terminators[t_idx])
        t_idx += 1
        vends[i] = end
        p = end + 1
    if p > region.shape[0]:
        raise ValueError("truncated RLE block")
    vwidths = vends - vstarts + 1
    if int(vwidths.max()) > 10:
        raise ValueError("varint too long")
    run_values = region[vstarts - 1]
    # Batch-decode the (non-contiguous) run-length varints: gather their
    # payload bytes, shift by each byte's offset within its varint, and
    # sum per run.
    total_vbytes = int(vwidths.sum())
    v0 = np.empty(n_runs, dtype=np.int64)
    v0[0] = 0
    np.cumsum(vwidths[:-1], out=v0[1:])
    within = np.arange(total_vbytes, dtype=np.int64) - np.repeat(v0, vwidths)
    positions = np.repeat(vstarts, vwidths) + within
    payload = (region[positions] & 0x7F).astype(np.uint64)
    tenth = payload[within == 9]
    if tenth.size and int(tenth.max()) > 1:
        raise ValueError("varint overflows 64 bits")
    np.left_shift(payload, (within * 7).view(np.uint64), out=payload)
    run_lengths = np.add.reduceat(payload, v0)
    if int(run_lengths.min()) == 0:
        raise ValueError("zero-length RLE run")
    total = int(run_lengths.sum())
    cap = expect if expect is not None else _MAX_DECODED
    if total > cap:
        raise ValueError("RLE output exceeds expected size")
    values = np.repeat(run_values, run_lengths.astype(np.int64))
    return values, pos + p


def rle_decode_bytes(data: bytes | memoryview, pos: int = 0) -> tuple[bytes, int]:
    """Decode one RLE block; returns ``(values, next_pos)``."""
    values, pos = rle_decode_array(data, pos)
    return values.tobytes(), pos


def rle_encode_bytes_scalar(values: bytes | np.ndarray) -> bytes:
    """Per-run reference encoder (specification for the fuzz suite)."""
    arr = np.frombuffer(bytes(values), dtype=np.uint8)
    out = bytearray()
    if arr.size == 0:
        encode_uvarint(0, out)
        return bytes(out)
    change = np.flatnonzero(np.diff(arr)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [arr.size]))
    encode_uvarint(len(starts), out)
    for s, e in zip(starts, ends):
        out.append(int(arr[s]))
        encode_uvarint(int(e - s), out)
    return bytes(out)


def rle_decode_bytes_scalar(
    data: bytes | memoryview, pos: int = 0
) -> tuple[bytes, int]:
    """Per-run reference decoder (specification for the fuzz suite)."""
    n_runs, pos = decode_uvarint(data, pos)
    chunks = []
    total = 0
    for _ in range(n_runs):
        if pos >= len(data):
            raise ValueError("truncated RLE block")
        value = int(data[pos])
        pos += 1
        run, pos = decode_uvarint(data, pos)
        if run == 0:
            raise ValueError("zero-length RLE run")
        total += run
        if total > _MAX_DECODED:
            raise ValueError("RLE output exceeds expected size")
        chunks.append(bytes([value]) * run)
    return b"".join(chunks), pos
