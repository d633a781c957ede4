"""A from-scratch, pure-Python compressor implementing the Snappy format.

Snappy is not installable in this offline environment, so we implement the
same design point ourselves: a byte-oriented LZ77 with no entropy coding,
trading compression ratio for speed.  The wire format follows the public
Snappy format description:

- preamble: uncompressed length as a varint;
- element tags in the low 2 bits of the first byte:
  ``00`` literal, ``01`` copy with 1-byte offset (len 4-11, 11-bit offset),
  ``10`` copy with 2-byte little-endian offset (len 1-64),
  ``11`` copy with 4-byte little-endian offset (len 1-64).

The compressor emits literals and tag-``01``/``10`` copies via a greedy
hash-table match search (like the reference C++ implementation's fast
path); the decompressor accepts the full format including tag ``11``.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.encoding.varint import decode_uvarint, encode_uvarint

_MIN_MATCH = 4
_MAX_COPY_LEN = 64
_HASH_BITS = 14
_HASH_SIZE = 1 << _HASH_BITS
_HASH_MULT = 0x1E35A7BD


def _hash4_all(data: bytes) -> array:
    """The match-table index of every 4-byte window of ``data``: entry
    ``i`` hashes ``data[i:i + 4]`` read little-endian.  Computed in one
    numpy pass (uint32 arithmetic wraps exactly like ``& 0xFFFFFFFF``)
    and held as a compact ``array('H')`` the match loop indexes."""
    b = np.frombuffer(data, dtype=np.uint8)
    v = b[:-3].astype(np.uint32)
    v |= b[1:-2].astype(np.uint32) << 8
    v |= b[2:-1].astype(np.uint32) << 16
    v |= b[3:].astype(np.uint32) << 24
    v *= np.uint32(_HASH_MULT)
    v >>= 32 - _HASH_BITS
    return array("H", v.astype(np.uint16).tobytes())


def _emit_literal(data: bytes, start: int, end: int, out: bytearray) -> None:
    """Append a literal element covering ``data[start:end]``."""
    length = end - start
    while length > 0:
        # A single literal element can carry up to 2**32 bytes but we chunk
        # at 60+4-byte-length boundaries conservatively via the 1/2-byte
        # length forms only.
        chunk = min(length, 65536)
        n = chunk - 1
        if n < 60:
            out.append(n << 2)
        elif n < 256:
            out.append(60 << 2)
            out.append(n)
        else:
            out.append(61 << 2)
            out.append(n & 0xFF)
            out.append((n >> 8) & 0xFF)
        out += data[start:start + chunk]
        start += chunk
        length -= chunk


def _emit_copy(offset: int, length: int, out: bytearray) -> None:
    """Append copy elements for a match of ``length`` at ``offset`` back."""
    # Long matches are split into 64-byte copies (a final short remainder
    # may use the 1-byte-offset form when it fits).
    while length >= _MAX_COPY_LEN:
        out.append((2) | ((_MAX_COPY_LEN - 1) << 2))
        out.append(offset & 0xFF)
        out.append((offset >> 8) & 0xFF)
        length -= _MAX_COPY_LEN
    if length == 0:
        return
    if 4 <= length <= 11 and offset < 2048:
        out.append(1 | ((length - 4) << 2) | ((offset >> 8) << 5))
        out.append(offset & 0xFF)
    else:
        out.append(2 | ((length - 1) << 2))
        out.append(offset & 0xFF)
        out.append((offset >> 8) & 0xFF)


def snappy_compress(data: bytes) -> bytes:
    """Compress ``data`` into the Snappy wire format."""
    data = bytes(data)
    n = len(data)
    out = bytearray()
    encode_uvarint(n, out)
    if n == 0:
        return bytes(out)
    if n < _MIN_MATCH + 1:
        _emit_literal(data, 0, n, out)
        return bytes(out)

    hashes = _hash4_all(data)
    table = [-1] * _HASH_SIZE
    literal_start = 0
    i = 0
    limit = n - _MIN_MATCH
    while i <= limit:
        h = hashes[i]
        candidate = table[h]
        table[h] = i
        if (
            candidate >= 0
            and i - candidate <= 0xFFFF
            and data[candidate:candidate + _MIN_MATCH] == data[i:i + _MIN_MATCH]
        ):
            # Extend the match as far as it goes.
            match_len = _MIN_MATCH
            max_len = n - i
            while (
                match_len < max_len
                and data[candidate + match_len] == data[i + match_len]
            ):
                match_len += 1
            if literal_start < i:
                _emit_literal(data, literal_start, i, out)
            _emit_copy(i - candidate, match_len, out)
            # Seed the table inside the match sparsely to keep Python fast.
            end = i + match_len
            j = i + 1
            step = 1 if match_len < 16 else 4
            while j < min(end, limit):
                table[hashes[j]] = j
                j += step
            i = end
            literal_start = end
        else:
            i += 1
    if literal_start < n:
        _emit_literal(data, literal_start, n, out)
    return bytes(out)


def snappy_decompress(data: bytes) -> bytes:
    """Decompress Snappy-format ``data``; validates the declared length."""
    expected, pos = decode_uvarint(data, 0)
    out = bytearray()
    n = len(data)
    while pos < n:
        tag = data[pos]
        pos += 1
        element = tag & 3
        if element == 0:  # literal
            length = (tag >> 2) + 1
            if length > 60:
                extra = length - 60
                if pos + extra > n:
                    raise ValueError("truncated literal length")
                length = int.from_bytes(data[pos:pos + extra], "little") + 1
                pos += extra
            if pos + length > n:
                raise ValueError("truncated literal body")
            out += data[pos:pos + length]
            pos += length
            continue
        if element == 1:  # copy, 1-byte offset
            length = ((tag >> 2) & 0x7) + 4
            if pos >= n:
                raise ValueError("truncated copy-1 offset")
            offset = ((tag >> 5) << 8) | data[pos]
            pos += 1
        elif element == 2:  # copy, 2-byte offset
            length = (tag >> 2) + 1
            if pos + 2 > n:
                raise ValueError("truncated copy-2 offset")
            offset = data[pos] | (data[pos + 1] << 8)
            pos += 2
        else:  # copy, 4-byte offset
            length = (tag >> 2) + 1
            if pos + 4 > n:
                raise ValueError("truncated copy-4 offset")
            offset = int.from_bytes(data[pos:pos + 4], "little")
            pos += 4
        if offset == 0 or offset > len(out):
            raise ValueError(f"invalid copy offset {offset} at output size {len(out)}")
        # Overlapping copies replicate recent output byte-by-byte.
        if offset >= length:
            start = len(out) - offset
            out += out[start:start + length]
        else:
            start = len(out) - offset
            for k in range(length):
                out.append(out[start + k])
    if len(out) != expected:
        raise ValueError(
            f"declared uncompressed length {expected} != actual {len(out)}"
        )
    return bytes(out)
