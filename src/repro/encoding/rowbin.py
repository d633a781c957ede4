"""Fixed-width binary row codec.

The "use binary format instead of text format" option of the paper
(Section II-C): each record is a packed little-endian struct with the
schema's columns in order.  Encoding/decoding round-trips exactly and is
implemented with numpy structured arrays so partitions of millions of
records stay fast.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.data.record import FIELDS

_MAGIC = b"BROW"
_VERSION = 1

_ROW_DTYPE = np.dtype([(f.name, f.dtype.newbyteorder("<")) for f in FIELDS])

#: Bytes per record in the row layout (41 for the taxi schema).
ROW_BYTES = _ROW_DTYPE.itemsize


def encode_row_groups(dataset: Dataset, bounds: np.ndarray) -> list[bytes]:
    """The row blob of each group ``dataset[bounds[g]:bounds[g + 1]]``
    (``bounds`` starts at 0, ends at ``len(dataset)``, never decreases),
    sliced out of one structured array packed for all groups."""
    rows = np.empty(len(dataset), dtype=_ROW_DTYPE)
    for f in FIELDS:
        rows[f.name] = dataset.column(f.name)
    edges = np.asarray(bounds).tolist()
    return [
        _MAGIC + bytes([_VERSION]) + (hi - lo).to_bytes(8, "little")
        + rows[lo:hi].tobytes()
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def encode_rows(dataset: Dataset) -> bytes:
    """Serialize a dataset as a packed row-major binary blob (the
    one-group case of :func:`encode_row_groups`)."""
    return encode_row_groups(dataset, [0, len(dataset)])[0]


def decode_rows(data: bytes) -> Dataset:
    """Inverse of :func:`encode_rows`."""
    if len(data) < 13:
        raise ValueError("row blob too short")
    if data[:4] != _MAGIC:
        raise ValueError("bad row blob magic")
    if data[4] != _VERSION:
        raise ValueError(f"unsupported row blob version {data[4]}")
    n = int.from_bytes(data[5:13], "little")
    body = data[13:]
    if len(body) != n * ROW_BYTES:
        raise ValueError(
            f"row blob body is {len(body)} bytes, expected {n * ROW_BYTES}"
        )
    rows = np.frombuffer(body, dtype=_ROW_DTYPE, count=n)
    columns = {f.name: np.ascontiguousarray(rows[f.name]).astype(f.dtype) for f in FIELDS}
    return Dataset(columns)
