"""Encoding-scheme abstraction: layout x compressor (paper Section II-C).

An *encoding scheme* ``E`` turns a data partition into its physical byte
layout.  Following the paper's evaluation, a scheme is the combination of

- a **layout** — row-major binary or columnar-with-delta-encoding — and
- an optional **general compressor** — Snappy, Gzip or LZMA2 — applied to
  the whole layout blob.

The 7 candidate schemes of the paper (2 layouts x 4 compressors minus the
"uncompressed column" combination) are produced by
:func:`paper_encoding_schemes`.
"""

from __future__ import annotations

import lzma
import zlib
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.data.dataset import Dataset
from repro.encoding.columnar import ColumnarBlob, decode_columns, encode_column_groups
from repro.encoding.rowbin import decode_rows, encode_row_groups
from repro.encoding.snappy import snappy_compress, snappy_decompress


class Compressor(Protocol):
    """A whole-blob general compressor."""

    name: str

    def compress(self, data: bytes) -> bytes: ...

    def decompress(self, data: bytes) -> bytes: ...


@dataclass(frozen=True, slots=True)
class NoCompression:
    """Identity compressor (the "uncompressed" option)."""

    name: str = "PLAIN"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data


@dataclass(frozen=True, slots=True)
class SnappyCompression:
    """The fast/low-ratio point: our from-scratch Snappy (see
    :mod:`repro.encoding.snappy`)."""

    name: str = "SNAPPY"

    def compress(self, data: bytes) -> bytes:
        return snappy_compress(data)

    def decompress(self, data: bytes) -> bytes:
        return snappy_decompress(data)


@dataclass(frozen=True, slots=True)
class GzipCompression:
    """zlib/deflate at the gzip default level — the balanced point."""

    name: str = "GZIP"
    level: int = 6

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


@dataclass(frozen=True, slots=True)
class Lzma2Compression:
    """LZMA2 (xz) — the high-ratio/slow point.

    A modest preset keeps replica builds tolerable; ratios are already far
    ahead of gzip at preset 1 on GPS data.
    """

    name: str = "LZMA2"
    preset: int = 1

    def compress(self, data: bytes) -> bytes:
        return lzma.compress(data, format=lzma.FORMAT_XZ, preset=self.preset)

    def decompress(self, data: bytes) -> bytes:
        return lzma.decompress(data, format=lzma.FORMAT_XZ)


#: Layout name -> (encode groups, decode one blob).
_LAYOUTS: dict[str, tuple[Callable[[Dataset, np.ndarray], list[bytes]],
                          Callable[[bytes], Dataset]]] = {
    "ROW": (encode_row_groups, decode_rows),
    "COL": (encode_column_groups, decode_columns),
}


class PartitionReader(Protocol):
    """Uniform read interface over one encoded partition.

    Columnar v2 blobs implement it lazily (zone maps, per-column decode);
    row blobs and columnar v1 decode everything on first access.  The
    engine programs against this duck type and uses ``lazy`` to decide
    whether partial decode is worth attempting.
    """

    @property
    def n_records(self) -> int: ...

    @property
    def lazy(self) -> bool: ...

    def zone(self, name: str) -> tuple[float, float] | None: ...

    def decode_column(self, name: str): ...

    def dataset(self) -> Dataset: ...


class EagerPartitionReader:
    """PartitionReader over formats without a column directory: the whole
    blob decodes once, on first access (no zone maps, no partial decode)."""

    __slots__ = ("_thunk", "_dataset")

    def __init__(self, thunk: Callable[[], Dataset]):
        self._thunk = thunk
        self._dataset: Dataset | None = None

    @property
    def n_records(self) -> int:
        return len(self.dataset())

    @property
    def lazy(self) -> bool:
        return False

    def zone(self, name: str) -> tuple[float, float] | None:
        return None

    def decode_column(self, name: str):
        return self.dataset().column(name)

    def dataset(self) -> Dataset:
        if self._dataset is None:
            self._dataset = self._thunk()
        return self._dataset


@dataclass(frozen=True, slots=True)
class EncodingScheme:
    """A concrete encoding scheme ``E = layout ∘ compressor``.

    ``name`` is the paper-style label, e.g. ``"ROW-GZIP"`` or
    ``"COL-LZMA2"``; ``"ROW-PLAIN"`` is the uncompressed binary baseline.
    """

    layout: str
    compressor: Compressor

    def __post_init__(self) -> None:
        if self.layout not in _LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")

    @property
    def name(self) -> str:
        return f"{self.layout}-{self.compressor.name}"

    @property
    def is_columnar(self) -> bool:
        return self.layout == "COL"

    def encode(self, partition: Dataset) -> bytes:
        """Physical bytes for one data partition (the one-group case of
        :meth:`encode_groups`)."""
        return self.encode_groups(partition, (0, len(partition)))[0]

    def encode_groups(self, dataset: Dataset, bounds) -> list[bytes]:
        """Physical bytes of each group ``dataset[bounds[g]:bounds[g + 1]]``.

        ``bounds`` starts at 0, ends at ``len(dataset)`` and never
        decreases (a group may be empty).  A unit's bytes depend only on
        its records: each entry equals :meth:`encode` of its group alone.
        The layout runs once over all groups; compression is one call per
        group.
        """
        edges = np.asarray(bounds, dtype=np.int64)
        if (edges.ndim != 1 or edges.size < 2 or edges[0] != 0
                or edges[-1] != len(dataset) or np.any(np.diff(edges) < 0)):
            raise ValueError(
                f"group bounds must run from 0 to {len(dataset)} "
                f"without decreasing")
        encode, _ = _LAYOUTS[self.layout]
        compress = self.compressor.compress
        return [compress(blob) for blob in encode(dataset, edges)]

    def decode(self, blob: bytes) -> Dataset:
        """Recover the partition's records from its physical bytes."""
        _, decode = _LAYOUTS[self.layout]
        return decode(self.compressor.decompress(blob))

    def open(self, blob, telemetry=None) -> "PartitionReader":
        """A :class:`PartitionReader` over the blob.

        ``blob`` may be any buffer (``bytes`` or a ``memoryview`` from
        ``UnitStore.get_view``); with ``NoCompression`` the payload is
        read in place, never copied.  Columnar blobs open lazily (v2) or
        defer one full decode (v1); row blobs decode on first access.
        ``telemetry`` is forwarded to the columnar reader's per-block
        decode hook.
        """
        payload = self.compressor.decompress(blob)
        if self.layout == "COL":
            return ColumnarBlob(payload, telemetry)
        return EagerPartitionReader(lambda: decode_rows(payload))

    def __str__(self) -> str:
        return self.name


def paper_encoding_schemes() -> list[EncodingScheme]:
    """The paper's 7 candidate encoding schemes.

    Row or column layout, optionally compressed by Snappy/Gzip/LZMA2;
    the uncompressed-column combination is excluded ("poor performance in
    terms of both compression ratio and scan speed", Section V-A).
    """
    schemes = []
    for compressor in (NoCompression(), SnappyCompression(), GzipCompression(),
                       Lzma2Compression()):
        for layout in ("ROW", "COL"):
            if layout == "COL" and isinstance(compressor, NoCompression):
                continue
            schemes.append(EncodingScheme(layout, compressor))
    return schemes


def all_encoding_schemes() -> list[EncodingScheme]:
    """All 8 layout x compressor combinations (incl. uncompressed column),
    used by the Table I bench which reports the full grid."""
    return [
        EncodingScheme(layout, compressor)
        for compressor in (NoCompression(), SnappyCompression(), GzipCompression(),
                           Lzma2Compression())
        for layout in ("ROW", "COL")
    ]


def encoding_scheme_by_name(name: str) -> EncodingScheme:
    """Look up a scheme by its ``LAYOUT-COMPRESSOR`` label."""
    for scheme in all_encoding_schemes():
        if scheme.name == name:
            return scheme
    raise KeyError(f"unknown encoding scheme {name!r}")


def measure_compression_ratio(
    scheme: EncodingScheme,
    sample: Dataset,
    baseline: EncodingScheme | None = None,
) -> float:
    """Compression ratio of ``scheme`` on ``sample`` relative to
    ``baseline`` (default: uncompressed row binary, the Table I convention).

    The paper measures ratios on a small sample because they are stable
    (Section III-A); callers pass a sample of the full dataset.
    """
    if len(sample) == 0:
        raise ValueError("cannot measure compression ratio on an empty sample")
    base = baseline or EncodingScheme("ROW", NoCompression())
    return len(scheme.encode(sample)) / len(base.encode(sample))
