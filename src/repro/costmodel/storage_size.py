"""Replica storage-size estimation (paper Definition 5 / Section III-A).

``Storage(r)`` is estimated from the compression ratio of the replica's
encoding scheme, measured once on a small sample: "Since compression
ratio is stable in most situations, it can be effectively measured with a
small sample of D."
"""

from __future__ import annotations

from repro.data.dataset import Dataset
from repro.encoding import ROW_BYTES, EncodingScheme, measure_compression_ratio


def measure_encoding_ratios(
    schemes: list[EncodingScheme],
    sample: Dataset,
) -> dict[str, float]:
    """Compression ratio (relative to uncompressed row binary) per scheme,
    measured on a time-sorted sample as stored partitions would be."""
    ordered = sample.sorted_by_time()
    return {s.name: measure_compression_ratio(s, ordered) for s in schemes}


def estimate_replica_storage(
    n_records: float,
    encoding_ratio: float,
    per_partition_overhead_bytes: float = 0.0,
    n_partitions: int = 1,
) -> float:
    """``Storage(r)`` in bytes for ``n_records`` records encoded at
    ``encoding_ratio`` times the row-binary footprint, plus optional fixed
    per-storage-unit overhead (headers, object metadata)."""
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    if encoding_ratio <= 0:
        raise ValueError("encoding_ratio must be positive")
    return n_records * ROW_BYTES * encoding_ratio + per_partition_overhead_bytes * n_partitions
