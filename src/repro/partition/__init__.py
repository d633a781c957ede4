"""Spatio-temporal partitioning schemes for BLOT systems (Section II-B).

The paper's candidate layouts partition space with an equal-count k-d
tree and refine each spatial cell into equi-depth temporal slices; this
package also provides uniform grids for illustrations and ablations.
A realized :class:`Partitioning` answers the paper's range -> involved
partitions lookup itself (:meth:`Partitioning.involved`, one
vectorized pass over its box array).
"""

from repro.partition.base import Partitioning, PartitioningScheme, check_partitioning
from repro.partition.composite import (
    CompositeScheme,
    paper_partitioning_schemes,
    small_partitioning_schemes,
)
from repro.partition.grid import GridPartitioner
from repro.partition.kdtree import KdTreePartitioner
from repro.partition.temporal import TemporalSlicer, equi_depth_boundaries, slice_labels

__all__ = [
    "CompositeScheme",
    "GridPartitioner",
    "KdTreePartitioner",
    "Partitioning",
    "PartitioningScheme",
    "TemporalSlicer",
    "check_partitioning",
    "equi_depth_boundaries",
    "paper_partitioning_schemes",
    "slice_labels",
    "small_partitioning_schemes",
]
