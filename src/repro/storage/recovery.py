"""Recovery of diverse replicas from each other.

The paper's fault-tolerance argument (Sections I and II-E): "in spite of
the diversity of physical data organizations, diverse replicas can
recover each other when failures occur because they share the same
logical view of the data."  This module makes that concrete:

- :func:`recover_dataset` — rebuild the logical dataset from any replica
  (a totally lost replica is then rebuilt from it with
  :func:`~repro.storage.replica.build_replica`, under any partitioning
  and encoding);
- :func:`repair_partition` — the cheap path: a single damaged storage
  unit is restored by running *one range query* (the unit's box) against
  a surviving diverse replica, instead of re-reading everything.

Boundary discipline.  Partition boxes tile the universe but share
boundaries; a record sitting exactly on a shared boundary is stored in
exactly one partition yet geometrically belongs to several boxes.  All
partitioners in this repository place records with the *canonical
half-open* rule — a record belongs to the box where every coordinate
satisfies ``lo <= v < hi``, the upper face being closed only on the
universe boundary — so :func:`canonical_mask` recomputes a partition's
exact original contents from its box alone, and repairs need nothing
from (possibly also damaged) neighbour units.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.geometry import Box3, boxes_intersect_mask
from repro.partition.base import Partitioning
from repro.storage.replica import StoredReplica

_EDGE_EPS = 1e-12
#: A partition face is recognized as lying on the universe boundary when
#: it is within this many ulps of the stored universe bound.  Builders
#: that derive face positions arithmetically (``lo + i * step`` time
#: slicing) accumulate a few ulps of rounding, and on large-magnitude
#: axes (epoch-seconds t, where one ulp of 1.2e9 is ~2.4e-7) that gap
#: dwarfs any absolute epsilon — a fixed 1e-12 silently reopened the
#: face and dropped boundary records during repair.
_EDGE_EPS_ULPS = 64.0


def _universe_face_tolerance(u_bound: float) -> float:
    """How far below the universe's upper bound a face may sit and still
    count as the (closed) universe face: a few ulps of the bound itself,
    floored by the legacy absolute epsilon for tiny magnitudes."""
    return max(_EDGE_EPS, _EDGE_EPS_ULPS * float(np.spacing(abs(u_bound))))


def canonical_box_test(
    partitioning: Partitioning, dataset: Dataset, partition_id: int
) -> np.ndarray:
    """Mask of records passing ``partition_id``'s half-open box test.

    Per dimension ``lo <= v < hi``, except that a face lying on the
    universe's upper boundary is closed (``v <= hi``).  The face test
    compares against the *stored universe bound* with a relative
    (ulp-scaled) tolerance, so a face the builder computed a few ulps
    below the bound still seals the universe edge — and the closed test
    admits records sitting exactly on the bound even when the face
    itself rounded slightly below it.  On non-degenerate tilings the
    tests of different partitions are disjoint; fully degenerate
    partitions (identical boxes, produced when a node's records all
    share one coordinate) can pass together — ownership is then settled
    by :func:`canonical_mask`'s highest-id tie-break.
    """
    box = partitioning.box_array[partition_id]
    u = partitioning.universe
    u_hi = (u.x_max, u.y_max, u.t_max)
    mask = np.ones(len(dataset), dtype=bool)
    for dim, column in enumerate(("x", "y", "t")):
        values = dataset.column(column)
        lo, hi = box[2 * dim], box[2 * dim + 1]
        mask &= values >= lo
        u_bound = u_hi[dim]
        if hi >= u_bound - _universe_face_tolerance(u_bound):
            mask &= values <= max(hi, u_bound)
        else:
            mask &= values < hi
    return mask


def canonical_mask(
    partitioning: Partitioning, dataset: Dataset, partition_id: int
) -> np.ndarray:
    """Mask of ``dataset`` records canonically *owned* by ``partition_id``:
    the box test passes and no higher-id partition's test passes too (the
    tie-break every builder follows when degenerate splits collapse boxes
    onto each other)."""
    mask = canonical_box_test(partitioning, dataset, partition_id)
    if not mask.any():
        return mask
    box = Box3(*partitioning.box_array[partition_id])
    rivals = np.flatnonzero(boxes_intersect_mask(partitioning.box_array, box))
    for rival in rivals:
        if rival > partition_id:
            rival_pass = canonical_box_test(partitioning, dataset, int(rival))
            mask &= ~rival_pass
            if not mask.any():
                break
    return mask


class RecoveryError(RuntimeError):
    """Raised when recovered content contradicts the replica's metadata."""


def recover_dataset(replica: StoredReplica) -> Dataset:
    """The full logical dataset, decoded from one replica's units."""
    parts = [
        replica.read_partition(pid)
        for pid in range(replica.n_partitions)
        if replica.unit_keys[pid] is not None
    ]
    if not parts:
        return Dataset.empty()
    return Dataset.concat(parts).sorted_by_time()


def repair_partition(
    damaged: StoredReplica,
    partition_id: int,
    source: StoredReplica,
) -> int:
    """Restore one storage unit of ``damaged`` from ``source``.

    Runs the damaged partition's box as a range query against ``source``
    and keeps the records the canonical placement rule assigns to this
    partition.  Returns the number of records restored.  Raises
    :class:`RecoveryError` when the restored count contradicts the
    damaged replica's partition counts (metadata is authoritative).
    """
    if not (0 <= partition_id < damaged.n_partitions):
        raise ValueError(f"partition id {partition_id} out of range")
    box = Box3(*damaged.partitioning.box_array[partition_id])

    # One range query against the diverse source replica, filtered to the
    # canonically-owned records (boundary ties go to the upper neighbour).
    candidates = []
    for pid in source.involved_partitions(box):
        records = source.read_partition(int(pid)).filter_box(box)
        if len(records):
            candidates.append(records.take(
                canonical_mask(damaged.partitioning, records, partition_id)
            ))
    recovered = Dataset.concat(candidates) if candidates else Dataset.empty()

    expected = int(damaged.partitioning.counts[partition_id])
    if len(recovered) != expected:
        raise RecoveryError(
            f"partition {partition_id}: recovered {len(recovered)} records, "
            f"metadata says {expected}"
        )

    key = damaged.unit_keys[partition_id]
    if key is None:
        if expected != 0:
            raise RecoveryError(
                f"partition {partition_id} has no unit key but {expected} records"
            )
        return 0
    blob = damaged.encoding.encode(recovered.sorted_by_time())
    try:
        damaged.store.delete(key)
    except KeyError:
        pass  # the unit may be missing entirely — that's the damage
    damaged.store.put(key, blob)
    return len(recovered)


def repair_partition_any(
    damaged: StoredReplica,
    partition_id: int,
    sources: list[StoredReplica],
) -> str:
    """Restore one unit from the first source replica able to serve it.

    Sources are tried in order; a source that fails mid-repair (its own
    units are damaged or fault-injected, or it disagrees with the
    damaged replica's metadata) is skipped.  Returns the name of the
    source that succeeded; raises :class:`RecoveryError` carrying every
    per-source failure when none could.
    """
    if not sources:
        raise RecoveryError(
            f"partition {partition_id}: no source replicas to repair from"
        )
    others = [source for source in sources if source.name != damaged.name]
    if not others:
        # Every candidate is the damaged replica itself — a distinct
        # condition from "all sources tried and failed": nothing was
        # tried, because a replica cannot repair itself from itself.
        raise RecoveryError(
            f"partition {partition_id}: no source replicas other than the "
            f"damaged replica {damaged.name!r} itself to repair from"
        )
    failures: list[str] = []
    for source in others:
        try:
            repair_partition(damaged, partition_id, source)
            return source.name
        except Exception as exc:  # noqa: BLE001 — every source failure is recorded
            failures.append(f"{source.name}: {exc}")
    raise RecoveryError(
        f"partition {partition_id}: every source replica failed ["
        + "; ".join(failures) + "]"
    )


def repair_replica(
    damaged: StoredReplica,
    partition_ids: list[int],
    source: StoredReplica,
) -> int:
    """Repair several damaged units; returns total records restored.

    Repairs are independent (canonical placement needs nothing from
    neighbour units), so any subset — including every unit at once — can
    be restored in any order.
    """
    return sum(repair_partition(damaged, pid, source) for pid in partition_ids)
