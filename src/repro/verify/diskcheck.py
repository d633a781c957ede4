"""Oracle sweep over an on-disk store (the ``repro verify-store`` core).

Given a unit store and one manifest per replica, this module

1. CRC-checks every unit against its manifest (:func:`verify_replica`),
2. recovers the logical dataset from every replica and cross-checks that
   all replicas hold the *same* record multiset (any odd one out is a
   silently-corrupted replica — the failure CRC alone cannot catch when
   the manifest was regenerated after the damage),
3. runs a differential query sweep: every replica's on-disk decode path
   must answer every query bit-identically to the brute-force oracle.

Per-replica diffs are published through a
:class:`~repro.obs.MetricsRegistry` when one is supplied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.data.dataset import Dataset
from repro.geometry import Box3
from repro.storage.manifest import load_replica, verify_replica
from repro.storage.recovery import recover_dataset
from repro.storage.replica import StoredReplica
from repro.storage.unit import UnitStore
from repro.verify.oracle import (
    Mismatch,
    canonical,
    datasets_identical,
    diff_results,
    edge_pinned_boxes,
    oracle_answer,
    random_boxes,
)


@dataclass
class ReplicaDiskReport:
    """Integrity + content verdict for one on-disk replica."""

    name: str
    units: int
    damaged: tuple[int, ...]
    content_ok: bool
    read_errors: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.damaged and self.content_ok and not self.read_errors


@dataclass
class StoreVerification:
    """Outcome of :func:`verify_store`."""

    replicas: list[ReplicaDiskReport] = field(default_factory=list)
    mismatches: list[Mismatch] = field(default_factory=list)
    checks: int = 0
    n_queries: int = 0

    @property
    def ok(self) -> bool:
        return (not self.mismatches
                and all(r.ok for r in self.replicas))

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [f"store verification: {status} ({len(self.replicas)} "
                 f"replicas, {self.checks} checks, "
                 f"{self.n_queries} queries)"]
        for rep in self.replicas:
            verdict = "OK" if rep.ok else "DAMAGED"
            detail = []
            if rep.damaged:
                detail.append(f"CRC failures in units {list(rep.damaged)[:10]}")
            if not rep.content_ok:
                detail.append("content differs from the reference dataset")
            if rep.read_errors:
                detail.append(f"read errors: {rep.read_errors[:3]}")
            lines.append(f"  {rep.name}: {verdict}"
                         + (f" ({'; '.join(detail)})" if detail else
                            f" ({rep.units} units)"))
        lines.extend("  " + m.describe() for m in self.mismatches[:20])
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The outcome as JSON-ready data (``repro verify-store --json``)."""
        return {
            "ok": self.ok,
            "checks": self.checks,
            "queries": self.n_queries,
            "replicas": [
                {"name": r.name, "ok": r.ok, "units": r.units,
                 "damaged_units": list(r.damaged),
                 "content_ok": r.content_ok,
                 "read_errors": list(r.read_errors)}
                for r in self.replicas
            ],
            "mismatches": [m.describe() for m in self.mismatches],
        }


def _scan_replica(replica: StoredReplica, box: Box3) -> Dataset:
    """The raw on-disk read path: decode every involved unit, filter."""
    parts = []
    for pid in replica.involved_partitions(box):
        pid = int(pid)
        if replica.unit_keys[pid] is None:
            continue
        parts.append(replica.read_partition(pid).filter_box(box))
    return Dataset.concat(parts) if parts else Dataset.empty()


def verify_store(
    store: UnitStore,
    manifests: list[dict | str],
    n_queries: int = 12,
    seed: int = 7,
    reference: Dataset | None = None,
    metrics=None,
) -> StoreVerification:
    """Run the full oracle sweep against an on-disk store.

    ``reference`` supplies the ground-truth dataset when available
    (e.g. the original CSV); without it the replicas vouch for each
    other — the majority recovered dataset becomes the oracle, so a
    single corrupted replica is still caught.
    """
    if not manifests:
        raise ValueError("need at least one manifest")
    result = StoreVerification()

    loaded: list[tuple[StoredReplica, dict]] = []
    for manifest in manifests:
        if isinstance(manifest, str):
            with open(manifest, "r", encoding="utf-8") as f:
                manifest = json.load(f)
        loaded.append((load_replica(manifest, store), manifest))

    # Phase 1+2: CRC integrity, then logical-content recovery.
    recovered: list[Dataset | None] = []
    crc_damage: list[tuple[int, ...]] = []
    read_errors: list[tuple[str, ...]] = []
    for replica, manifest in loaded:
        damaged = tuple(verify_replica(replica, manifest))
        crc_damage.append(damaged)
        errors: list[str] = []
        try:
            recovered.append(canonical(recover_dataset(replica)))
        except Exception as err:  # damaged units may fail to decode
            recovered.append(None)
            errors.append(f"{type(err).__name__}: {err}")
        read_errors.append(tuple(errors))

    oracle_ds = reference
    if oracle_ds is None:
        # Majority vote over the recovered contents: group bit-identical
        # recoveries, take the largest group as ground truth.
        groups: list[list[int]] = []
        for i, ds in enumerate(recovered):
            if ds is None:
                continue
            for group in groups:
                if datasets_identical(recovered[group[0]], ds):
                    group.append(i)
                    break
            else:
                groups.append([i])
        if not groups:
            raise ValueError("no replica could be recovered; nothing to "
                             "verify against")
        groups.sort(key=len, reverse=True)
        oracle_ds = recovered[groups[0][0]]
    oracle_ds = canonical(oracle_ds)

    for idx, (replica, _) in enumerate(loaded):
        ds = recovered[idx]
        content_ok = ds is not None and datasets_identical(oracle_ds, ds)
        result.checks += 1
        result.replicas.append(ReplicaDiskReport(
            name=replica.name,
            units=sum(1 for k in replica.unit_keys if k is not None),
            damaged=crc_damage[idx],
            content_ok=content_ok,
            read_errors=read_errors[idx],
        ))
        if metrics is not None:
            metrics.counter("repro_verify_checks_total",
                            labels={"path": "recover"}).inc()
            if not content_ok or crc_damage[idx]:
                metrics.counter("repro_verify_mismatches_total",
                                labels={"path": "recover",
                                        "replica": replica.name}).inc()

    # Phase 3: the differential query sweep over the on-disk read path.
    boxes = random_boxes(oracle_ds, n_queries, seed)
    boxes.extend(edge_pinned_boxes(
        oracle_ds, loaded[0][0].partitioning.boxes()))
    result.n_queries = len(boxes)
    for replica, _ in loaded:
        for i, box in enumerate(boxes):
            want = oracle_answer(oracle_ds, box)
            result.checks += 1
            if metrics is not None:
                metrics.counter("repro_verify_checks_total",
                                labels={"path": "disk-scan"}).inc()
            try:
                got = _scan_replica(replica, box)
            except Exception:  # decode failure on a damaged unit
                got = Dataset.empty()
            diff = diff_results(want, got)
            if diff is None:
                continue
            result.mismatches.append(Mismatch(
                path="disk-scan", replica=replica.name, query_index=i,
                box=box, diff=diff))
            if metrics is not None:
                metrics.counter("repro_verify_mismatches_total",
                                labels={"path": "disk-scan",
                                        "replica": replica.name}).inc()

    if metrics is not None:
        metrics.gauge("repro_verify_ok").set(1.0 if result.ok else 0.0)
    return result
