"""Replica manifests: persistence and integrity metadata.

A manifest is the small JSON descriptor a BLOT system keeps next to a
replica's storage units (the durable sibling of the in-memory
partitioning index): partition geometry, per-unit keys, record counts
and CRC-32 checksums.  It lets a replica be reopened without the source
dataset and lets damage (missing units, flipped bits) be detected before
queries return wrong answers.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

from repro.encoding.base import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition.base import Partitioning
from repro.storage.replica import StoredReplica
from repro.storage.unit import UnitNotFound, UnitStore

_FORMAT_VERSION = 1


def build_manifest(replica: StoredReplica) -> dict:
    """The JSON-serializable manifest of a stored replica."""
    units = []
    for pid, key in enumerate(replica.unit_keys):
        if key is None:
            units.append(None)
            continue
        blob = replica.store.get(key)
        units.append({
            "key": key,
            "bytes": len(blob),
            "crc32": zlib.crc32(blob) & 0xFFFFFFFF,
            "records": int(replica.partitioning.counts[pid]),
        })
    return {
        "format_version": _FORMAT_VERSION,
        "name": replica.name,
        "scheme_name": replica.partitioning.scheme_name,
        "encoding": replica.encoding.name,
        "universe": list(replica.partitioning.universe.as_tuple()),
        "boxes": replica.partitioning.box_array.tolist(),
        "counts": replica.partitioning.counts.tolist(),
        "units": units,
    }


def save_manifest(replica: StoredReplica, path: str) -> dict:
    """Write the manifest JSON to ``path``; returns the manifest dict."""
    manifest = build_manifest(replica)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(manifest))
    return manifest


def load_replica(manifest: dict | str, store: UnitStore) -> StoredReplica:
    """Reopen a replica from its manifest (dict or JSON file path) and the
    store holding its units.  No data is decoded; integrity is checked
    separately with :func:`verify_replica`."""
    if isinstance(manifest, str):
        with open(manifest, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported manifest version {manifest.get('format_version')!r}"
        )
    partitioning = Partitioning.from_boxes(
        scheme_name=manifest["scheme_name"],
        universe=Box3(*manifest["universe"]),
        box_array=np.array(manifest["boxes"], dtype=np.float64),
        counts=np.array(manifest["counts"], dtype=np.int64),
    )
    unit_keys = tuple(
        None if unit is None else unit["key"] for unit in manifest["units"]
    )
    encoding = encoding_scheme_by_name(manifest["encoding"])
    for pid, unit in enumerate(manifest["units"]):
        named = (unit or {}).get("encoding", encoding.name)
        if named != encoding.name:
            raise ValueError(
                f"replica {manifest['name']!r} partition {pid} names encoding "
                f"{named!r}, the manifest's is {encoding.name!r}"
            )
    return StoredReplica(
        name=manifest["name"],
        partitioning=partitioning,
        encoding=encoding,
        store=store,
        unit_keys=unit_keys,
    )


def verify_replica(replica: StoredReplica, manifest: dict) -> list[int]:
    """Return the partition ids whose storage units are damaged.

    A unit is damaged when it is missing from the store, its CRC-32 does
    not match the manifest, or its size changed.  Decoding is *not*
    attempted — CRC covers bit flips far more cheaply.  The sweep reads
    through :meth:`UnitStore.get_view`, so file-backed stores checksum
    straight out of the page cache instead of copying every blob onto the
    heap.
    """
    if manifest["name"] != replica.name:
        raise ValueError(
            f"manifest is for {manifest['name']!r}, replica is {replica.name!r}"
        )
    damaged = []
    for pid, unit in enumerate(manifest["units"]):
        if unit is None:
            continue
        try:
            blob = replica.store.get_view(unit["key"])
        except UnitNotFound:
            damaged.append(pid)
            continue
        if len(blob) != unit["bytes"] or (zlib.crc32(blob) & 0xFFFFFFFF) != unit["crc32"]:
            damaged.append(pid)
    return damaged
