"""Process-safe store configuration: the picklable twin of ``BlotStore``.

A :class:`BlotStore` entangles live handles — mmap views over storage
units, a persistent scan thread pool, telemetry recorders — none of
which can cross a process boundary.  The serving tier
(:mod:`repro.serve`) needs every ``spawn``-started shard worker to open
*the same* store the parent routes against, so this module splits the
store into the two halves the paper's architecture implies:

- durable state on disk (the dataset file, each replica's manifest and
  storage units), described by plain-data references; and
- a recipe for the live handles (cache budget, cost-model constants,
  fault schedule, observability), described by plain-data settings.

:class:`StoreConfig` is that description: a frozen dataclass of paths
and scalars that pickles in a few hundred bytes.  ``open_store(config)``
(or :func:`hydrate_store`) rebuilds a fully functional store from it in
any process.  Two stores hydrated from one config answer every query
bit-identically: the dataset round-trips losslessly (``.npz``; CSV is
accepted for pre-existing data), replicas reopen from manifests with
CRC-checked units, and the fault schedule is seed-deterministic.

:func:`materialize_store` is the write-side: given a dataset and replica
specs it lays everything out under one root directory and returns the
config — the one-call path the CLI, tests and CI use to stage a store
that workers can rehydrate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.costmodel.model import CostModel, EncodingCostParams
from repro.data.dataset import Dataset
from repro.obs import Observability
from repro.storage.faults import FaultInjector


@dataclass(frozen=True, slots=True)
class ReplicaRef:
    """A durable reference to one stored replica.

    ``manifest_path`` names the replica's JSON manifest;
    ``store_root`` the location of its storage units — a directory
    (:class:`~repro.storage.unit.DirectoryStore`) or, with
    ``store_kind="segment"``, a single segment file
    (:class:`~repro.storage.unit.SegmentFileStore`).
    """

    manifest_path: str
    store_root: str
    store_kind: str = "directory"

    def __post_init__(self) -> None:
        if self.store_kind not in ("directory", "segment"):
            raise ValueError(
                f"store_kind must be 'directory' or 'segment', "
                f"got {self.store_kind!r}"
            )


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """A deterministic fault schedule as plain data.

    Hydration builds a :class:`~repro.storage.faults.FaultInjector`
    from it, so every process hydrating the same config injects the
    exact same faults — the property the serving tier's bit-equality
    guarantee under failure rests on.
    """

    seed: int = 0
    partition_fail_rate: float = 0.0
    slow_seconds: float = 0.0
    fail_replicas: tuple[str, ...] = ()
    #: Explicit persistent single-unit failures: (replica_name, pid).
    fail_partitions: tuple[tuple[str, int], ...] = ()

    def build(self) -> FaultInjector:
        injector = FaultInjector(
            seed=self.seed,
            partition_fail_rate=self.partition_fail_rate,
            slow_seconds=self.slow_seconds,
        )
        for name in self.fail_replicas:
            injector.fail_replica(name)
        for name, pid in self.fail_partitions:
            injector.fail_partition(name, pid)
        return injector


@dataclass(frozen=True, slots=True)
class StoreConfig:
    """Everything needed to open one BLOT store, as picklable plain data.

    - ``dataset_path``: the source records — ``.npz`` (lossless, the
      preferred interchange written by :func:`materialize_store`) or
      ``.csv``.
    - ``replicas``: one :class:`ReplicaRef` per stored replica.
    - ``cost_params``: Eq. 6 constants per encoding name as
      ``(name, scan_rate, extra_time)`` triples; empty means no cost
      model (single-replica stores, or callers that always pin).
    - ``cache_bytes``: decoded-partition cache budget (None disables).
    - ``faults``: a :class:`FaultSpec`, or None for a healthy store.
    - ``observability``: attach a fresh telemetry bundle on hydration.
    """

    dataset_path: str
    replicas: tuple[ReplicaRef, ...] = ()
    csv_has_header: bool = False
    cost_params: tuple[tuple[str, float, float], ...] = ()
    cache_bytes: int | None = None
    faults: FaultSpec | None = None
    observability: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicas", tuple(self.replicas))
        object.__setattr__(self, "cost_params", tuple(self.cost_params))
        if self.cache_bytes is not None and self.cache_bytes <= 0:
            raise ValueError("cache_bytes must be positive (or None)")

    # -- hydration ---------------------------------------------------------

    def load_dataset(self) -> Dataset:
        """Load the dataset file (format chosen by extension)."""
        if self.dataset_path.endswith(".npz"):
            return Dataset.from_npz(self.dataset_path)
        from repro.data.csvio import dataset_from_csv

        return dataset_from_csv(self.dataset_path, header=self.csv_has_header)

    def build_cost_model(self) -> CostModel | None:
        if not self.cost_params:
            return None
        return CostModel({
            name: EncodingCostParams(scan_rate=rate, extra_time=extra)
            for name, rate, extra in self.cost_params
        })


def _open_unit_store(ref: ReplicaRef):
    from repro.storage.unit import DirectoryStore, SegmentFileStore

    if ref.store_kind == "segment":
        # SegmentFileStore.__init__ truncates its backing file and the
        # offset table lives only in memory; reopening one from disk
        # needs a durable offset table we do not persist yet.
        raise NotImplementedError(
            "segment-backed replicas cannot be reopened from a ReplicaRef "
            "yet; use store_kind='directory'"
        )
    return DirectoryStore(ref.store_root)


def hydrate_store(config: StoreConfig, replica_transform=None):
    """Open a fully live :class:`~repro.storage.BlotStore` from a config.

    Safe to call in any process; this is what ``open_store(config)``
    and every serving-tier shard worker run after ``spawn``.

    ``replica_transform``, when given, maps each reopened
    :class:`~repro.storage.replica.StoredReplica` before registration —
    the hook shard workers use to mask the unit keys they do not own
    (:meth:`repro.cluster.ShardAssignment.mask_replica`).
    """
    from repro.storage.engine import BlotStore
    from repro.storage.manifest import load_replica

    dataset = config.load_dataset()
    store = BlotStore(
        dataset,
        cost_model=config.build_cost_model(),
        cache_bytes=config.cache_bytes,
        fault_injector=config.faults.build() if config.faults else None,
        observability=Observability.create() if config.observability else None,
    )
    for ref in config.replicas:
        replica = load_replica(ref.manifest_path, _open_unit_store(ref))
        if replica_transform is not None:
            replica = replica_transform(replica)
        store.register_replica(replica)
    return store


#: Default Eq. 6 constants per encoding scheme, used by
#: :func:`materialize_store` when the caller supplies none.  Fixed
#: plausible values (heavier compression scans slower, costs more setup
#: per partition) rather than a calibration run: every process hydrates
#: the identical model, deterministically, with zero startup cost.
DEFAULT_COST_PARAMS = (
    ("ROW-PLAIN", 5.0e6, 0.0020),
    ("ROW-SNAPPY", 4.0e6, 0.0022),
    ("ROW-GZIP", 2.2e6, 0.0030),
    ("ROW-LZMA2", 1.2e6, 0.0045),
    ("COL-PLAIN", 6.0e6, 0.0020),
    ("COL-SNAPPY", 4.5e6, 0.0022),
    ("COL-GZIP", 2.5e6, 0.0030),
    ("COL-LZMA2", 1.4e6, 0.0045),
)


def materialize_store(
    dataset: Dataset,
    replica_specs,
    root: str,
    *,
    cost_params: tuple[tuple[str, float, float], ...] | None = None,
    cache_bytes: int | None = None,
    faults: FaultSpec | None = None,
    observability: bool = False,
) -> StoreConfig:
    """Write a dataset + replica set under ``root`` and return the
    :class:`StoreConfig` describing it.

    ``replica_specs`` is an iterable of ``(scheme, encoding)`` or
    ``(scheme, encoding, name)`` tuples; each replica is built into a
    :class:`~repro.storage.unit.DirectoryStore` under
    ``root/units/<name>`` with its manifest at
    ``root/manifests/<name>.json``.  ``cost_params`` defaults to entries
    of :data:`DEFAULT_COST_PARAMS` covering the encodings actually used
    (plus any per-partition encodings recorded in the manifests).
    """
    from repro.storage.manifest import save_manifest
    from repro.storage.replica import build_replica
    from repro.storage.unit import DirectoryStore

    manifest_dir = os.path.join(root, "manifests")
    os.makedirs(manifest_dir, exist_ok=True)
    dataset_path = os.path.join(root, "dataset.npz")
    dataset.to_npz(dataset_path)

    universe = dataset.bounding_box()
    refs = []
    encodings_used: set[str] = set()
    for spec in replica_specs:
        scheme, encoding, *rest = spec
        name = rest[0] if rest else None
        store_root = os.path.join(root, "units")
        store = DirectoryStore(store_root)
        replica = build_replica(dataset, scheme, encoding, store,
                                name=name, universe=universe)
        manifest_path = os.path.join(manifest_dir, f"{replica.name}.json")
        # A default replica name is "<scheme>/<encoding>": a subdirectory.
        os.makedirs(os.path.dirname(manifest_path), exist_ok=True)
        manifest = save_manifest(replica, manifest_path)
        for unit in manifest["units"]:
            if unit is not None:
                encodings_used.add(unit["encoding"])
        encodings_used.add(manifest["encoding"])
        refs.append(ReplicaRef(manifest_path=manifest_path,
                               store_root=store_root))

    if cost_params is None:
        defaults = {name: (rate, extra)
                    for name, rate, extra in DEFAULT_COST_PARAMS}
        missing = encodings_used - set(defaults)
        if missing:
            raise ValueError(
                f"no default cost params for encodings {sorted(missing)}; "
                "pass cost_params= explicitly"
            )
        cost_params = tuple(
            (name, *defaults[name]) for name in sorted(encodings_used))

    return StoreConfig(
        dataset_path=dataset_path,
        replicas=tuple(refs),
        cost_params=cost_params,
        cache_bytes=cache_bytes,
        faults=faults,
        observability=observability,
    )


# -- JSON interchange -------------------------------------------------------


def store_config_to_dict(config: StoreConfig) -> dict:
    """A :class:`StoreConfig` as JSON-serializable plain data.

    The ingest store persists its sealed-window configs inside the WAL's
    ``snapshot.json`` commit record with this; :func:`store_config_from_dict`
    round-trips it exactly.
    """
    return {
        "dataset_path": config.dataset_path,
        "replicas": [
            {"manifest_path": r.manifest_path, "store_root": r.store_root,
             "store_kind": r.store_kind}
            for r in config.replicas
        ],
        "csv_has_header": config.csv_has_header,
        "cost_params": [list(t) for t in config.cost_params],
        "cache_bytes": config.cache_bytes,
        "faults": None if config.faults is None else {
            "seed": config.faults.seed,
            "partition_fail_rate": config.faults.partition_fail_rate,
            "slow_seconds": config.faults.slow_seconds,
            "fail_replicas": list(config.faults.fail_replicas),
            "fail_partitions": [list(p) for p in config.faults.fail_partitions],
        },
        "observability": config.observability,
    }


def store_config_from_dict(data: dict) -> StoreConfig:
    """Rebuild a :class:`StoreConfig` from :func:`store_config_to_dict`."""
    faults = data.get("faults")
    return StoreConfig(
        dataset_path=data["dataset_path"],
        replicas=tuple(ReplicaRef(**r) for r in data["replicas"]),
        csv_has_header=bool(data.get("csv_has_header", False)),
        cost_params=tuple(
            (str(n), float(a), float(b)) for n, a, b in data["cost_params"]),
        cache_bytes=data.get("cache_bytes"),
        faults=None if faults is None else FaultSpec(
            seed=int(faults["seed"]),
            partition_fail_rate=float(faults["partition_fail_rate"]),
            slow_seconds=float(faults["slow_seconds"]),
            fail_replicas=tuple(faults["fail_replicas"]),
            fail_partitions=tuple(
                (str(name), int(pid)) for name, pid in faults["fail_partitions"]),
        ),
        observability=bool(data.get("observability", False)),
    )


# -- ingesting-store hydration ----------------------------------------------


def parse_scheme_spec(spec: str):
    """Parse a plain-string partitioning recipe into a scheme object.

    Grammar (the picklable description :class:`IngestConfig` carries)::

        grid:<nx>x<ny>            uniform spatial grid
        kd:<leaves>               equal-count k-d tree
        <spatial>/t:<slices>      composite: spatial cells x equi-depth
                                  temporal slices, e.g. ``kd:16/t:4``
    """
    from repro.partition import (
        CompositeScheme,
        GridPartitioner,
        KdTreePartitioner,
    )

    spatial_spec, _, time_spec = spec.partition("/")
    kind, _, arg = spatial_spec.partition(":")
    if kind == "grid":
        nx, _, ny = arg.partition("x")
        spatial = GridPartitioner(int(nx), int(ny or nx))
    elif kind == "kd":
        spatial = KdTreePartitioner(int(arg))
    else:
        raise ValueError(
            f"unknown partitioning spec {spec!r} (want 'grid:<nx>x<ny>' or "
            f"'kd:<leaves>', optionally '/t:<slices>')"
        )
    if time_spec:
        prefix, _, slices = time_spec.partition(":")
        if prefix != "t":
            raise ValueError(f"bad temporal suffix in {spec!r}")
        return CompositeScheme(spatial, int(slices))
    return spatial


@dataclass(frozen=True, slots=True)
class IngestConfig:
    """Everything needed to host one always-on ingesting store, as
    picklable plain data — the :class:`StoreConfig` analogue for the
    write path, so the serve tier (or any other process) can hydrate an
    :class:`~repro.storage.ingest.IngestingBlotStore` over a shared WAL
    directory.

    ``replica_specs`` are ``(scheme_spec, encoding_name, name)`` triples
    where ``scheme_spec`` follows :func:`parse_scheme_spec`'s grammar;
    ``cost_params`` mirror :class:`StoreConfig`.  Durable state lives
    under ``wal_dir`` (WAL segments, the compaction snapshot, sealed
    windows); :func:`hydrate_ingest_store` resumes from it when present.
    """

    wal_dir: str
    replica_specs: tuple[tuple[str, str, str | None], ...]
    cost_params: tuple[tuple[str, float, float], ...] = ()
    auto_compact_at: int | None = None
    background_compaction: bool = True
    window_seconds: float | None = None
    anti_entropy_interval: float | None = None
    fsync_wal: bool = False
    observability: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "replica_specs",
                           tuple(tuple(s) for s in self.replica_specs))
        object.__setattr__(self, "cost_params", tuple(self.cost_params))
        if not self.replica_specs:
            raise ValueError("need at least one replica spec")

    def build_specs(self) -> list:
        from repro.encoding import encoding_scheme_by_name
        from repro.storage.ingest import ReplicaSpec

        return [
            ReplicaSpec(parse_scheme_spec(scheme),
                        encoding_scheme_by_name(encoding), name=name)
            for scheme, encoding, name in self.replica_specs
        ]

    def build_cost_model(self) -> CostModel | None:
        if not self.cost_params:
            return None
        return CostModel({
            name: EncodingCostParams(scan_rate=rate, extra_time=extra)
            for name, rate, extra in self.cost_params
        })


def hydrate_ingest_store(config: IngestConfig, initial: Dataset | None = None):
    """Open a live :class:`~repro.storage.ingest.IngestingBlotStore`
    from plain data.

    When ``config.wal_dir`` already holds WAL state (a snapshot or
    segments from an earlier process), the store is recovered from it —
    crash-safe resume, ``initial`` ignored.  Otherwise a fresh store is
    created, which requires ``initial`` records.
    """
    from repro.storage.ingest import IngestingBlotStore
    from repro.storage.wal import wal_state_exists

    kwargs = dict(
        cost_model=config.build_cost_model(),
        auto_compact_at=config.auto_compact_at,
        wal_dir=config.wal_dir,
        fsync_wal=config.fsync_wal,
        background_compaction=config.background_compaction,
        window_seconds=config.window_seconds,
        anti_entropy_interval=config.anti_entropy_interval,
        observability=Observability.create() if config.observability else None,
    )
    specs = config.build_specs()
    if wal_state_exists(config.wal_dir):
        return IngestingBlotStore.open(config.wal_dir, specs, **{
            k: v for k, v in kwargs.items() if k != "wal_dir"})
    if initial is None:
        raise ValueError(
            f"{config.wal_dir!r} holds no WAL state and no initial dataset "
            "was supplied; pass initial= for the first open"
        )
    return IngestingBlotStore(initial, specs, **kwargs)
