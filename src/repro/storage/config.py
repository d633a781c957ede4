"""Process-safe store configuration: the picklable twin of ``BlotStore``.

A :class:`BlotStore` entangles live handles — mmap views over storage
units, telemetry recorders — neither of which can cross a process
boundary.  The serving tier
(:mod:`repro.serve`) needs every ``spawn``-started shard worker to open
*the same* store the parent routes against, so this module splits the
store into the two halves the paper's architecture implies:

- durable state on disk (each replica's manifest and storage units,
  optionally the raw dataset file), described by plain-data references;
  and
- a recipe for the live handles (cache budget, cost-model constants,
  fault schedule, observability), described by plain-data settings.

:class:`StoreConfig` is that description: a frozen dataclass of paths
and scalars that pickles in a few hundred bytes.  ``open_store(config)``
(or :func:`hydrate_store`) rebuilds a fully functional store from it in
any process.  Two stores hydrated from one config answer every query
bit-identically: replicas reopen from manifests with CRC-checked units,
and the fault schedule is seed-deterministic.  Hydration reads no
records: a store's record count and universe come from the manifests,
and the raw dataset — a lossless ``.npz`` when the config names one,
otherwise recovered from a replica, since diverse replicas share one
logical view — is produced only when something asks for
``store.dataset``.

:func:`write_replica_set` is the write side: given a dataset and replica
specs it lays units and manifests out under one root directory — the
shape every layer of the ingest store has on disk.
:func:`materialize_store` is that plus a raw ``dataset.npz`` and cost
rows measured from the written units — the one-call path the CLI, tests
and CI use to stage a store that workers can rehydrate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.costmodel.calibrate import measure_cost_params
from repro.costmodel.model import CostModel, EncodingCostParams
from repro.data.dataset import Dataset
from repro.obs import Observability
from repro.storage.faults import FaultInjector


@dataclass(frozen=True, slots=True)
class ReplicaRef:
    """A durable reference to one stored replica.

    ``manifest_path`` names the replica's JSON manifest;
    ``store_root`` the :class:`~repro.storage.unit.DirectoryStore`
    directory holding its storage units.
    """

    manifest_path: str
    store_root: str

    def open(self):
        """Reopen the :class:`~repro.storage.replica.StoredReplica`
        (no unit is read)."""
        from repro.storage.manifest import load_replica
        from repro.storage.unit import DirectoryStore

        return load_replica(self.manifest_path,
                            DirectoryStore(self.store_root))


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

    - ``dataset_path``: the source records — the lossless ``.npz``
      :func:`materialize_store` writes — or ``None`` for a replica-only
      set, whose records are recovered from a replica on demand.
    - ``replicas``: one :class:`ReplicaRef` per stored replica.
    - ``cost_params``: Eq. 6 constants per encoding name as
      ``(name, scan_rate, extra_time)`` triples; empty means no cost
      model (single-replica stores, or callers that always pin).
    - ``cache_bytes``: decoded-partition cache budget (None disables).
    - ``faults``: a :class:`FaultSpec`, or None for a healthy store.
    - ``observability``: attach a fresh telemetry bundle on hydration.
    """

    dataset_path: str | None
    replicas: tuple[ReplicaRef, ...] = ()
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
        """The logical dataset: the ``.npz`` dataset file when there is
        one, else every unit of the first replica decoded
        (:func:`~repro.storage.recovery.recover_dataset`, time order)."""
        if self.dataset_path is None:
            from repro.storage.recovery import recover_dataset

            return recover_dataset(self.replicas[0].open())
        return Dataset.from_npz(self.dataset_path)

    def build_cost_model(self) -> CostModel | None:
        return cost_model_from_params(self.cost_params)


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

    store = BlotStore(
        config.load_dataset,
        cost_model=config.build_cost_model(),
        cache_bytes=config.cache_bytes,
        fault_injector=config.faults.build() if config.faults else None,
        observability=Observability.create() if config.observability else None,
    )
    for ref in config.replicas:
        replica = ref.open()
        if replica_transform is not None:
            replica = replica_transform(replica)
        store.register_replica(replica)
    return store


#: The hand-written Eq. 6 table stores routed with before they measured
#: their own rows.  Nothing in ``src/`` reads it: it stays only because
#: ``benchmarks/e2e/build.py`` imports it to price the advisor, and goes
#: when that import does.
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


def cost_model_from_params(
    cost_params: tuple[tuple[str, float, float], ...]
) -> CostModel | None:
    """The :class:`~repro.costmodel.CostModel` over ``(name, scan_rate,
    extra_time)`` triples — the plain-data form configs carry; ``None``
    for no triples."""
    if not cost_params:
        return None
    return CostModel({
        name: EncodingCostParams(scan_rate=rate, extra_time=extra)
        for name, rate, extra in cost_params
    })


def _replica_ref(root: str, name: str) -> ReplicaRef:
    return ReplicaRef(
        manifest_path=os.path.join(root, "manifests", f"{name}.json"),
        store_root=os.path.join(root, "units"))


def replica_set_config(root: str, names) -> StoreConfig:
    """The replica-only :class:`StoreConfig` of the set
    :func:`write_replica_set` lays out under ``root`` for replicas
    ``names``: manifests at ``root/manifests/<name>.json``, every
    replica's units in the one ``root/units`` directory store."""
    return StoreConfig(None, tuple(_replica_ref(root, n) for n in names))


def write_replica_set(dataset: Dataset, replica_specs, root: str) -> list[str]:
    """Build a replica set under ``root`` — units and manifests, no raw
    copy of ``dataset`` — and return the replica names, in spec order;
    :func:`replica_set_config` of them describes the set.

    ``replica_specs`` is an iterable of ``(scheme, encoding)`` or
    ``(scheme, encoding, name)`` tuples; every replica is built over the
    dataset's bounding box as universe.  Nothing is flushed: a caller
    that will delete the source records follows with
    :func:`repro.storage.wal.fsync_tree`.
    """
    from repro.storage.manifest import save_manifest
    from repro.storage.replica import build_replica
    from repro.storage.unit import DirectoryStore

    store = DirectoryStore(os.path.join(root, "units"))
    universe = dataset.bounding_box()
    names = []
    for scheme, encoding, *name in replica_specs:
        replica = build_replica(dataset, scheme, encoding, store,
                                name=name[0] if name else None,
                                universe=universe)
        manifest_path = _replica_ref(root, replica.name).manifest_path
        # A default replica name is "<scheme>/<encoding>": a subdirectory.
        os.makedirs(os.path.dirname(manifest_path), exist_ok=True)
        save_manifest(replica, manifest_path)
        names.append(replica.name)
    return names


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
    :class:`StoreConfig` describing it: :func:`write_replica_set` plus a
    lossless ``root/dataset.npz`` that keeps the caller's record order.

    ``cost_params`` defaults to cost rows measured from the written
    units (:func:`~repro.costmodel.calibrate.measure_cost_params`), one per
    encoding used; the config carries them, so every process hydrating
    it routes with the identical model and times nothing.
    """
    os.makedirs(root, exist_ok=True)
    dataset_path = os.path.join(root, "dataset.npz")
    dataset.to_npz(dataset_path)
    config = replica_set_config(
        root, write_replica_set(dataset, replica_specs, root))
    if cost_params is None:
        cost_params = measure_cost_params(
            [ref.open() for ref in config.replicas])
    return replace(
        config,
        dataset_path=dataset_path,
        cost_params=cost_params,
        cache_bytes=cache_bytes,
        faults=faults,
        observability=observability,
    )


# -- JSON interchange -------------------------------------------------------


def store_config_to_dict(config: StoreConfig) -> dict:
    """A :class:`StoreConfig` as JSON-serializable plain data.

    :func:`store_config_from_dict` round-trips it exactly.
    """
    return {
        "dataset_path": config.dataset_path,
        "replicas": [
            {"manifest_path": r.manifest_path, "store_root": r.store_root}
            for r in config.replicas
        ],
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
        replicas=tuple(ReplicaRef(r["manifest_path"], r["store_root"])
                       for r in data["replicas"]),
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


# -- partitioning recipes as strings ----------------------------------------


def parse_scheme_spec(spec: str):
    """Parse a plain-string partitioning recipe into a scheme object.

    Grammar (what ``repro ingest --scheme`` takes)::

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
