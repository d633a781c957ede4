"""The BLOT storage engine: storage units, replicas, query processing."""

from repro.errors import (
    DegradedReadError,
    InjectedFault,
    PartitionReadError,
    ReplicaExists,
)
from repro.storage.cache import CacheStats, PartitionCache
from repro.storage.config import (
    FaultSpec,
    ReplicaRef,
    StoreConfig,
    hydrate_store,
    materialize_store,
    parse_scheme_spec,
    store_config_from_dict,
    store_config_to_dict,
)
from repro.storage.engine import BlotStore, open_store
from repro.storage.faults import FaultInjector, FaultStats
from repro.storage.options import DEFAULT_EXEC_OPTIONS, ExecOptions
from repro.storage.manifest import (
    build_manifest,
    load_replica,
    save_manifest,
    verify_replica,
)
from repro.storage.reads import (
    QueryResult,
    QueryStats,
    WorkloadResult,
    WorkloadStats,
)
from repro.storage.recovery import (
    RecoveryError,
    recover_dataset,
    repair_partition,
    repair_partition_any,
    repair_replica,
)
from repro.storage.ingest import (
    IngestingBlotStore,
    ReplicaSpec,
    SealedWindow,
)
from repro.storage.replica import StoredReplica, build_replica
from repro.storage.wal import (
    WalError,
    WriteAheadLog,
    wal_state_exists,
)
from repro.storage.unit import (
    DirectoryStore,
    DuplicateUnit,
    InMemoryStore,
    UnitNotFound,
    UnitStore,
)

__all__ = [
    "BlotStore",
    "CacheStats",
    "DEFAULT_EXEC_OPTIONS",
    "DegradedReadError",
    "FaultSpec",
    "ReplicaRef",
    "StoreConfig",
    "hydrate_store",
    "materialize_store",
    "parse_scheme_spec",
    "store_config_from_dict",
    "store_config_to_dict",
    "DirectoryStore",
    "DuplicateUnit",
    "ExecOptions",
    "FaultInjector",
    "FaultStats",
    "InMemoryStore",
    "IngestingBlotStore",
    "InjectedFault",
    "PartitionCache",
    "PartitionReadError",
    "ReplicaSpec",
    "SealedWindow",
    "WalError",
    "WriteAheadLog",
    "wal_state_exists",
    "QueryResult",
    "QueryStats",
    "RecoveryError",
    "ReplicaExists",
    "StoredReplica",
    "UnitNotFound",
    "UnitStore",
    "WorkloadResult",
    "WorkloadStats",
    "build_manifest",
    "build_replica",
    "load_replica",
    "open_store",
    "recover_dataset",
    "repair_partition",
    "repair_partition_any",
    "repair_replica",
    "save_manifest",
    "verify_replica",
]
