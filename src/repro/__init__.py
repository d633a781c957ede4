"""BLOT: diverse replicas for big location tracking data.

A full reproduction of Ding, Tan, Luo and Ni, *"Exploring the Use of
Diverse Replicas for Big Location Tracking Data"* (ICDCS 2014): the BLOT
storage abstraction (spatio-temporal partitioning + per-partition
encoding + scan-based range queries), the query cost model, and the
replica selection problem with exact and greedy solvers.

Quickstart::

    import numpy as np
    from repro import (
        AdvisorConfig, ReplicaAdvisor, cost_model_for, make_cluster,
        paper_encoding_schemes, paper_workload, small_partitioning_schemes,
        synthetic_shanghai_taxis,
    )

    sample = synthetic_shanghai_taxis(20_000)
    cluster = make_cluster("amazon-s3-emr")
    model = cost_model_for(cluster, [s.name for s in paper_encoding_schemes()])
    advisor = ReplicaAdvisor(
        sample, small_partitioning_schemes(), paper_encoding_schemes(),
        model, AdvisorConfig(n_records=65_000_000),
    )
    workload = paper_workload(advisor.universe)
    report = advisor.recommend(
        workload, advisor.single_replica_budget(workload), method="exact",
    )
    print(report.replica_names, report.speedup_vs_single)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.cluster import (
    EMR_S3,
    ENVIRONMENTS,
    LOCAL_HADOOP,
    SimulatedCluster,
    calibrate_environment,
    cost_model_for,
    make_cluster,
    simulate_query,
    simulate_routed_query,
)
from repro.core import (
    AdvisorConfig,
    ReplicaAdvisor,
    Selection,
    SelectionInstance,
    SelectionReport,
    branch_and_bound_select,
    brute_force_select,
    build_mip,
    greedy_select,
    local_search_select,
    prune_dominated,
    reduce_workload,
    solve_mip,
)
from repro.costmodel import (
    CostModel,
    EncodingCostParams,
    ReplicaProfile,
    RoutingPlan,
    batch_expected_partitions,
    calibrate_encoding,
    expected_partitions,
    fit_cost_params,
    measure_encoding_ratios,
)
from repro.data import Dataset, FleetConfig, TaxiFleetGenerator, synthetic_shanghai_taxis
from repro.errors import (
    InjectedFault,
    OverloadError,
    QuotaExceededError,
    ReplicaExists,
)
from repro.encoding import (
    EncodingScheme,
    all_encoding_schemes,
    encoding_scheme_by_name,
    measure_compression_ratio,
    paper_encoding_schemes,
)
from repro.geometry import Box3, Point3
from repro.obs import (
    Checkpointer,
    DriftMonitor,
    DriftStatus,
    MetricsRegistry,
    Observability,
    Recalibrator,
    TimeseriesStore,
    TraceRecorder,
    build_report,
)
from repro.partition import (
    CompositeScheme,
    GridPartitioner,
    KdTreePartitioner,
    TemporalSlicer,
    paper_partitioning_schemes,
    small_partitioning_schemes,
)
from repro.serve import (
    FleetReport,
    FleetSpec,
    QuotaConfig,
    ShardServer,
    TenantQuotas,
    run_fleet,
)
from repro.storage import (
    BlotStore,
    DegradedReadError,
    DirectoryStore,
    ExecOptions,
    FaultInjector,
    FaultSpec,
    InMemoryStore,
    PartitionCache,
    PartitionReadError,
    QueryResult,
    QueryStats,
    ReplicaRef,
    StoreConfig,
    WorkloadResult,
    WorkloadStats,
    build_replica,
    materialize_store,
    open_store,
)
from repro.workload import (
    GroupedQuery,
    Query,
    Workload,
    grouped_random_workload,
    paper_workload,
    positioned_random_workload,
)

__version__ = "1.0.0"

__all__ = [
    "AdvisorConfig",
    "BlotStore",
    "Box3",
    "Checkpointer",
    "CompositeScheme",
    "CostModel",
    "Dataset",
    "DegradedReadError",
    "DirectoryStore",
    "DriftMonitor",
    "DriftStatus",
    "EMR_S3",
    "ENVIRONMENTS",
    "EncodingCostParams",
    "EncodingScheme",
    "ExecOptions",
    "FaultInjector",
    "FaultSpec",
    "FleetConfig",
    "FleetReport",
    "FleetSpec",
    "GridPartitioner",
    "GroupedQuery",
    "InMemoryStore",
    "InjectedFault",
    "OverloadError",
    "PartitionCache",
    "PartitionReadError",
    "QueryResult",
    "QueryStats",
    "QuotaConfig",
    "QuotaExceededError",
    "KdTreePartitioner",
    "LOCAL_HADOOP",
    "MetricsRegistry",
    "Observability",
    "Point3",
    "Query",
    "Recalibrator",
    "ReplicaExists",
    "ReplicaRef",
    "ReplicaAdvisor",
    "ReplicaProfile",
    "RoutingPlan",
    "Selection",
    "SelectionInstance",
    "SelectionReport",
    "ShardServer",
    "SimulatedCluster",
    "StoreConfig",
    "TaxiFleetGenerator",
    "TenantQuotas",
    "TemporalSlicer",
    "TimeseriesStore",
    "TraceRecorder",
    "Workload",
    "WorkloadResult",
    "WorkloadStats",
    "all_encoding_schemes",
    "batch_expected_partitions",
    "branch_and_bound_select",
    "brute_force_select",
    "build_mip",
    "build_replica",
    "build_report",
    "calibrate_encoding",
    "calibrate_environment",
    "cost_model_for",
    "encoding_scheme_by_name",
    "expected_partitions",
    "fit_cost_params",
    "greedy_select",
    "local_search_select",
    "grouped_random_workload",
    "make_cluster",
    "materialize_store",
    "measure_compression_ratio",
    "measure_encoding_ratios",
    "open_store",
    "run_fleet",
    "paper_encoding_schemes",
    "paper_partitioning_schemes",
    "paper_workload",
    "positioned_random_workload",
    "prune_dominated",
    "reduce_workload",
    "simulate_query",
    "simulate_routed_query",
    "small_partitioning_schemes",
    "solve_mip",
    "synthetic_shanghai_taxis",
]
