"""The sharded multi-worker serving tier (ROADMAP: production-scale BLOT).

``repro.serve`` turns the single-process engine into a deployment shape:
the replica set is sharded across worker processes
(:class:`~repro.cluster.ShardAssignment`), an asyncio front door
(:class:`ShardServer`) coalesces concurrent range queries into batched
``execute_each`` calls per shard (:class:`Batcher`), admission
control and per-tenant quotas shed load with structured errors
(:class:`AdmissionController`, :class:`TenantQuotas`), and a simulated
fleet (:func:`run_fleet`) provides the mixed read traffic.

With ``ShardServer(tracing=True)`` the tier is end-to-end traceable:
request/batch/dispatch spans at the front door, a
:class:`~repro.obs.distributed.TraceContext` on every
:class:`ShardRequest` frame, and per-worker span streams collected by
:class:`TraceRequest` that
:func:`~repro.obs.distributed.stitch_traces` reassembles into one tree
per request.  Request latencies feed mergeable quantile sketches and
an optional per-tenant :class:`~repro.obs.SLOEngine`.

The enabling API is :class:`~repro.storage.StoreConfig`: a picklable
store recipe every ``spawn``-started worker rehydrates with
``open_store(config)`` — no mmap view or recorder ever crosses a
process boundary.  See ``docs/serving.md``.
"""

from repro.serve.admission import AdmissionController, QuotaConfig, TenantQuotas
from repro.serve.batcher import Batcher
from repro.serve.fleet import FleetReport, FleetSpec, fleet_queries, run_fleet
from repro.serve.protocol import (
    MetricsRequest,
    MetricsResponse,
    QueryTask,
    Ready,
    ShardRequest,
    ShardResponse,
    TraceRequest,
    TraceResponse,
    concat_payloads,
    dataset_to_payload,
)
from repro.serve.server import WORKER_MODES, ShardServer
from repro.serve.worker import shard_worker_main

__all__ = [
    "AdmissionController",
    "Batcher",
    "FleetReport",
    "FleetSpec",
    "MetricsRequest",
    "MetricsResponse",
    "QueryTask",
    "QuotaConfig",
    "Ready",
    "ShardRequest",
    "ShardResponse",
    "ShardServer",
    "TenantQuotas",
    "TraceRequest",
    "TraceResponse",
    "WORKER_MODES",
    "concat_payloads",
    "dataset_to_payload",
    "fleet_queries",
    "run_fleet",
    "shard_worker_main",
]
