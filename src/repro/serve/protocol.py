"""The wire vocabulary between the serving front door and shard workers.

Everything crossing a worker pipe is plain picklable data: frozen
dataclasses of scalars, :class:`~repro.workload.query.Query` values and
numpy column payloads.  Result records travel as ``{field: ndarray}``
dicts (:func:`dataset_to_payload`) rather than :class:`Dataset` objects
so the protocol owns the representation — the arrays round-trip
bit-exactly through pickle, which is what keeps the sharded answer
bit-equal to the single-process one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.data.record import FIELD_NAMES
from repro.obs.distributed import TraceContext
from repro.workload.query import Query


def dataset_to_payload(dataset: Dataset) -> dict[str, np.ndarray]:
    """A dataset's columns as a plain picklable dict."""
    return dataset.columns


def _payload_to_dataset(payload: dict[str, np.ndarray]) -> Dataset:
    """Rebuild a dataset from a :func:`dataset_to_payload` dict."""
    return Dataset({name: payload[name] for name in FIELD_NAMES})


def concat_payloads(payloads) -> Dataset:
    """Union the per-shard partial results of one query (shard order)."""
    return Dataset.concat(_payload_to_dataset(p) for p in payloads)


@dataclass(frozen=True, slots=True)
class QueryTask:
    """One query of a batch, tagged with its batch-local index."""

    index: int
    query: Query


@dataclass(frozen=True, slots=True)
class ShardRequest:
    """Execute a batch of queries against one pinned replica.

    The front door routes once and pins ``replica`` for the whole
    fan-out; every shard answers the same queries from the same replica,
    so the per-shard partials union to the full result (ownership masks
    partition each replica exactly once across shards).

    ``trace`` carries the front door's dispatch-span context (plus the
    batch's earliest deadline) into the worker, so engine spans in the
    worker process parent under the originating request's trace instead
    of orphaning.  None when tracing is off — the frame costs nothing.
    """

    request_id: int
    replica: str
    tasks: tuple[QueryTask, ...]
    trace: TraceContext | None = None


@dataclass(frozen=True, slots=True)
class ShardResponse:
    """One shard's answer to a :class:`ShardRequest`.

    ``results`` maps task index to the shard's partial records payload;
    ``failures`` maps task index to a structured error string for
    queries this shard could not serve from the pinned replica.  A task
    index appears in exactly one of the two.
    """

    request_id: int
    shard_id: int
    results: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class MetricsRequest:
    """Ask a shard for its telemetry snapshot."""

    request_id: int


@dataclass(frozen=True, slots=True)
class MetricsResponse:
    request_id: int
    shard_id: int
    snapshot: dict


@dataclass(frozen=True, slots=True)
class TraceRequest:
    """Ask a shard for its retained trace spans (as plain dicts);
    ``clear`` drains the worker's ring buffer after the read so a
    periodic collector never double-counts."""

    request_id: int
    clear: bool = False


@dataclass(frozen=True, slots=True)
class TraceResponse:
    request_id: int
    shard_id: int
    spans: tuple[dict, ...] = ()


@dataclass(frozen=True, slots=True)
class Ready:
    """A worker's first frame, sent once its shard store is hydrated;
    ``ShardServer.start()`` returns when every shard has sent one."""

    shard_id: int


#: Request-pipe sentinel: a worker receiving ``None`` (or end-of-file,
#: when the front door is gone) closes its store and its pipe ends.
SHUTDOWN = None
