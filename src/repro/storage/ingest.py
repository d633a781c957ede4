"""Always-on continuous ingestion on top of immutable replicas.

Location tracking data arrives as a live feed (taxis report every
~30 s), while BLOT replicas are bulk-organized immutable structures.
Following the standard log-structured pattern (TrajStore buffers
inserts the same way), :class:`IngestingBlotStore` keeps

- a stack of **layers**, each one replica set (:class:`SealedWindow`):
  the **sealed windows** — read-only sets over old time windows, rolled
  out of the active set at compaction and swept by :meth:`anti_entropy`
  — and on top the **base**, the window that is still open;
- an in-memory **delta buffer** of everything appended since the last
  compaction, made durable by a :class:`~repro.storage.wal.WriteAheadLog`.

Every layer has one shape on disk under the store's ``wal_dir`` —
units and manifests (:func:`~repro.storage.config.write_replica_set`),
no raw copy of the records — and ``snapshot.json`` names the live ones,
so :meth:`open` after a crash is manifests + a replay of the log tail:
nothing is partitioned, encoded or lost.

Queries merge the layers' scans and a filter of the buffer.  The buffer
keeps every batch's exact (x, y, t) bounds, computed once when the batch
is published, so a read applies the engine's zone-bound rule to it: a
batch its box misses is skipped, one it contains is taken whole, and the
rest are filtered in one pass.  The buffer's time and bytes are
accounted separately (``QueryStats.buffer_seconds`` /
``buffer_bytes_scanned``) so Eq. 7 calibration only ever sees replica
scan time.

:meth:`compact` folds the buffer into a fresh base — the moment at which
the replica advisor may also be re-consulted (:mod:`repro.core.reselect`).
With ``background_compaction=True`` the fold runs on a worker thread:
layers are written *off to the side* and published as a new serving
state, so ``append()`` and ``query()`` never block on a rebuild, and a
failed rebuild leaves the serving set untouched (the frozen batches
never left the buffer).

Everything a read consults is one immutable :class:`_Serving` record.
Writers (``append``, the compaction's freeze and swap) serialize on a
plain mutex and publish the next record with a single reference
assignment; a read loads the reference once and takes no lock, so it
observes exactly one installed state and never waits on a writer — not
on a WAL fsync, not on a swap.

Durability is the WAL's rotate → fold → snapshot cycle: the segment seal
at compaction start bounds exactly the batches being folded, the new
layers are flushed, and one ``snapshot.json`` replace commits them
together with the segment GC (``docs/ingest.md``).
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.costmodel.calibrate import measure_cost_params
from repro.data.dataset import Dataset, box_mask
from repro.data.record import FIELDS
from repro.encoding.base import EncodingScheme
from repro.errors import DegradedReadError
from repro.geometry import Box3
from repro.partition.base import PartitioningScheme
from repro.storage.config import (
    cost_model_from_params,
    replica_set_config,
    write_replica_set,
)
from repro.storage.engine import BlotStore, open_store
from repro.storage.options import ExecOptions
from repro.storage.reads import (
    QueryResult,
    QueryStats,
    ReadRequest,
    ReadSurface,
    WorkloadStats,
)
from repro.obs import NULL_RECORDER
from repro.storage.replica import StoredReplica
from repro.storage.unit import DirectoryStore
from repro.storage.wal import WriteAheadLog, fsync_tree, wal_state_exists

#: Replica-set directories under the WAL directory are named
#: ``<prefix><seq>``; one sequence numbers both kinds.
_BASE_PREFIX = os.path.join("base", "base-")
_WINDOW_PREFIX = os.path.join("windows", "window-")

#: ``Dataset.binary_size_bytes()`` of one record: the schema fixes every
#: column's dtype, so a batch's bytes are its records times this.
_RECORD_BYTES = sum(f.dtype.itemsize for f in FIELDS)


@dataclass(frozen=True)
class ReplicaSpec:
    """Recipe for one diverse replica, applied at every compaction."""

    scheme: PartitioningScheme
    encoding: EncodingScheme
    name: str | None = None


@dataclass(frozen=True)
class SealedWindow:
    """One layer: a replica set over the half-open time span
    ``[t_lo, t_hi)`` — unbounded for the base, the window still open.

    Late-arriving records for an already-sealed span produce an
    *additional* window over the same span (windows are append-only,
    never rewritten), so spans may repeat — queries merge every
    intersecting window.  ``root`` is the layer's replica-set directory
    (:func:`~repro.storage.config.replica_set_config` describes it).
    """

    t_lo: float
    t_hi: float
    root: str
    records: int
    store: BlotStore

    def intersects(self, box: Box3) -> bool:
        return box.t_max >= self.t_lo and box.t_min < self.t_hi


def _bounds(batch: Dataset) -> list[list[float]]:
    """``[[x, y, t] minima, [x, y, t] maxima]`` of a non-empty batch.
    ``np.min``/``np.max`` propagate a NaN coordinate into its bounds."""
    xyt = [batch.column(name) for name in ("x", "y", "t")]
    return [[np.min(c) for c in xyt], [np.max(c) for c in xyt]]


@dataclass(frozen=True, eq=False)
class _Delta:
    """The delta buffer as one immutable value, indexed like storage
    units are: the acknowledged batches in arrival order, each batch's
    exact (x, y, t) bounds — ``bounds[i]`` is :func:`_bounds` of batch
    ``i`` — and ``offsets``, the running record total before each batch
    and after the last.  Every state transition builds it through
    :meth:`of`, :meth:`appended` and :meth:`after`, so the bounds and
    totals cannot fall out of line with the batches.

    A read sorts the batches with one comparison against its closed box
    (:meth:`_classify`): missed, contained, or to be filtered.  A NaN
    bound compares false both ways, so it neither skips its batch nor
    proves it contained.
    """

    batches: tuple[Dataset, ...]
    bounds: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, batches: list[Dataset]) -> "_Delta":
        bounds = [_bounds(b) for b in batches]
        return cls(tuple(batches),
                   np.array(bounds, dtype=np.float64).reshape(-1, 2, 3),
                   np.cumsum([0, *map(len, batches)], dtype=np.int64))

    def appended(self, batch: Dataset, bounds) -> "_Delta":
        """The buffer with ``batch`` — whose :func:`_bounds` are
        ``bounds`` — published last."""
        return _Delta(self.batches + (batch,),
                      np.concatenate([self.bounds, [bounds]]),
                      np.append(self.offsets, self.records + len(batch)))

    def after(self, n: int) -> "_Delta":
        """The buffer without its first ``n`` batches."""
        return _Delta(self.batches[n:], self.bounds[n:],
                      self.offsets[n:] - self.offsets[n])

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self):
        return iter(self.batches)

    @property
    def records(self) -> int:
        return int(self.offsets[-1])

    def _records_of(self, idx: np.ndarray) -> int:
        return int((self.offsets[idx + 1] - self.offsets[idx]).sum())

    def _classify(self, box: Box3) -> tuple[np.ndarray, np.ndarray]:
        """Per batch: does ``box`` meet its bounds, does it contain them."""
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        q_lo = np.array((box.x_min, box.y_min, box.t_min))
        q_hi = np.array((box.x_max, box.y_max, box.t_max))
        meets = ~((hi < q_lo) | (lo > q_hi)).any(axis=1)
        inside = ((lo >= q_lo) & (hi <= q_hi)).all(axis=1)
        return meets, inside

    def _mask(self, idx: np.ndarray, box: Box3) -> np.ndarray:
        """One mask over the concatenated x/y/t of batches ``idx``."""
        return box_mask(*(np.concatenate(
            [self.batches[i].column(name) for i in idx])
            for name in ("x", "y", "t")), box)

    def count(self, box: Box3) -> tuple[int, int]:
        """Records in ``box`` and records scanned: a contained batch
        counts its length, as metadata."""
        meets, inside = self._classify(box)
        masked = np.flatnonzero(meets & ~inside)
        n = self._records_of(np.flatnonzero(inside))
        if masked.size:
            n += int(self._mask(masked, box).sum())
        return n, self._records_of(masked)

    def filter(self, box: Box3) -> tuple[list[Dataset], int]:
        """The records in ``box``, in arrival order, and records scanned:
        a contained batch is scanned and taken whole."""
        meets, inside = self._classify(box)
        hit = np.flatnonzero(meets)
        scanned = self._records_of(hit)
        masked = hit[~inside[hit]]
        if not masked.size:
            return [self.batches[i] for i in hit], scanned
        # Split the one mask back into per-batch slices, then take once
        # per column over the batches that kept a row.
        sizes = self.offsets[masked + 1] - self.offsets[masked]
        slices = iter(np.split(self._mask(masked, box),
                               np.cumsum(sizes)[:-1]))
        pieces, keep = [], []
        for i, whole in zip(hit.tolist(), inside[hit].tolist()):
            batch = self.batches[i]
            rows = np.ones(len(batch), dtype=bool) if whole else next(slices)
            if rows.any():
                pieces.append(batch)
                keep.append(rows)
        if not pieces:
            return [], scanned
        return [Dataset.concat(pieces).take(np.concatenate(keep))], scanned


@dataclass(frozen=True)
class _Serving:
    """One installed serving state: everything a read consults, as one
    immutable value (see :meth:`IngestingBlotStore._install`).

    ``layers`` are the sealed windows oldest first with the open layer
    — the base — last; ``delta`` the acknowledged batches in arrival
    order with their bounds (:class:`_Delta`); ``frozen`` how many
    leading batches of ``delta`` the running compaction is folding (0
    when none is).  Frozen batches stay in ``delta`` until the swap
    drops them, so a reader never needs to know a fold is in flight and
    a failed fold moves nothing back.
    """

    layers: tuple[SealedWindow, ...] = ()
    delta: _Delta = _Delta.of([])
    frozen: int = 0

    @property
    def live_records(self) -> int:
        """Buffered records no compaction has claimed yet — what the
        ``auto_compact_at`` threshold measures."""
        return self.delta.records - int(self.delta.offsets[self.frozen])


class IngestingBlotStore(ReadSurface):
    """A BLOT store that accepts appends between compactions.

    The store lives under ``wal_dir``: every appended batch is CRC-framed
    in its write-ahead log before it is visible, every layer is a replica
    set written and flushed beside it, and :meth:`IngestingBlotStore.open`
    recovers the exact acknowledged state after a crash.  By default
    ``compact()`` runs inline on the appending thread; opt-in keywords:

    - ``background_compaction``: fold the buffer on a worker thread and
      swap the serving replicas atomically, so appends/queries never
      stall on a rebuild;
    - ``window_seconds``: time-windowed rollover — at compaction,
      records older than the open window are sealed into read-only
      on-disk replica sets (:class:`SealedWindow`), keeping the active
      rebuild bounded and giving the anti-entropy sweep (and future
      re-encoding advisors) immutable units to work over.
    """

    def __init__(
        self,
        initial: Dataset,
        replica_specs: list[ReplicaSpec],
        *,
        wal_dir: str,
        auto_compact_at: int | None = None,
        fsync_wal: bool = False,
        background_compaction: bool = False,
        window_seconds: float | None = None,
        observability=None,
    ):
        """``auto_compact_at`` triggers :meth:`compact` automatically once
        the live buffer holds that many records (None disables).  The
        store routes with Eq. 6 rows it measures from the units it writes
        (see :meth:`_calibrate`)."""
        if wal_state_exists(wal_dir):
            raise ValueError(
                f"{wal_dir!r} already holds WAL state; resume it with "
                "IngestingBlotStore.open() instead of constructing over it"
            )
        self._configure(wal_dir, fsync_wal, replica_specs, auto_compact_at,
                        background_compaction, window_seconds, observability)
        layers = (self._write_layer(initial, _BASE_PREFIX),)
        # Make the initial load durable immediately: open() after a
        # crash must never need the caller to re-supply it.
        self._commit(0, layers)
        self._install(_Serving(layers))

    def _configure(self, wal_dir, fsync_wal, replica_specs, auto_compact_at,
                   background_compaction, window_seconds,
                   observability) -> None:
        """The settings, write-ahead log and empty state ``__init__`` and
        :meth:`open` share."""
        if not replica_specs:
            raise ValueError("need at least one replica spec")
        if auto_compact_at is not None and auto_compact_at < 1:
            raise ValueError("auto_compact_at must be >= 1")
        if window_seconds is not None and window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self._specs = list(replica_specs)
        # The measured ``(encoding, scan_rate, extra_time)`` rows behind
        # ``_cost_model``, committed with every snapshot.
        self._cost_params: tuple[tuple[str, float, float], ...] = ()
        self._cost_model = None
        self._auto_compact_at = auto_compact_at
        self._background = bool(background_compaction)
        self._window_seconds = window_seconds
        self._obs = observability
        self._metrics = observability.metrics if observability else None
        self._tracer = (observability.tracer
                        if observability is not None else NULL_RECORDER)

        self._state = _Serving()
        # Layers an in-flight read holds, by read token (see _reading).
        self._readers: dict[int, tuple[SealedWindow, ...]] = {}
        self._read_tokens = itertools.count()
        self._write = threading.Lock()       # writers: append, freeze, swap
        self._compact_lock = threading.Lock()
        self._bg_guard = threading.Lock()
        self._bg_thread: threading.Thread | None = None
        self._compactions = 0
        self._compaction_failures = 0
        self._last_compaction_error: str | None = None
        self._seal_seq = 0
        self._wal = WriteAheadLog(wal_dir, fsync=fsync_wal,
                                  metrics=self._metrics)

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def open(
        cls,
        wal_dir: str,
        replica_specs: list[ReplicaSpec],
        *,
        auto_compact_at: int | None = None,
        fsync_wal: bool = False,
        background_compaction: bool = False,
        window_seconds: float | None = None,
        observability=None,
    ) -> "IngestingBlotStore":
        """Recover a store from its WAL directory after a restart/crash.

        Reopens the layers the committed ``snapshot.json`` names from
        their manifests — nothing is partitioned, encoded or read — and
        replays every acknowledged post-commit batch into the delta
        buffer, sealing any torn final frame the crash left behind.  The
        result answers every query exactly as the pre-crash store did.
        Layers keep the replicas they were written with:
        ``replica_specs`` take effect at the next compaction.
        """
        self = cls.__new__(cls)
        self._configure(wal_dir, fsync_wal, replica_specs, auto_compact_at,
                        background_compaction, window_seconds, observability)
        _, committed = self._wal.snapshot_meta()
        if "base" not in committed:
            raise ValueError(
                f"no committed snapshot under {wal_dir!r}; create the store "
                "with IngestingBlotStore(initial, ..., wal_dir=...) first"
            )
        self._cost_params = tuple(
            (str(name), float(rate), float(extra))
            for name, rate, extra in committed.get("cost_params", ()))
        self._cost_model = cost_model_from_params(self._cost_params)
        # The base first: a snapshot committed without rows is measured
        # from it, once (see _calibrate).
        base = self._open_layer(committed["base"])
        layers = (*map(self._open_layer, committed["windows"]), base)
        self._seal_seq = max(int(layer.root.rpartition("-")[2])
                             for layer in layers)
        self._install(_Serving(layers, _Delta.of(self._wal.replay())))
        self._collect_orphans()
        if self._metrics is not None:
            self._metrics.counter("repro_wal_replayed_records_total").inc(
                self._state.delta.records)
        return self

    # -- layers ------------------------------------------------------------

    def _write_layer(self, dataset: Dataset, prefix: str,
                     t_lo: float = -math.inf,
                     t_hi: float = math.inf) -> SealedWindow:
        """Build the replica set of one layer over ``dataset`` with the
        current specs under the WAL directory, flush it, and open it for
        serving."""
        self._seal_seq += 1
        rel = f"{prefix}{self._seal_seq:06d}"
        root = os.path.join(self._wal.dir, rel)
        names = write_replica_set(
            dataset, [(s.scheme, s.encoding, s.name) for s in self._specs],
            root)
        # The commit that names this layer GCs the WAL segments holding
        # the same records: it must be on stable storage first.
        fsync_tree(root)
        return self._open_layer({"dir": rel, "records": len(dataset),
                                 "replicas": names,
                                 "t_lo": t_lo, "t_hi": t_hi})

    def _open_layer(self, descriptor: dict) -> SealedWindow:
        """Open one committed (or about to be committed) layer from its
        ``snapshot.json`` descriptor: manifests only, with the store's
        live cost model and telemetry."""
        root = os.path.join(self._wal.dir, descriptor["dir"])
        config = replica_set_config(root, descriptor["replicas"])
        replicas = [ref.open() for ref in config.replicas]
        self._calibrate(replicas)
        store = open_store(config.load_dataset, replicas,
                           cost_model=self._cost_model,
                           observability=self._obs)
        return SealedWindow(
            t_lo=float(descriptor.get("t_lo", -math.inf)),
            t_hi=float(descriptor.get("t_hi", math.inf)),
            root=root, records=int(descriptor["records"]), store=store)

    def _calibrate(self, replicas: list[StoredReplica]) -> None:
        """Give every encoding of a layer's replica set an Eq. 6 row.

        Routing only has to choose within a layer of two or more
        replicas; there, an encoding without a row is timed from the
        layer's own freshly written units
        (:func:`~repro.costmodel.calibrate.measure_cost_params`) and the
        store's model is rebuilt with the new rows — layers opened
        earlier keep the model they were opened with, which prices every
        replica they hold.  The rows are committed with every snapshot, so
        :meth:`open` reads them back and times nothing — unless the
        snapshot predates them, when the base is measured once.
        """
        if len(replicas) < 2:
            return
        have = {name for name, _, _ in self._cost_params}
        missing = [r for r in replicas if r.encoding.name not in have]
        if missing:
            self._cost_params = tuple(sorted(
                self._cost_params + measure_cost_params(missing)))
            self._cost_model = cost_model_from_params(self._cost_params)

    def _commit(self, through_segment: int,
                layers: tuple[SealedWindow, ...]) -> None:
        """Make ``layers`` (sealed windows, then the base) the committed
        ones, and WAL segments <= ``through_segment`` folded, in one
        atomic ``snapshot.json`` replace.  Paths are stored relative to
        the WAL directory, so the directory can be moved."""
        *windows, base = layers

        def describe(layer: SealedWindow, **span) -> dict:
            return {"dir": os.path.relpath(layer.root, self._wal.dir),
                    "records": layer.records,
                    "replicas": layer.store.replica_names(), **span}

        self._wal.snapshot(through_segment, extra={
            "base": describe(base),
            "windows": [describe(w, t_lo=w.t_lo, t_hi=w.t_hi)
                        for w in windows],
            "cost_params": [list(row) for row in self._cost_params]})

    def _collect_orphans(self) -> None:
        """Delete every replica-set directory that ``snapshot.json`` does
        not name, this store does not serve and no in-flight read holds:
        what a crashed or failed compaction wrote but never committed,
        and superseded bases once their last reader is done.
        Callers hold ``_compact_lock`` (or own the store alone)."""
        committed = self._wal.snapshot_meta()[1]
        keep = {os.path.join(self._wal.dir, d["dir"])
                for d in [committed["base"], *committed["windows"]]}
        keep.update(layer.root for layer in self._state.layers)
        for layers in tuple(self._readers.values()):
            keep.update(layer.root for layer in layers)
        for prefix in (_BASE_PREFIX, _WINDOW_PREFIX):
            parent = os.path.join(self._wal.dir, os.path.dirname(prefix))
            for name in os.listdir(parent) if os.path.isdir(parent) else ():
                path = os.path.join(parent, name)
                if path not in keep:
                    shutil.rmtree(path, ignore_errors=True)

    # -- state ------------------------------------------------------------

    @contextmanager
    def _reading(self):
        """The serving state, held against :meth:`_collect_orphans` until
        the block exits.  Its layers are registered first and the state
        re-taken if a swap replaced them meanwhile: a collection that ran
        before the registration may already have taken them, one that
        runs after it keeps them.  No lock: a dict store and pop, which
        the GIL keeps atomic."""
        token = next(self._read_tokens)
        state = self._state
        self._readers[token] = state.layers
        while self._state.layers is not state.layers:
            state = self._state
            self._readers[token] = state.layers
        try:
            yield state
        finally:
            del self._readers[token]

    def _install(self, state: _Serving) -> None:
        """Publish ``state`` as the serving state — the only assignment
        to it.  Callers hold ``_write`` (or own the store alone); readers
        load ``self._state`` once per call and take no lock, so each sees
        exactly one installed state."""
        self._state = state

    @property
    def base(self) -> BlotStore:
        """The replica set over the active window's compacted data."""
        return self._state.layers[-1].store

    @property
    def windows(self) -> tuple[SealedWindow, ...]:
        """Sealed read-only time windows, oldest first."""
        return self._state.layers[:-1]

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def buffered_records(self) -> int:
        """Records appended but not yet folded into replicas (batches
        frozen by an in-flight compaction included)."""
        return self._state.delta.records

    def dataset(self) -> Dataset:
        """The full logical dataset (sealed windows + base + buffer),
        decoded from one replica of each on-disk layer."""
        with self._reading() as state:
            return Dataset.concat(
                [*(layer.store.dataset for layer in state.layers),
                 *state.delta])

    def __len__(self) -> int:
        state = self._state
        return (sum(layer.records for layer in state.layers)
                + state.delta.records)

    @property
    def compactions(self) -> int:
        """How many compactions have completed (manual + automatic)."""
        return self._compactions

    @property
    def compaction_failures(self) -> int:
        return self._compaction_failures

    @property
    def last_compaction_error(self) -> str | None:
        """The most recent failed rebuild's message (background mode
        records it here instead of raising on the worker thread)."""
        return self._last_compaction_error

    def close(self) -> None:
        """Wait out any in-flight background compaction, release the
        WAL handle, and collect what the committed state no longer
        names."""
        self.wait_for_compaction()
        with self._compact_lock:
            self._wal.close()
            self._collect_orphans()

    # -- writes ----------------------------------------------------------------

    def append(self, records: Dataset) -> None:
        """Ingest a batch of new records.

        The batch is WAL-logged before becoming visible to queries, so
        an acknowledged append survives a crash; it may trigger a
        compaction — inline here, or on the background worker when
        ``background_compaction`` is on."""
        if not len(records):
            return
        t0 = time.perf_counter()
        # Outside the writers' mutex, so no writer waits on it.
        bounds = _bounds(records)
        with self._write:
            self._wal.append(records)
            state = self._state
            state = replace(state, delta=state.delta.appended(records, bounds))
            self._install(state)
        if self._metrics is not None:
            self._metrics.counter("repro_ingest_appends_total").inc()
            self._metrics.counter("repro_ingest_records_total").inc(
                len(records))
            self._metrics.quantile_sketch(
                "repro_ingest_append_seconds").observe(
                time.perf_counter() - t0)
            self._metrics.gauge("repro_ingest_buffer_records").set(
                state.delta.records)
        if (self._auto_compact_at is not None
                and state.live_records >= self._auto_compact_at):
            if self._background:
                self._start_background()
            else:
                self.compact()

    # -- compaction -------------------------------------------------------------

    def compact(self) -> None:
        """Fold the buffer into fresh base replicas, synchronously.

        All replica specs are rebuilt over the merged active dataset;
        the universe grows if buffered records fell outside the previous
        bounding box.  With ``window_seconds`` set, records older than
        the open time window are sealed into read-only on-disk windows
        instead of rejoining the active set.  If an in-flight background
        compaction holds the lock, this waits for it and then folds
        whatever is left.  A failing rebuild raises and loses nothing:
        the frozen batches never left the buffer.
        """
        with self._compact_lock:
            self._compact_once("sync")

    def wait_for_compaction(self, timeout: float | None = None) -> None:
        """Block until the background worker (if any) finishes."""
        thread = self._bg_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def _start_background(self) -> None:
        with self._bg_guard:
            if self._bg_thread is not None and self._bg_thread.is_alive():
                return
            thread = threading.Thread(target=self._background_loop,
                                      name="repro-ingest-compaction",
                                      daemon=True)
            self._bg_thread = thread
            thread.start()

    def _background_loop(self) -> None:
        """Fold until the live buffer is back under the threshold.  A
        failed rebuild is recorded (counter + ``last_compaction_error``)
        and ends the loop; the serving set is untouched and the next
        threshold crossing tries again."""
        while True:
            try:
                with self._compact_lock:
                    did = self._compact_once("background")
            except Exception:
                return
            if not did or self._state.live_records < self._auto_compact_at:
                return

    def _compact_once(self, mode: str) -> bool:
        """One rotate → fold → snapshot → swap cycle.  Caller holds
        ``_compact_lock`` (compactions are single-flight)."""
        with self._write:
            state = self._state
            if state.delta:
                # Seal the WAL segment *in the same critical section* that
                # freezes the buffer: the sealed segments then hold
                # exactly the frozen batches, which is what makes the
                # snapshot's through_segment GC safe.
                sealed_segment = self._wal.rotate()
                state = replace(state, frozen=len(state.delta))
                self._install(state)
        # Layers only change here, under ``_compact_lock``: ``state`` stays
        # the truth about them (and the frozen batches) for the whole fold.
        *windows, base = state.layers
        t0 = time.perf_counter()
        try:
            # The base the previous swap superseded (and anything a failed
            # attempt left) can go now, unless a read still holds it —
            # after the freeze, so where the fold cuts the buffer never
            # waits on directory deletes.
            self._collect_orphans()
            if not state.frozen:
                return False
            with self._tracer.start("compact", kind="compact",
                                    mode=mode) as root:
                merged = Dataset.concat(
                    [base.store.dataset, *state.delta]).sorted_by_time()
                new_windows: list[SealedWindow] = []
                active = merged
                if self._window_seconds is not None:
                    with self._tracer.start("seal-windows", parent=root):
                        active, new_windows = self._seal_windows(merged)
                with self._tracer.start("rebuild", parent=root,
                                        records=len(active)):
                    new_base = self._write_layer(active, _BASE_PREFIX)
                layers = (*windows, *new_windows, new_base)
                with self._tracer.start("snapshot", parent=root):
                    self._commit(sealed_segment, layers)
                with self._write:
                    # Appends since the freeze sit behind the frozen
                    # batches: drop exactly those the new layers hold.
                    swapped = _Serving(layers,
                                       self._state.delta.after(state.frozen))
                    self._install(swapped)
                    self._compactions += 1
        except BaseException as exc:
            # Rebuild failed off to the side: the serving set was never
            # touched and the frozen batches never left the buffer, so
            # un-freezing them is all there is to undo (their WAL
            # segments are still on disk — the snapshot that would have
            # GC'd them never committed; the half-written layers go at
            # the next collection).
            with self._write:
                self._install(replace(self._state, frozen=0))
            self._compaction_failures += 1
            self._last_compaction_error = f"{type(exc).__name__}: {exc}"
            if self._metrics is not None:
                self._metrics.counter(
                    "repro_ingest_compaction_failures_total",
                    labels={"mode": mode}).inc()
            raise
        if self._metrics is not None:
            self._metrics.counter("repro_ingest_compactions_total",
                                  labels={"mode": mode}).inc()
            self._metrics.quantile_sketch(
                "repro_ingest_compaction_seconds").observe(
                time.perf_counter() - t0)
            if new_windows:
                self._metrics.counter(
                    "repro_ingest_windows_sealed_total").inc(len(new_windows))
            self._metrics.gauge("repro_ingest_windows").set(
                len(layers) - 1)
            self._metrics.gauge("repro_ingest_buffer_records").set(
                swapped.delta.records)
        return True

    def _seal_windows(
        self, merged: Dataset
    ) -> tuple[Dataset, list[SealedWindow]]:
        """Split ``merged`` into the active (open-window) dataset and
        newly written on-disk windows for everything older."""
        window = float(self._window_seconds)
        t = merged.column("t")
        open_start = math.floor(float(t.max()) / window) * window
        seal_mask = t < open_start
        if not seal_mask.any():
            return merged, []
        active = merged.take(~seal_mask)
        sealed = merged.take(seal_mask)
        buckets = np.floor(sealed.column("t") / window).astype(np.int64)
        windows = []
        for bucket in np.unique(buckets):
            part = sealed.take(buckets == bucket)
            windows.append(self._write_layer(
                part, _WINDOW_PREFIX,
                float(bucket) * window, float(bucket + 1) * window))
        return active, windows

    # -- anti-entropy -----------------------------------------------------------

    def anti_entropy(self, n_queries: int = 4, seed: int = 7) -> list:
        """CRC + majority-vote sweep over every layer — the sealed
        windows and the base.

        Each layer's units are verified with
        :func:`repro.verify.verify_store`: per-unit CRCs against the
        manifests, cross-replica majority vote on the recovered content,
        and a small differential query sweep.  Returns one
        :class:`~repro.verify.StoreVerification` per layer, oldest
        window first and the base last, and publishes
        ``repro_antientropy_*`` counters.
        """
        from repro.verify.diskcheck import verify_store

        layers = self._state.layers
        reports = []
        with self._tracer.start("anti-entropy", kind="anti-entropy",
                                windows=len(layers)):
            for layer in layers:
                config = replica_set_config(layer.root,
                                            layer.store.replica_names())
                verification = verify_store(
                    DirectoryStore(config.replicas[0].store_root),
                    [ref.manifest_path for ref in config.replicas],
                    n_queries=n_queries, seed=seed)
                reports.append(verification)
                if self._metrics is not None:
                    self._metrics.counter(
                        "repro_antientropy_windows_total").inc()
                    if not verification.ok:
                        self._metrics.counter(
                            "repro_antientropy_failures_total").inc()
        if self._metrics is not None:
            self._metrics.counter("repro_antientropy_sweeps_total").inc()
            self._metrics.gauge("repro_antientropy_ok").set(
                1.0 if all(r.ok for r in reports) else 0.0)
        return reports

    # -- reads ----------------------------------------------------------------

    def _execute(self, requests: list[ReadRequest], opts: ExecOptions, *,
                 batch: bool, replica: str | None = None):
        """The single read entry (see
        :class:`~repro.storage.reads.ReadSurface`), fanned over the
        layers: each one answers the requests whose range reaches its
        time span (the base: all of them, even none, so its routing plan
        is the call's), and the delta buffer — a layer whose decode is
        the identity — is filtered by its batches' bounds
        (:meth:`_scan_buffer`).

        Per request the layers merge in the order sealed windows (oldest
        first), base, buffer, so a raw :class:`Box3` is matched against
        its exact bounds in every layer and results agree with a scan of
        :meth:`dataset` up to record order.  Stats sum the replica
        scans, keeping the base's serving replica; the buffer filter is
        accounted separately (``buffer_seconds`` /
        ``buffer_bytes_scanned``, the bytes of the batches it scanned).
        A request any layer could not serve ends in that layer's
        :class:`DegradedReadError`.
        """
        with self._reading() as state:
            layers, delta = state.layers, state.delta
            base = layers[-1]
            answers: list[list[QueryResult]] = [[] for _ in requests]
            errors: dict[int, DegradedReadError] = {}
            layer_stats: list[WorkloadStats] = []
            for layer in layers:
                idxs = [i for i, r in enumerate(requests)
                        if layer is base or layer.intersects(r.box)]
                if not idxs and layer is not base:
                    continue
                outcomes, layer_plan, stats = layer.store._execute(
                    [requests[i] for i in idxs], opts, batch=batch,
                    replica=replica)
                for i, outcome in zip(idxs, outcomes):
                    if isinstance(outcome, DegradedReadError):
                        errors.setdefault(i, outcome)
                    else:
                        answers[i].append(outcome)
                if stats is not None:
                    layer_stats.append(stats)
        plan = layer_plan
        buffered = self._scan_buffer(delta, requests, opts)

        total_records = sum(layer.records for layer in layers) + delta.records
        outcomes: list = []
        for i, request in enumerate(requests):
            if i in errors:
                outcomes.append(errors[i])
                continue
            found = answers[i]
            matched, scanned, buffer_seconds = buffered[i]
            if request.count:
                merged = returned = sum(r.records for r in found) + matched
            else:
                pieces = [r.records for r in found] + matched
                merged = (pieces[0] if len(pieces) == 1
                          else Dataset.concat(pieces))
                returned = len(merged)
            parts = [r.stats for r in found]
            outcomes.append(QueryResult(records=merged, stats=QueryStats(
                replica_name=parts[-1].replica_name,  # the base's
                partitions_involved=sum(p.partitions_involved for p in parts),
                records_scanned=sum(p.records_scanned for p in parts)
                + scanned,
                records_returned=returned,
                bytes_read=sum(p.bytes_read for p in parts),
                seconds=sum(p.seconds for p in parts),
                total_records=total_records,
                retries=sum(p.retries for p in parts),
                failovers=sum(p.failovers for p in parts),
                buffer_seconds=buffer_seconds,
                buffer_bytes_scanned=scanned * _RECORD_BYTES,
            )))
        if not batch:
            return outcomes, None, None

        def total(field: str):
            return sum(getattr(s, field) for s in layer_stats)

        per_replica: dict[str, int] = {}
        for s in layer_stats:
            for name, n in s.per_replica_queries.items():
                per_replica[name] = per_replica.get(name, 0) + n
        served = [o.stats for o in outcomes if isinstance(o, QueryResult)]
        buffer_scanned = sum(scanned for _, scanned, _ in buffered)
        stats = WorkloadStats(
            n_queries=len(requests),
            seconds=total("seconds"),
            bytes_read=total("bytes_read"),
            records_scanned=total("records_scanned") + buffer_scanned,
            records_returned=sum(s.records_returned for s in served),
            partitions_decoded=total("partitions_decoded"),
            cache_hits=total("cache_hits"),
            cache_misses=total("cache_misses"),
            per_replica_queries=per_replica,
            retries=total("retries"),
            failovers=total("failovers"),
            repairs=total("repairs"),
            degraded_cost_delta=total("degraded_cost_delta"),
            failed_replicas=tuple(dict.fromkeys(
                name for s in layer_stats for name in s.failed_replicas)),
            buffer_seconds=sum((seconds for *_, seconds in buffered), 0.0),
            buffer_bytes_scanned=buffer_scanned * _RECORD_BYTES,
        )
        return outcomes, plan, stats

    def _scan_buffer(self, delta: _Delta, requests: list[ReadRequest],
                     opts: ExecOptions) -> list[tuple]:
        """Filter the delta buffer for every request by its batches'
        bounds — the zone-bound rule the engine applies to storage units:
        a batch the box misses is skipped, one it contains answers
        unmasked, the rest are filtered in one pass
        (:meth:`_Delta.count` / :meth:`_Delta.filter`).  Per request:
        the fold's answer over the buffered batches (a count, or the
        matching records in arrival order), the records of the batches
        scanned, and the seconds that took."""
        if not delta:
            return [(0 if r.count else [], 0, 0.0) for r in requests]
        # The buffer filter is engine work too: give it a span that joins
        # the caller's trace (remote context included), so a stitched
        # request tree shows time spent in the delta alongside the
        # replica scans.
        tracer = self._tracer if opts.trace else NULL_RECORDER
        out = []
        with tracer.start("buffer_scan", context=opts.trace_context,
                          batches=len(delta), requests=len(requests),
                          records=delta.records):
            for request in requests:
                t0 = time.perf_counter()
                fold = delta.count if request.count else delta.filter
                matched, scanned = fold(request.box)
                out.append((matched, scanned, time.perf_counter() - t0))
        return out
