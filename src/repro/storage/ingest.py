"""Always-on continuous ingestion on top of immutable replicas.

Location tracking data arrives as a live feed (taxis report every
~30 s), while BLOT replicas are bulk-organized immutable structures.
Following the standard log-structured pattern (TrajStore buffers
inserts the same way), :class:`IngestingBlotStore` keeps

- a set of **base replicas** over the active time window,
- an in-memory **delta buffer** of everything appended since the last
  compaction, made durable by a per-store
  :class:`~repro.storage.wal.WriteAheadLog` (crash → :meth:`open`
  replays the buffer with zero loss), and
- a list of **sealed windows**: read-only, on-disk,
  :class:`~repro.storage.StoreConfig`-describable replica sets over old
  time windows, rolled out of the active set at compaction and swept by
  the :meth:`anti_entropy` CRC + majority-vote check on a schedule.

Queries merge base-replica scans, sealed-window scans and a brute-force
filter of the buffer (the buffer is small by construction); the buffer
filter's time and bytes are accounted *separately*
(``QueryStats.buffer_seconds`` / ``buffer_bytes_scanned``) so Eq. 7
calibration only ever sees replica scan time.

:meth:`compact` folds the buffer into fresh replicas — the moment at
which the replica advisor may also be re-consulted (see
:mod:`repro.core.reselect`).  With ``background_compaction=True`` the
fold runs on a worker thread: replicas are rebuilt *off to the side*
and the serving set is swapped atomically under a read/write lock, so
``append()`` and ``query()`` never block on a rebuild, and a failed
rebuild leaves the serving set untouched (the frozen batches return to
the buffer).  Compaction's durability protocol is the WAL's
rotate → fold → snapshot cycle: the segment seal at compaction start
bounds exactly the batches being folded, and the single
``snapshot.json`` replace commits the folded dataset, the sealed-window
index and the segment GC together.
"""

from __future__ import annotations

import math
import os
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.costmodel.model import CostModel
from repro.data.dataset import Dataset
from repro.encoding.base import EncodingScheme
from repro.errors import DegradedReadError
from repro.geometry import Box3
from repro.partition.base import PartitioningScheme
from repro.storage.engine import BlotStore
from repro.storage.options import ExecOptions
from repro.storage.reads import (
    QueryResult,
    QueryStats,
    ReadRequest,
    ReadSurface,
    WorkloadStats,
)
from repro.storage.unit import InMemoryStore
from repro.storage.wal import WriteAheadLog, wal_state_exists

try:
    from repro.obs import NULL_RECORDER
except ImportError:  # pragma: no cover - obs is a hard sibling in-tree
    NULL_RECORDER = None

_WINDOW_DIR = "windows"
_WINDOW_PREFIX = "window-"


@dataclass(frozen=True)
class ReplicaSpec:
    """Recipe for one diverse replica, re-applied at every compaction."""

    scheme: PartitioningScheme
    encoding: EncodingScheme
    name: str | None = None


@dataclass
class SealedWindow:
    """One read-only time window, materialized on disk.

    ``[t_lo, t_hi)`` is the window's half-open time span; late-arriving
    records for an already-sealed span produce an *additional* window
    over the same span (windows are append-only, never rewritten), so
    spans may repeat — queries merge every intersecting window.
    """

    t_lo: float
    t_hi: float
    root: str
    records: int
    config: "StoreConfig"  # noqa: F821 - imported lazily to avoid a cycle
    store: BlotStore

    def intersects(self, box: Box3) -> bool:
        return box.t_max >= self.t_lo and box.t_min < self.t_hi


class ReadWriteLock:
    """A writer-preferring shared/exclusive lock.

    Readers (query paths snapshotting the serving state) may hold it
    concurrently; writers (append bookkeeping + WAL write, and the
    compaction swap) are exclusive.  Writer preference keeps a steady
    query stream from starving the swap."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read_lock(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_lock(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class IngestingBlotStore(ReadSurface):
    """A BLOT store that accepts appends between compactions.

    The default configuration matches the original synchronous store:
    in-memory only, ``compact()`` inline on the appending thread.  The
    always-on upgrades are opt-in keywords:

    - ``wal_dir``: write-ahead logging — every appended batch is
      CRC-framed on disk before it is visible, and
      :meth:`IngestingBlotStore.open` recovers the exact acknowledged
      state after a crash;
    - ``background_compaction``: fold the buffer on a worker thread and
      swap the serving replicas atomically, so appends/queries never
      stall on a rebuild;
    - ``window_seconds``: time-windowed rollover — at compaction,
      records older than the open window are sealed into read-only
      on-disk replica sets (:class:`SealedWindow`), keeping the active
      rebuild bounded and giving the anti-entropy sweep (and future
      re-encoding advisors) immutable units to work over;
    - ``anti_entropy_interval``: run :meth:`anti_entropy` —
      ``verify_store``'s CRC + majority-vote sweep over every sealed
      window — whenever the (injectable) clock says it is due.
    """

    def __init__(
        self,
        initial: Dataset,
        replica_specs: list[ReplicaSpec],
        cost_model: CostModel | None = None,
        auto_compact_at: int | None = None,
        *,
        wal_dir: str | None = None,
        fsync_wal: bool = False,
        background_compaction: bool = False,
        window_seconds: float | None = None,
        anti_entropy_interval: float | None = None,
        observability=None,
        clock=time.monotonic,
        _resume: tuple | None = None,
    ):
        """``auto_compact_at`` triggers :meth:`compact` automatically once
        the live buffer holds that many records (None disables)."""
        if not replica_specs:
            raise ValueError("need at least one replica spec")
        if auto_compact_at is not None and auto_compact_at < 1:
            raise ValueError("auto_compact_at must be >= 1")
        if window_seconds is not None:
            if window_seconds <= 0:
                raise ValueError("window_seconds must be positive")
            if wal_dir is None and _resume is None:
                raise ValueError(
                    "window_seconds needs wal_dir (sealed windows are "
                    "materialized on disk under it)")
        if anti_entropy_interval is not None and anti_entropy_interval < 0:
            raise ValueError("anti_entropy_interval must be >= 0")
        self._specs = list(replica_specs)
        if cost_model is None and len(self._specs) > 1:
            # Multi-replica routing needs Eq. 7 constants; an always-on
            # store should not fail its first query for lack of them.
            cost_model = _default_cost_model(self._specs)
        self._cost_model = cost_model
        self._auto_compact_at = auto_compact_at
        self._background = bool(background_compaction)
        self._window_seconds = window_seconds
        self._anti_entropy_interval = anti_entropy_interval
        self._obs = observability
        self._metrics = observability.metrics if observability else None
        self._tracer = (observability.tracer
                        if observability is not None else NULL_RECORDER)
        self._clock = clock
        self._last_anti_entropy: float | None = None

        self._rw = ReadWriteLock()
        self._compact_lock = threading.Lock()
        self._bg_guard = threading.Lock()
        self._bg_thread: threading.Thread | None = None
        self._buffer: list[Dataset] = []
        self._compacting: list[Dataset] = []
        self._windows: list[SealedWindow] = []
        self._compactions = 0
        self._compaction_failures = 0
        self._last_compaction_error: str | None = None
        self._seal_seq = 0
        self._wal: WriteAheadLog | None = None

        if _resume is not None:
            wal, base_dataset, replayed, windows, seal_seq = _resume
            self._wal = wal
            self._windows = list(windows)
            self._buffer = list(replayed)
            self._seal_seq = seal_seq
            self._base = self._build_base(base_dataset)
            return

        if wal_dir is not None:
            if wal_state_exists(wal_dir):
                raise ValueError(
                    f"{wal_dir!r} already holds WAL state; resume it with "
                    "IngestingBlotStore.open() instead of constructing over it"
                )
            self._wal = WriteAheadLog(wal_dir, fsync=fsync_wal,
                                      metrics=self._metrics)
        self._base = self._build_base(initial)
        if self._wal is not None:
            # Make the initial load durable immediately: open() after a
            # crash must never need the caller to re-supply it.
            self._wal.snapshot(initial, through_segment=0,
                               extra=self._snapshot_extra([]))

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def open(
        cls,
        wal_dir: str,
        replica_specs: list[ReplicaSpec],
        cost_model: CostModel | None = None,
        auto_compact_at: int | None = None,
        *,
        fsync_wal: bool = False,
        background_compaction: bool = False,
        window_seconds: float | None = None,
        anti_entropy_interval: float | None = None,
        observability=None,
        clock=time.monotonic,
    ) -> "IngestingBlotStore":
        """Recover a store from its WAL directory after a restart/crash.

        Rebuilds the base replicas from the committed compaction
        snapshot, rehydrates the sealed-window index, and replays every
        acknowledged post-snapshot batch back into the delta buffer —
        sealing any torn final frame the crash left behind.  The result
        answers every query exactly as the pre-crash store did.
        """
        metrics = observability.metrics if observability else None
        wal = WriteAheadLog(wal_dir, fsync=fsync_wal, metrics=metrics)
        base_dataset, _, extra = wal.snapshot_meta()
        if base_dataset is None:
            raise ValueError(
                f"no committed snapshot under {wal_dir!r}; create the store "
                "with IngestingBlotStore(initial, ..., wal_dir=...) first"
            )
        replayed = wal.replay()
        if metrics is not None:
            metrics.counter("repro_wal_replayed_records_total").inc(
                sum(len(b) for b in replayed))
        windows = [cls._hydrate_window(d) for d in extra.get("windows", [])]
        seal_seq = max((w_seq for w_seq in
                        (_window_seq(w.root) for w in windows)
                        if w_seq is not None), default=0)
        _gc_orphan_windows(wal_dir, windows)
        return cls(
            base_dataset, replica_specs, cost_model, auto_compact_at,
            background_compaction=background_compaction,
            window_seconds=window_seconds,
            anti_entropy_interval=anti_entropy_interval,
            observability=observability, clock=clock,
            _resume=(wal, base_dataset, replayed, windows, seal_seq),
        )

    @staticmethod
    def _hydrate_window(descriptor: dict) -> SealedWindow:
        from repro.storage.config import hydrate_store, store_config_from_dict

        config = store_config_from_dict(descriptor["config"])
        return SealedWindow(
            t_lo=float(descriptor["t_lo"]),
            t_hi=float(descriptor["t_hi"]),
            root=descriptor["root"],
            records=int(descriptor["records"]),
            config=config,
            store=hydrate_store(config),
        )

    def _snapshot_extra(self, windows: list[SealedWindow]) -> dict:
        from repro.storage.config import store_config_to_dict

        return {"windows": [
            {"t_lo": w.t_lo, "t_hi": w.t_hi, "root": w.root,
             "records": w.records,
             "config": store_config_to_dict(w.config)}
            for w in windows
        ]}

    def _build_base(self, dataset: Dataset) -> BlotStore:
        store = BlotStore(dataset, cost_model=self._cost_model,
                          observability=self._obs)
        for spec in self._specs:
            store.add_replica(spec.scheme, spec.encoding, InMemoryStore(),
                              name=spec.name)
        return store

    # -- state ------------------------------------------------------------

    @property
    def base(self) -> BlotStore:
        """The replica set over the active window's compacted data."""
        return self._base

    @property
    def windows(self) -> tuple[SealedWindow, ...]:
        """Sealed read-only time windows, oldest first."""
        with self._rw.read_lock():
            return tuple(self._windows)

    @property
    def wal(self) -> WriteAheadLog | None:
        return self._wal

    @property
    def buffered_records(self) -> int:
        """Records appended but not yet folded into replicas (the live
        buffer plus any batches frozen by an in-flight compaction)."""
        with self._rw.read_lock():
            return self._delta_records_unlocked()

    def _delta_records_unlocked(self) -> int:
        return sum(len(d) for d in self._compacting) + \
            sum(len(d) for d in self._buffer)

    def dataset(self) -> Dataset:
        """The full logical dataset (sealed windows + base + buffer)."""
        with self._rw.read_lock():
            windows = list(self._windows)
            base = self._base
            delta = self._compacting + self._buffer
        return Dataset.concat(
            [w.store.dataset for w in windows] + [base.dataset] + delta)

    def __len__(self) -> int:
        with self._rw.read_lock():
            return (sum(w.records for w in self._windows)
                    + len(self._base.dataset)
                    + self._delta_records_unlocked())

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
        """Wait out any in-flight background compaction and release the
        WAL handle and window stores."""
        self.wait_for_compaction()
        if self._wal is not None:
            self._wal.close()
        self._base.close()
        for w in self._windows:
            w.store.close()

    # -- writes ----------------------------------------------------------------

    def append(self, records: Dataset) -> None:
        """Ingest a batch of new records.

        The batch is WAL-logged (when a WAL is attached) before becoming
        visible to queries, so an acknowledged append survives a crash;
        it may trigger a compaction — inline here, or on the background
        worker when ``background_compaction`` is on."""
        if not len(records):
            return
        t0 = time.perf_counter()
        with self._rw.write_lock():
            if self._wal is not None:
                self._wal.append(records)
            self._buffer.append(records)
            live = sum(len(d) for d in self._buffer)
            total = self._delta_records_unlocked()
        if self._metrics is not None:
            self._metrics.counter("repro_ingest_appends_total").inc()
            self._metrics.counter("repro_ingest_records_total").inc(
                len(records))
            self._metrics.histogram("repro_ingest_append_seconds").observe(
                time.perf_counter() - t0)
            self._metrics.gauge("repro_ingest_buffer_records").set(total)
        if self._auto_compact_at is not None and live >= self._auto_compact_at:
            if self._background:
                self._start_background()
            else:
                self.compact()
        self.maybe_anti_entropy()

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
        the frozen batches return to the buffer.
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
            if not did:
                return
            with self._rw.read_lock():
                live = sum(len(d) for d in self._buffer)
            if self._auto_compact_at is None or live < self._auto_compact_at:
                return

    def _compact_once(self, mode: str) -> bool:
        """One rotate → fold → snapshot → swap cycle.  Caller holds
        ``_compact_lock`` (compactions are single-flight)."""
        with self._rw.write_lock():
            if not self._buffer and not self._compacting:
                return False
            # Seal the WAL segment *in the same critical section* that
            # freezes the buffer: the sealed segments then hold exactly
            # the frozen batches, which is what makes the snapshot's
            # through_segment GC safe.
            sealed_segment = self._wal.rotate() if self._wal else None
            self._compacting = self._compacting + self._buffer
            self._buffer = []
            base = self._base
            frozen = list(self._compacting)
        t0 = time.perf_counter()
        try:
            with self._tracer.start("compact", kind="compact",
                                    mode=mode) as root:
                merged = Dataset.concat(
                    [base.dataset, *frozen]).sorted_by_time()
                new_windows: list[SealedWindow] = []
                active = merged
                if self._window_seconds is not None:
                    with self._tracer.start("seal-windows", parent=root):
                        active, new_windows = self._seal_windows(merged)
                with self._tracer.start("rebuild", parent=root,
                                        records=len(active)):
                    new_base = self._build_base(active)
                if self._wal is not None:
                    with self._tracer.start("snapshot", parent=root):
                        self._wal.snapshot(
                            active, through_segment=sealed_segment,
                            extra=self._snapshot_extra(
                                self._windows + new_windows))
                with self._rw.write_lock():
                    self._base = new_base
                    self._windows.extend(new_windows)
                    self._compacting = []
                    self._compactions += 1
                    buffered = self._delta_records_unlocked()
        except BaseException as exc:
            # Rebuild failed off to the side: the serving set was never
            # touched; return the frozen batches to the head of the
            # buffer (their WAL segments are still on disk — the
            # snapshot that would have GC'd them never committed).
            with self._rw.write_lock():
                self._compacting = []
                self._buffer = frozen + self._buffer
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
            self._metrics.histogram(
                "repro_ingest_compaction_seconds").observe(
                time.perf_counter() - t0)
            if new_windows:
                self._metrics.counter(
                    "repro_ingest_windows_sealed_total").inc(len(new_windows))
            self._metrics.gauge("repro_ingest_windows").set(
                len(self._windows))
            self._metrics.gauge("repro_ingest_buffer_records").set(buffered)
        self.maybe_anti_entropy()
        return True

    def _seal_windows(
        self, merged: Dataset
    ) -> tuple[Dataset, list[SealedWindow]]:
        """Split ``merged`` into the active (open-window) dataset and
        newly sealed on-disk windows for everything older."""
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
            windows.append(self._materialize_window(
                part, float(bucket) * window, float(bucket + 1) * window))
        return active, windows

    def _materialize_window(self, dataset: Dataset, t_lo: float,
                            t_hi: float) -> SealedWindow:
        from repro.storage.config import hydrate_store, materialize_store

        self._seal_seq += 1
        root = os.path.join(self._wal.dir, _WINDOW_DIR,
                            f"{_WINDOW_PREFIX}{self._seal_seq:06d}")
        cost_params = None
        if self._cost_model is not None:
            cost_params = tuple(
                (name, self._cost_model.params_for(name).scan_rate,
                 self._cost_model.params_for(name).extra_time)
                for name in self._cost_model.encoding_names)
        config = materialize_store(
            dataset,
            [(spec.scheme, spec.encoding, spec.name) for spec in self._specs],
            root, cost_params=cost_params)
        return SealedWindow(t_lo=t_lo, t_hi=t_hi, root=root,
                            records=len(dataset), config=config,
                            store=hydrate_store(config))

    # -- anti-entropy -----------------------------------------------------------

    def maybe_anti_entropy(self, force: bool = False):
        """Run :meth:`anti_entropy` when the schedule says it is due
        (``anti_entropy_interval`` seconds on the injectable clock), or
        always with ``force=True``; returns the sweep reports or None."""
        if self._anti_entropy_interval is None and not force:
            return None
        now = self._clock()
        if not force and self._last_anti_entropy is not None and \
                now - self._last_anti_entropy < self._anti_entropy_interval:
            return None
        self._last_anti_entropy = now
        return self.anti_entropy()

    def anti_entropy(self, n_queries: int = 4, seed: int = 7) -> list:
        """CRC + majority-vote sweep over every sealed window.

        Each window's on-disk units are verified with
        :func:`repro.verify.verify_store`: per-unit CRCs against the
        manifests, cross-replica majority vote on the recovered content,
        and a small differential query sweep.  Returns one
        :class:`~repro.verify.StoreVerification` per window and
        publishes ``repro_antientropy_*`` counters.
        """
        from repro.storage.unit import DirectoryStore
        from repro.verify.diskcheck import verify_store

        with self._rw.read_lock():
            windows = list(self._windows)
        self._last_anti_entropy = self._clock()
        reports = []
        all_ok = True
        with self._tracer.start("anti-entropy", kind="anti-entropy",
                                windows=len(windows)):
            for w in windows:
                verification = verify_store(
                    DirectoryStore(w.config.replicas[0].store_root),
                    [ref.manifest_path for ref in w.config.replicas],
                    n_queries=n_queries, seed=seed)
                reports.append(verification)
                if self._metrics is not None:
                    self._metrics.counter(
                        "repro_antientropy_windows_total").inc()
                    if not verification.ok:
                        self._metrics.counter(
                            "repro_antientropy_failures_total").inc()
                all_ok = all_ok and verification.ok
        if self._metrics is not None:
            self._metrics.counter("repro_antientropy_sweeps_total").inc()
            self._metrics.gauge("repro_antientropy_ok").set(
                1.0 if all_ok else 0.0)
        return reports

    # -- reads ----------------------------------------------------------------

    def _read_state(self):
        with self._rw.read_lock():
            return (self._base, list(self._windows),
                    self._compacting + self._buffer)

    def _execute(self, requests: list[ReadRequest], opts: ExecOptions, *,
                 batch: bool, replica: str | None = None, plan=None):
        """The single read entry (see
        :class:`~repro.storage.reads.ReadSurface`), fanned over the
        layers: each sealed window answers the requests whose range
        reaches its time span, the base replicas answer all of them
        (and take the caller's ``plan``), and the delta buffer — a layer
        whose decode is the identity — is filtered brute force.

        Per request the layers merge in the order sealed windows (oldest
        first), base, buffer, so a raw :class:`Box3` is matched against
        its exact bounds in every layer and results agree with a scan of
        :meth:`dataset` up to record order.  Stats sum the replica
        scans, keeping the base's serving replica; the buffer filter is
        accounted separately (``buffer_seconds`` /
        ``buffer_bytes_scanned``).  A request any layer could not serve
        ends in that layer's :class:`DegradedReadError`.
        """
        base, windows, delta = self._read_state()
        answers: list[list[QueryResult]] = [[] for _ in requests]
        errors: dict[int, DegradedReadError] = {}
        layer_stats: list[WorkloadStats] = []

        def scan_layer(store: BlotStore, idxs, layer_plan=None):
            outcomes, used_plan, stats = store._execute(
                [requests[i] for i in idxs], opts, batch=batch,
                replica=replica, plan=layer_plan)
            for i, outcome in zip(idxs, outcomes):
                if isinstance(outcome, DegradedReadError):
                    errors.setdefault(i, outcome)
                else:
                    answers[i].append(outcome)
            if stats is not None:
                layer_stats.append(stats)
            return used_plan

        for w in windows:
            idxs = [i for i, r in enumerate(requests) if w.intersects(r.box)]
            if idxs:
                scan_layer(w.store, idxs)
        plan = scan_layer(base, range(len(requests)), plan)
        delta_bytes = sum(d.binary_size_bytes() for d in delta)
        delta_records = sum(len(d) for d in delta)
        buffered = self._scan_buffer(delta, requests, opts,
                                     records=delta_records, bytes=delta_bytes)

        total_records = len(self)
        outcomes: list = []
        for i, request in enumerate(requests):
            if i in errors:
                outcomes.append(errors[i])
                continue
            layers = answers[i]
            matched, buffer_seconds = buffered[i]
            if request.count:
                merged = returned = sum(r.records for r in layers) + matched
            else:
                pieces = [r.records for r in layers] + matched
                merged = (pieces[0] if len(pieces) == 1
                          else Dataset.concat(pieces))
                returned = len(merged)
            parts = [r.stats for r in layers]
            outcomes.append(QueryResult(records=merged, stats=QueryStats(
                replica_name=parts[-1].replica_name,  # the base's
                partitions_involved=sum(p.partitions_involved for p in parts),
                records_scanned=sum(p.records_scanned for p in parts)
                + delta_records,
                records_returned=returned,
                bytes_read=sum(p.bytes_read for p in parts),
                seconds=sum(p.seconds for p in parts),
                total_records=total_records,
                retries=sum(p.retries for p in parts),
                failovers=sum(p.failovers for p in parts),
                buffer_seconds=buffer_seconds,
                buffer_bytes_scanned=delta_bytes,
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
        stats = WorkloadStats(
            n_queries=len(requests),
            seconds=total("seconds"),
            bytes_read=total("bytes_read"),
            records_scanned=total("records_scanned")
            + len(requests) * delta_records,
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
            buffer_seconds=sum(seconds for _, seconds in buffered),
            buffer_bytes_scanned=len(requests) * delta_bytes,
        )
        return outcomes, plan, stats

    def _scan_buffer(self, delta: list[Dataset], requests: list[ReadRequest],
                     opts: ExecOptions, **span_attrs) -> list[tuple]:
        """Filter the delta buffer for every request: per request, the
        fold's answer over the buffered batches (a count, or the matching
        records batch by batch) and the seconds that took."""
        if not delta:
            return [(0 if r.count else [], 0.0) for r in requests]
        # The buffer filter is engine work too: give it a span that joins
        # the caller's trace (remote context included), so a stitched
        # request tree shows time spent in the unindexed delta alongside
        # the replica scans.
        tracer = self._tracer if opts.trace else NULL_RECORDER
        out = []
        with tracer.start("buffer_scan", context=opts.trace_context,
                          batches=len(delta), requests=len(requests),
                          **span_attrs):
            for request in requests:
                t0 = time.perf_counter()
                if request.count:
                    matched = sum(d.count_in_box(request.box) for d in delta)
                else:
                    matched = [d.filter_box(request.box) for d in delta]
                out.append((matched, time.perf_counter() - t0))
        return out


def _default_cost_model(specs: list[ReplicaSpec]) -> CostModel | None:
    """Calibration-table fallback for multi-replica stores built without
    an explicit cost model; ``None`` when an encoding has no default
    entry (the caller must then pin queries with ``replica=``)."""
    from repro.costmodel.model import EncodingCostParams
    from repro.storage.config import DEFAULT_COST_PARAMS

    defaults = {name: (rate, extra)
                for name, rate, extra in DEFAULT_COST_PARAMS}
    needed = {spec.encoding.name for spec in specs}
    if not needed <= set(defaults):
        return None
    return CostModel({
        name: EncodingCostParams(scan_rate=defaults[name][0],
                                 extra_time=defaults[name][1])
        for name in needed
    })


def _window_seq(root: str) -> int | None:
    name = os.path.basename(root.rstrip("/"))
    if name.startswith(_WINDOW_PREFIX):
        try:
            return int(name[len(_WINDOW_PREFIX):])
        except ValueError:
            return None
    return None


def _gc_orphan_windows(wal_dir: str, committed: list[SealedWindow]) -> None:
    """Delete window directories a crashed compaction wrote but never
    committed (the snapshot.json replace is the commit point)."""
    windows_root = os.path.join(wal_dir, _WINDOW_DIR)
    keep = {os.path.abspath(w.root) for w in committed}
    try:
        names = os.listdir(windows_root)
    except FileNotFoundError:
        return
    for name in names:
        path = os.path.join(windows_root, name)
        if (name.startswith(_WINDOW_PREFIX)
                and os.path.abspath(path) not in keep):
            shutil.rmtree(path, ignore_errors=True)
