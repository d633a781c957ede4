"""Per-store write-ahead log: crash durability for the ingest path.

The paper's NerdTracker scenario is a continuous GPS feed; the delta
buffer of :class:`~repro.storage.ingest.IngestingBlotStore` lives in
memory, so before this module a crash lost every record appended since
the last compaction.  The WAL closes that window: every appended batch
is written — CRC-framed, length-prefixed — to an append-only segment
file *before* it becomes visible to queries, and ``replay()`` after a
restart reconstructs the buffer with zero loss.

The torn-tail discipline is the binary twin of
:class:`~repro.obs.timeseries.TimeseriesStore`'s JSONL sealing: a crash
mid-``write`` can tear at most the final frame.  On replay, the first
frame whose header is short, whose body is short, or whose CRC fails
marks the torn tail; everything before it is intact (length-prefixed
frames cannot be re-synchronized past a bad one), the file is truncated
back to the last intact frame boundary, and the next append starts
clean.  A CRC-intact frame whose payload fails to decode, or whose kind
byte this version does not write, is *not* a torn tail — that is real
corruption (or a log written in another frame format) and raises
:class:`WalError`; skipping it would silently drop acknowledged records.

Layout under the WAL directory::

    wal-00000001.log   CRC-framed segments (appends since the commit)
    snapshot.json      commit point: the last segment the owner has
                       folded, plus opaque owner metadata naming where
                       the folded records live now (the ingest store's
                       ``base/base-<n>/`` and ``windows/window-<n>/``
                       replica sets, relative to this directory)

The log holds records only inside frames.  Segment rotation ties it to
compaction: the ingest store rotates at compaction start, folds exactly
the sealed segments' batches into replica sets, flushes those
(:func:`fsync_tree`), then commits ``snapshot.json`` naming them and the
last sealed segment — one ``os.replace`` making the new sets live and
the folded segments dead.  Segments at or below ``through_segment`` are
deleted after the commit; a crash between commit and GC merely leaves
stale segments that replay skips.

Frame format (little-endian)::

    [u32 body_len][u32 crc32(body)][body = 1 kind byte + payload]

Kind ``APPEND`` (2) carries one :class:`~repro.data.dataset.Dataset`
batch as :func:`repro.encoding.rowbin.encode_rows` bytes — the packed,
bit-exact row codec the ROW encodings already use.  Kind 1 was the same
batch as an uncompressed ``.npz`` archive; no decoder for it is kept, so
a log tail holding kind-1 frames is refused by name.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from typing import Any

from repro.data.dataset import Dataset
from repro.encoding.rowbin import decode_rows, encode_rows

__all__ = ["WriteAheadLog", "WalError", "KIND_APPEND", "wal_state_exists",
           "fsync_tree"]

_HEADER = struct.Struct("<II")
#: Sanity bound on one frame's body; a length field beyond it is treated
#: as a torn/garbage tail, not an attempt to allocate gigabytes.
_MAX_BODY = 1 << 31

KIND_APPEND = 2

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_SNAPSHOT_META = "snapshot.json"
#: ``snapshot.json`` layout version.  Format 1 named a raw
#: ``snapshot-<k>.npz`` payload; format 2 is the JSON-only commit.
_SNAPSHOT_FORMAT = 2


def wal_state_exists(wal_dir: str) -> bool:
    """Whether ``wal_dir`` holds durable WAL state (a committed snapshot
    or any log segment) that :meth:`IngestingBlotStore.open` can resume
    from."""
    try:
        names = os.listdir(wal_dir)
    except (FileNotFoundError, NotADirectoryError):
        return False
    return any(
        name == _SNAPSHOT_META
        or (name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX))
        for name in names
    )


class WalError(RuntimeError):
    """Real WAL corruption: an intact-CRC frame that cannot be decoded,
    or commit metadata that is unreadable or in another format."""


def _fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_tree(root: str) -> None:
    """Flush every file and directory under ``root``, and ``root``'s
    entry in its parent, to stable storage — what an owner calls on a
    replica set it is about to name in :meth:`WriteAheadLog.snapshot`,
    whose segment GC deletes the only other copy of those records."""
    for dirpath, _, files in os.walk(root):
        for name in files:
            _fsync_path(os.path.join(dirpath, name))
        _fsync_path(dirpath)
    _fsync_path(os.path.dirname(os.path.abspath(root)))


class WriteAheadLog:
    """Append-only, CRC-framed, segment-rotated write-ahead log.

    Thread-safe; the ingest store calls :meth:`append` under its
    writers' mutex anyway, but the internal lock keeps the WAL safe
    standalone.

    ``fsync=True`` adds an ``os.fsync`` after every append — full
    power-loss durability at a per-batch syscall cost; the default
    (flush only) survives process crashes, the failure mode the ingest
    tests exercise.

    ``metrics`` is an optional
    :class:`~repro.obs.MetricsRegistry`; when bound the WAL publishes
    ``repro_wal_appends_total``, ``repro_wal_bytes_total``,
    ``repro_wal_torn_tails_total``, ``repro_wal_replayed_batches_total``
    and ``repro_wal_snapshots_total``.
    """

    def __init__(self, wal_dir: str, *, fsync: bool = False, metrics=None):
        self.dir = str(wal_dir)
        self.fsync = bool(fsync)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._fh = None  # the current segment, opened by the first append
        os.makedirs(self.dir, exist_ok=True)
        # Resume appends into a fresh segment above everything on disk:
        # the previous process may have died mid-frame, and sealing
        # happens on replay — never append onto a possibly-torn tail.
        ids = self._segment_ids_unlocked()
        self._current = max(max(ids, default=0), self.snapshot_meta()[0]) + 1

    # -- paths -------------------------------------------------------------

    def _segment_path(self, segment_id: int) -> str:
        return os.path.join(
            self.dir, f"{_SEGMENT_PREFIX}{segment_id:08d}{_SEGMENT_SUFFIX}")

    def _meta_path(self) -> str:
        return os.path.join(self.dir, _SNAPSHOT_META)

    def _segment_ids_unlocked(self) -> list[int]:
        ids = []
        try:
            names = os.listdir(self.dir)
        except FileNotFoundError:
            return []
        for name in names:
            if (name.startswith(_SEGMENT_PREFIX)
                    and name.endswith(_SEGMENT_SUFFIX)):
                try:
                    ids.append(int(
                        name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]))
                except ValueError:
                    continue
        return sorted(ids)

    def segment_ids(self) -> list[int]:
        """Ids of the segment files currently on disk, ascending."""
        with self._lock:
            return self._segment_ids_unlocked()

    @property
    def current_segment(self) -> int:
        """The segment id new appends go to."""
        with self._lock:
            return self._current

    # -- metrics -----------------------------------------------------------

    def _bump(self, name: str, amount: float = 1.0) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)

    # -- writing -----------------------------------------------------------

    def append(self, dataset: Dataset) -> int:
        """Durably log one batch; returns the frame's size in bytes.

        The frame is written and flushed before this returns, so a
        batch acknowledged to the caller is recoverable by
        :meth:`replay` after any process crash.
        """
        body = bytes([KIND_APPEND]) + encode_rows(dataset)
        frame = _HEADER.pack(len(body), zlib.crc32(body)) + body
        with self._lock:
            if self._fh is None:
                self._fh = open(self._segment_path(self._current), "ab")
            self._fh.write(frame)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        self._bump("repro_wal_appends_total")
        self._bump("repro_wal_bytes_total", len(frame))
        return len(frame)

    def rotate(self) -> int:
        """Seal the current segment and direct appends to a fresh one.

        Returns the sealed segment's id — the value a subsequent
        :meth:`snapshot` passes as ``through_segment`` once every batch
        up to the seal has been folded into the owner's replica sets.
        """
        with self._lock:
            sealed = self._current
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            self._current = sealed + 1
            return sealed

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- snapshot ----------------------------------------------------------

    def snapshot(self, through_segment: int,
                 extra: dict[str, Any] | None = None) -> None:
        """Commit that segments <= ``through_segment`` are folded.

        ``snapshot.json`` is replaced atomically — the single commit
        point for ``through_segment``, the owner's ``extra`` metadata
        (which names where the folded records live; the owner has
        already flushed them) and the segment GC that follows.
        """
        with self._lock:
            meta = {
                "format": _SNAPSHOT_FORMAT,
                "through_segment": int(through_segment),
                "extra": extra or {},
            }
            meta_tmp = self._meta_path() + ".tmp"
            with open(meta_tmp, "w", encoding="utf-8") as f:
                f.write(json.dumps(meta, sort_keys=True))
                f.flush()
                os.fsync(f.fileno())
            os.replace(meta_tmp, self._meta_path())
            _fsync_path(self.dir)

            # Post-commit GC of the folded segments.  A crash in here
            # only leaves stale files that replay skips.
            for seg_id in self._segment_ids_unlocked():
                if seg_id <= through_segment:
                    try:
                        os.remove(self._segment_path(seg_id))
                    except OSError:
                        pass
        self._bump("repro_wal_snapshots_total")

    def snapshot_meta(self) -> tuple[int, dict[str, Any]]:
        """The committed ``(through_segment, extra)``; ``(0, {})`` when
        nothing has ever been committed."""
        try:
            with open(self._meta_path(), "r", encoding="utf-8") as f:
                meta = json.load(f)
        except FileNotFoundError:
            return 0, {}
        except ValueError as exc:
            raise WalError(f"snapshot.json is not valid JSON: {exc}") from exc
        if meta.get("format") != _SNAPSHOT_FORMAT:
            raise WalError(
                f"snapshot.json is format {meta.get('format', 1)!r} (format 1 "
                f"kept a raw .npz snapshot beside the log); this version "
                f"reads format {_SNAPSHOT_FORMAT} only — re-create the store "
                f"from its source records")
        return int(meta["through_segment"]), meta.get("extra", {})

    # -- replay ------------------------------------------------------------

    def _read_segment(self, path: str) -> list[Dataset]:
        """Decode one segment's intact frames; truncate any torn tail."""
        batches: list[Dataset] = []
        try:
            f = open(path, "r+b")
        except FileNotFoundError:
            return batches
        with f:
            good_end = 0
            torn = False
            while True:
                header = f.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    torn = len(header) > 0
                    break
                length, crc = _HEADER.unpack(header)
                if length == 0 or length > _MAX_BODY:
                    torn = True
                    break
                body = f.read(length)
                if len(body) < length or zlib.crc32(body) != crc:
                    torn = True
                    break
                if body[0] != KIND_APPEND:
                    raise WalError(
                        f"CRC-intact WAL frame of kind {body[0]} in {path!r}: "
                        f"this version reads kind {KIND_APPEND} only (kind 1 "
                        f"was the .npz frame) — compact the store with the "
                        f"version that wrote it, or re-create it")
                try:
                    batches.append(decode_rows(body[1:]))
                except ValueError as exc:
                    raise WalError("CRC-intact WAL frame failed to decode: "
                                   f"{exc}") from exc
                good_end = f.tell()
            if torn:
                self._bump("repro_wal_torn_tails_total")
                f.truncate(good_end)
        return batches

    def replay(self) -> list[Dataset]:
        """Every batch appended after the committed snapshot, in order.

        Reads segments above the snapshot's ``through_segment``
        ascending, sealing torn tails in place.  The returned batches,
        on top of the replica sets the commit names, reconstruct exactly
        the acknowledged ingest state at the moment of the crash.
        """
        with self._lock:
            through = self.snapshot_meta()[0]
            batches: list[Dataset] = []
            for seg_id in self._segment_ids_unlocked():
                if seg_id <= through:
                    continue
                batches.extend(self._read_segment(self._segment_path(seg_id)))
        self._bump("repro_wal_replayed_batches_total", len(batches))
        return batches
