"""Storage-unit backends.

A BLOT partition is stored in a *storage unit* "optimized for sequential
read: an object stored in Amazon S3, a file on HDFS, a segment of a file
on a local file system" (Section II-B).  This module provides the
key-value store abstraction and two backends:

- :class:`InMemoryStore`  — dict-backed, for tests and simulations;
- :class:`DirectoryStore` — one file per unit in a local directory
  (the "file on HDFS" shape).

Every backend also serves **zero-copy reads**: :meth:`UnitStore.get_view`
returns a ``memoryview`` over the stored bytes — a view of the in-memory
blob, or an ``mmap`` of the backing file — so the decode pipeline never
copies a blob just to read it.  Views are read-only; callers must not
hold them across a ``delete`` of the same key (repair flows re-fetch).
"""

from __future__ import annotations

import mmap
import os
import threading
from typing import Iterator, Protocol


class UnitStore(Protocol):
    """Write-once key-value storage for encoded partitions.

    ``delete`` exists for repair flows (a damaged unit is dropped and
    re-written); ordinary replica builds never overwrite.
    """

    def put(self, key: str, blob: bytes) -> None: ...

    def get(self, key: str) -> bytes: ...

    def get_view(self, key: str) -> memoryview: ...

    def size(self, key: str) -> int: ...

    def delete(self, key: str) -> None: ...

    def keys(self) -> Iterator[str]: ...

    def total_bytes(self) -> int: ...


class UnitNotFound(KeyError):
    """Raised when a storage unit key does not exist."""


class DuplicateUnit(ValueError):
    """Raised when a storage unit key is written twice."""


class InMemoryStore:
    """Dict-backed store used by tests and the cluster simulators."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._total = 0

    def put(self, key: str, blob: bytes) -> None:
        if key in self._blobs:
            raise DuplicateUnit(f"unit {key!r} already stored")
        data = bytes(blob)
        self._blobs[key] = data
        self._total += len(data)

    def get(self, key: str) -> bytes:
        try:
            return self._blobs[key]
        except KeyError:
            raise UnitNotFound(key) from None

    def get_view(self, key: str) -> memoryview:
        return memoryview(self.get(key))

    def size(self, key: str) -> int:
        return len(self.get(key))

    def delete(self, key: str) -> None:
        if key not in self._blobs:
            raise UnitNotFound(key)
        self._total -= len(self._blobs.pop(key))

    def keys(self) -> Iterator[str]:
        return iter(self._blobs)

    def total_bytes(self) -> int:
        # Maintained incrementally: this sits on the storage-budget check
        # path, which runs per replica-selection round over stores with
        # many thousands of units.
        return self._total


class DirectoryStore:
    """One file per storage unit under ``root`` (keys become file names).

    Keys may contain ``/`` to create sub-directories, as replica builders
    do (``replica-name/part-000123``).
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._maps: dict[str, mmap.mmap] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # mmap views and locks cannot cross a process boundary; a worker
        # that unpickles this store re-maps lazily on first get_view.
        return {"root": self.root}

    def __setstate__(self, state: dict) -> None:
        self.root = state["root"]
        self._maps = {}
        self._lock = threading.Lock()

    def _path(self, key: str) -> str:
        path = os.path.normpath(os.path.join(self.root, key))
        if not path.startswith(os.path.normpath(self.root)):
            raise ValueError(f"key {key!r} escapes the store root")
        return path

    def put(self, key: str, blob: bytes) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # "x" creates the file or fails: no window between a check and the
        # write in which a second writer could overwrite the unit.
        try:
            f = open(path, "xb")
        except FileExistsError:
            raise DuplicateUnit(f"unit {key!r} already stored") from None
        with f:
            f.write(blob)

    def get(self, key: str) -> bytes:
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                return f.read()
        except FileNotFoundError:
            raise UnitNotFound(key) from None

    def get_view(self, key: str) -> memoryview:
        """Zero-copy read: a ``memoryview`` over a cached read-only mmap
        of the unit's file (empty units fall back to an empty view —
        mmap cannot map zero bytes)."""
        with self._lock:
            m = self._maps.get(key)
            if m is not None:
                return memoryview(m)
            path = self._path(key)
            try:
                with open(path, "rb") as f:
                    if os.fstat(f.fileno()).st_size == 0:
                        return memoryview(b"")
                    m = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except FileNotFoundError:
                raise UnitNotFound(key) from None
            self._maps[key] = m
            return memoryview(m)

    def size(self, key: str) -> int:
        try:
            return os.path.getsize(self._path(key))
        except FileNotFoundError:
            raise UnitNotFound(key) from None

    def delete(self, key: str) -> None:
        with self._lock:
            m = self._maps.pop(key, None)
            if m is not None:
                try:
                    m.close()
                except BufferError:
                    # A caller still holds a view; the map stays alive
                    # until that view is released, the file is unlinked
                    # regardless.
                    pass
        try:
            os.remove(self._path(key))
        except FileNotFoundError:
            raise UnitNotFound(key) from None

    def keys(self) -> Iterator[str]:
        for dirpath, _, files in os.walk(self.root):
            for name in files:
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, self.root)

    def total_bytes(self) -> int:
        return sum(self.size(k) for k in self.keys())
