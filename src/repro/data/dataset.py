"""Columnar, numpy-backed container for location tracking data."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.data.record import FIELD_NAMES, FIELDS, Record, validate_columns
from repro.geometry import Box3


class Dataset:
    """An immutable-by-convention columnar set of location tracking records.

    Columns follow the schema in :mod:`repro.data.record`.  All filtering
    operations return new :class:`Dataset` views/copies; the underlying
    arrays should not be mutated after construction.
    """

    __slots__ = ("_columns", "_length")

    def __init__(self, columns: dict[str, np.ndarray]):
        self._length = validate_columns(columns)
        self._columns = dict(columns)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty() -> "Dataset":
        """A dataset with zero records."""
        from repro.data.record import empty_columns

        return Dataset(empty_columns())

    @staticmethod
    def from_records(records: Iterable[Record]) -> "Dataset":
        """Materialize an iterable of :class:`Record` rows into columns."""
        rows = list(records)
        columns: dict[str, np.ndarray] = {}
        for i, field in enumerate(FIELDS):
            columns[field.name] = np.array([r[i] for r in rows], dtype=field.dtype)
        return Dataset(columns)

    @staticmethod
    def from_npz(path) -> "Dataset":
        """Load a dataset saved by :meth:`to_npz` (lossless: bit-exact
        column arrays, unlike the ``%.6f``-rounded CSV path)."""
        with np.load(path) as archive:
            return Dataset({name: archive[name] for name in FIELD_NAMES})

    def to_npz(self, path) -> None:
        """Save the raw column arrays to an uncompressed ``.npz`` file.

        The round-trip is bit-exact, which makes this the right on-disk
        format for a :class:`~repro.storage.StoreConfig` dataset that
        spawned workers must rehydrate identically to the parent.
        """
        np.savez(path, **{name: self._columns[name] for name in FIELD_NAMES})

    @staticmethod
    def concat(parts: "Iterable[Dataset]") -> "Dataset":
        """Concatenate datasets, preserving record order across parts."""
        parts = list(parts)
        if not parts:
            return Dataset.empty()
        columns = {
            name: np.concatenate([p._columns[name] for p in parts])
            for name in FIELD_NAMES
        }
        return Dataset(columns)

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> np.ndarray:
        """The raw column array for schema field ``name``."""
        return self._columns[name]

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """A shallow copy of the column dict."""
        return dict(self._columns)

    def __iter__(self) -> Iterator[Record]:
        return self.records()

    def records(self) -> Iterator[Record]:
        """Iterate rows as :class:`Record` tuples (slow path; for tests,
        CSV export and the row encoder)."""
        cols = [self._columns[name] for name in FIELD_NAMES]
        for i in range(self._length):
            yield Record(*(col[i].item() for col in cols))

    def record_at(self, i: int) -> Record:
        """The single row at index ``i`` as a :class:`Record`."""
        return Record(*(self._columns[name][i].item() for name in FIELD_NAMES))

    def __eq__(self, other: object) -> bool:
        """Equal when every column holds the same bytes in the same order,
        so a NaN equals itself and ``-0.0`` differs from ``0.0``."""
        if not isinstance(other, Dataset):
            return NotImplemented
        return len(self) == len(other) and all(
            self._columns[name].tobytes() == other._columns[name].tobytes()
            for name in FIELD_NAMES
        )

    def __hash__(self) -> int:  # pragma: no cover - datasets are not hashable
        raise TypeError("Dataset is not hashable")

    def __repr__(self) -> str:
        return f"Dataset(n={self._length})"

    # -- geometry -----------------------------------------------------------

    def bounding_box(self) -> Box3:
        """The tight spatio-temporal bounding box ``U`` of the data."""
        if self._length == 0:
            raise ValueError("bounding_box of an empty dataset is undefined")
        x, y, t = self._columns["x"], self._columns["y"], self._columns["t"]
        return Box3(
            float(x.min()), float(x.max()),
            float(y.min()), float(y.max()),
            float(t.min()), float(t.max()),
        )

    def filter_box(self, box: Box3) -> "Dataset":
        """Records spatio-temporally contained by ``box`` (closed bounds)."""
        return self.take(self.mask_box(box))

    def mask_box(self, box: Box3) -> np.ndarray:
        """Boolean mask of records contained by ``box``."""
        return box_mask(self._columns["x"], self._columns["y"],
                        self._columns["t"], box)

    def count_in_box(self, box: Box3) -> int:
        """Number of records contained by ``box`` without materializing them."""
        return int(self.mask_box(box).sum())

    # -- reshaping ------------------------------------------------------------

    def take(self, selector: np.ndarray) -> "Dataset":
        """A new dataset holding the rows picked by an index array or mask."""
        return Dataset({name: col[selector] for name, col in self._columns.items()})

    def head(self, n: int) -> "Dataset":
        """The first ``n`` records."""
        return self.take(np.arange(min(n, self._length)))

    def sample(self, n: int, rng: np.random.Generator) -> "Dataset":
        """A uniform sample of ``n`` records without replacement.

        The paper builds its cost model and selects replicas from "a small
        portion of the data"; this is that sampling primitive.
        """
        if n >= self._length:
            return self
        idx = rng.choice(self._length, size=n, replace=False)
        idx.sort()
        return self.take(idx)

    def sorted_by(self, *names: str) -> "Dataset":
        """A copy sorted lexicographically by the given columns."""
        if not names:
            raise ValueError("need at least one sort key")
        keys = [self._columns[name] for name in reversed(names)]
        order = np.lexsort(keys)
        return self.take(order)

    def sorted_by_time(self) -> "Dataset":
        """A copy sorted by (t, oid) — the canonical in-partition order."""
        return self.sorted_by("t", "oid")

    def split_at(self, indices: list[int]) -> "list[Dataset]":
        """Split into consecutive chunks at the given row offsets."""
        parts = []
        bounds = [0, *indices, self._length]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            parts.append(self.take(np.arange(lo, hi)))
        return parts

    # -- size accounting ---------------------------------------------------

    def binary_size_bytes(self) -> int:
        """Total size of the raw column arrays (the dense binary layout)."""
        return int(sum(col.nbytes for col in self._columns.values()))

    def csv_size_bytes(self) -> int:
        """Approximate size of this dataset rendered as uncompressed CSV.

        Estimated from a bounded sample of rendered rows; exact for small
        datasets.  This is the paper's baseline denominator for compression
        ratios (the 3.7 GB figure).
        """
        if self._length == 0:
            return 0
        from repro.data.csvio import render_csv_rows

        probe = min(self._length, 2048)
        rendered = render_csv_rows(self.head(probe))
        return int(round(len(rendered) / probe * self._length))


def box_mask(x: np.ndarray, y: np.ndarray, t: np.ndarray,
             box: Box3) -> np.ndarray:
    """Boolean mask of the points ``(x, y, t)`` contained by ``box``
    (closed bounds; a NaN coordinate is never contained)."""
    return (
        (x >= box.x_min) & (x <= box.x_max)
        & (y >= box.y_min) & (y <= box.y_max)
        & (t >= box.t_min) & (t <= box.t_max)
    )
