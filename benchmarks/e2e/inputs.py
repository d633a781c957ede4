"""Seeded inputs: the dataset, the pinned replica set and the query streams.

Everything here is a pure function of ``--seed``; the program under test
only ever sees what these functions generate.
"""

from __future__ import annotations

import numpy as np

from repro import CompositeScheme, KdTreePartitioner, synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import centroid_range
from repro.workload import PAPER_QUERY_FRACTIONS, PAPER_QUERY_WEIGHTS, Query

RECORDS = 1_000_000
SMOKE_RECORDS = 100_000
NUM_TAXIS = 500

#: The pinned replica set.  Names are load-bearing: the default
#: ``<scheme>/<encoding>`` names contain ``/`` and make
#: ``materialize_store`` fail writing ``manifests/<name>.json``.
PINNED = (
    ("fine-colgzip", 256, 16, "COL-GZIP"),
    ("mid-rowgzip", 64, 8, "ROW-GZIP"),
    ("coarse-collzma", 16, 4, "COL-LZMA2"),
)
#: ``ingest_mixed`` rebuilds these at every compaction, so it uses the
#: two cheap-to-build shapes only.
INGEST = (
    ("mid-rowgzip", 64, 8, "ROW-GZIP"),
    ("coarse-colgzip", 16, 4, "COL-GZIP"),
)


def make_dataset(seed: int, records: int = RECORDS):
    return synthetic_shanghai_taxis(records, seed, num_taxis=NUM_TAXIS)


def replica_spec(row):
    """``(scheme, encoding, name)`` as ``materialize_store`` takes it."""
    name, leaves, slices, encoding = row
    return (CompositeScheme(KdTreePartitioner(leaves), slices),
            encoding_scheme_by_name(encoding), name)


def class_schedule(classes, n: int, rng: np.random.Generator,
                   block: int = 100) -> np.ndarray:
    """``n`` class indices (0-based into the paper's q1..q8) whose mix is
    ``PAPER_QUERY_WEIGHTS`` renormalised over ``classes``.

    Stratified, not sampled: every ``block`` consecutive draws hold each
    class in exact proportion (largest remainder), shuffled inside the
    block, so two seeds never differ in how many expensive queries a
    window of the stream holds.
    """
    weights = np.array([PAPER_QUERY_WEIGHTS[c] for c in classes])
    exact = weights / weights.sum() * block
    counts = np.floor(exact).astype(int)
    for i in np.argsort(exact - counts)[::-1][: block - counts.sum()]:
        counts[i] += 1
    pattern = np.repeat(np.array(classes), counts)
    blocks = [rng.permutation(pattern) for _ in range(-(-n // block))]
    return np.concatenate(blocks)[:n]


class QueryStream:
    """A pre-drawn, indexable stream of positioned queries.

    Parameters are drawn vectorised up front; ``Query`` objects are built
    on demand, so a long stream costs no set-up time.  Indexing wraps.
    """

    def __init__(self, universe, classes, n: int, rng: np.random.Generator,
                 centres: np.ndarray | None = None, block: int = 100):
        self.universe = universe
        self.cls = class_schedule(classes, n, rng, block)
        fractions = np.array(PAPER_QUERY_FRACTIONS)[self.cls]
        self.w = universe.width * fractions[:, 0]
        self.h = universe.height * fractions[:, 0]
        self.d = universe.duration * fractions[:, 1]
        if centres is None:
            centres = rng.uniform(size=(n, 3))
            u = universe
            # uniform over each query's own centroid range CR(QG)
            self.x = u.x_min + self.w / 2 + centres[:, 0] * (u.width - self.w)
            self.y = u.y_min + self.h / 2 + centres[:, 1] * (u.height - self.h)
            self.t = u.t_min + self.d / 2 + centres[:, 2] * (u.duration - self.d)
        else:
            self.x, self.y, self.t = self._clamp(centres)

    def _clamp(self, centres: np.ndarray):
        u = self.universe
        return (
            np.clip(centres[:, 0], u.x_min + self.w / 2, u.x_max - self.w / 2),
            np.clip(centres[:, 1], u.y_min + self.h / 2, u.y_max - self.h / 2),
            np.clip(centres[:, 2], u.t_min + self.d / 2, u.t_max - self.d / 2),
        )

    def __len__(self) -> int:
        return len(self.cls)

    def __getitem__(self, i: int) -> Query:
        i %= len(self.cls)
        return Query(float(self.w[i]), float(self.h[i]), float(self.d[i]),
                     float(self.x[i]), float(self.y[i]), float(self.t[i]))


def hot_centres(dataset, n: int, rng: np.random.Generator,
                zipf_s: float = 1.1, jitter: float = 0.002) -> np.ndarray:
    """``engine_hot`` centroids: 64 hot centres, Zipf(``zipf_s``) rank
    popularity, N(0, ``jitter`` x extent) around the chosen centre.

    The hot spots belong to the city, not to the seed: the centres are the
    4 x 4 x 4 lattice of the data's own marginal octiles (12.5 %, 37.5 %,
    ...) and their popularity order is one fixed shuffle, so every seed's
    top-ranked centres are the same mix of dense and sparse places.  The
    seed draws which centre each op visits, its jitter, its class and its
    kind.  (With 64 uniformly drawn centres the three top-ranked ones
    decided the run, and qps moved by a third from seed to seed.)
    """
    quantiles = [0.125, 0.375, 0.625, 0.875]
    axes = [np.quantile(dataset.column(c), quantiles) for c in ("x", "y", "t")]
    hot = np.array([(x, y, t) for x in axes[0] for y in axes[1]
                    for t in axes[2]])
    hot = hot[np.random.default_rng(0).permutation(len(hot))]
    popularity = 1.0 / np.arange(1, len(hot) + 1) ** zipf_s
    picks = rng.choice(len(hot), size=n, p=popularity / popularity.sum())
    u = dataset.bounding_box()
    extent = np.array([u.width, u.height, u.duration])
    return hot[picks] + rng.normal(size=(n, 3)) * jitter * extent


def core_centres(dataset, n: int, rng: np.random.Generator,
                 jitter: float = 0.02) -> np.ndarray:
    """``serve_scan`` centroids: the data's median position and time plus
    N(0, ``jitter`` x extent).  A scan is asked about the city at a busy
    hour, not about the empty corners of its bounding box: uniform
    centroids make a third of the scans return nothing and the cost of a
    run a lottery over seeds.  Keeping each class's answers alike in size
    is also what lets a ten-second window of ~35 scans report a steady
    median and tail."""
    u = dataset.bounding_box()
    centre = np.array([np.median(dataset.column(c)) for c in ("x", "y", "t")])
    extent = np.array([u.width, u.height, u.duration])
    return centre + rng.normal(size=(n, 3)) * jitter * extent


def pinned_query(universe, cls: int, rng: np.random.Generator) -> Query:
    """One uniformly placed query of paper class ``cls`` (0-based)."""
    sf, tf = PAPER_QUERY_FRACTIONS[cls]
    size = (universe.width * sf, universe.height * sf, universe.duration * tf)
    cr = centroid_range(universe, size)
    return Query(*size, rng.uniform(cr.x_min, cr.x_max),
                 rng.uniform(cr.y_min, cr.y_max),
                 rng.uniform(cr.t_min, cr.t_max))
