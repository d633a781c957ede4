"""Figure 2 (in-text table) — the partitioning trade-off.

The paper illustrates three layouts answering one query:

            Np      data scanned S
    left     4      100%        (coarse uniform grid)
    middle   3       30%        (adaptive layout fitting the data)
    right    8       50%        (fine uniform grid)

and notes the middle case is obviously cheapest while left-vs-right needs
the cost model.  We regenerate the same comparison on real data: a
coarse grid, an adaptive equal-count k-d layout, and a fine grid, with
``Np``, ``S``, and the Eq. 7 estimated cost of each.

Expected shape (asserted): coarse scans the most data with the fewest
partitions; fine scans less data over the most partitions; the adaptive
layout minimizes estimated cost.
"""

import pytest

from repro import (
    CompositeScheme,
    GridPartitioner,
    KdTreePartitioner,
    Query,
    ReplicaProfile,
)
from repro.costmodel import expected_partitions

from benchmarks._report import emit, fmt_row


@pytest.fixture(scope="module")
def layouts(taxi_sample):
    return {
        "coarse-grid": GridPartitioner(2, 2, 1).build(taxi_sample),
        "adaptive-kd": CompositeScheme(KdTreePartitioner(16), 1).build(taxi_sample),
        "fine-grid": GridPartitioner(8, 8, 1).build(taxi_sample),
    }


@pytest.fixture(scope="module")
def query(taxi_sample):
    bb = taxi_sample.bounding_box()
    c = bb.centroid
    # A district-sized query over the densest part of town.
    return Query(bb.width * 0.3, bb.height * 0.3, bb.duration,
                 c.x + bb.width * 0.05, c.y - bb.height * 0.1, c.t)


def test_fig2_tradeoff(layouts, query, taxi_sample, emr_cost_model,
                       benchmark, capsys):
    rows = {}
    n = len(taxi_sample)
    for name, partitioning in layouts.items():
        profile = ReplicaProfile.from_partitioning(
            partitioning, "ROW-PLAIN", n, 0.0)
        involved = partitioning.involved(query.box())
        scanned = int(partitioning.counts[involved].sum())
        np_q = expected_partitions(profile, query)
        cost = emr_cost_model.query_cost(query, profile)
        rows[name] = (int(np_q), scanned / n, cost)

    benchmark.pedantic(
        lambda: layouts["adaptive-kd"].involved(query.box()),
        rounds=5, iterations=1,
    )

    lines = [fmt_row(["layout", "Np", "S scanned", "est cost s"], [12, 5, 10, 11])]
    for name, (np_q, s, cost) in rows.items():
        lines.append(fmt_row([name, np_q, f"{s:.1%}", cost], [12, 5, 10, 11]))
    lines.append("")
    lines.append("paper (illustration): left Np=4 S=100%; middle Np=3 S=30%; "
                 "right Np=8 S=50%")
    emit("fig2", "Figure 2: partitioning trade-off on one query", lines, capsys)

    coarse, adaptive, fine = rows["coarse-grid"], rows["adaptive-kd"], rows["fine-grid"]
    assert coarse[1] > fine[1]          # coarse scans more data
    assert coarse[0] < fine[0]          # ...over fewer partitions
    assert adaptive[2] <= coarse[2] and adaptive[2] <= fine[2]  # middle wins
