"""Ablation — greedy + local search vs plain greedy vs exact.

Figure 4 shows greedy's approximation ratio spiking at tight budgets
(1.46 at 0.5x in our reproduction).  The swap-based local-search
refinement is a polynomial-time middle ground; this bench quantifies how
much of the greedy-to-optimal gap it closes across the budget sweep.

Expected shape (asserted): local search never does worse than greedy,
never better than exact, and closes at least half of the total
greedy-to-optimal gap over the sweep.
"""

import time

from repro import branch_and_bound_select, greedy_select, local_search_select

from benchmarks._instances import paper_budget, paper_grid_instance
from benchmarks._report import emit, fmt_row

FACTORS = (0.5, 0.75, 0.9, 1.0, 1.25, 1.5)


def test_ablation_local_search(benchmark, capsys):
    base = paper_grid_instance(65e9)  # the scale where greedy's gap shows
    unit = paper_budget(base, copies=3)
    lines = [fmt_row(
        ["rel.budget", "greedy", "greedy+LS", "exact", "gap closed"],
        [10, 9, 10, 9, 10])]
    gap_total = 0.0
    gap_closed = 0.0
    times = {"greedy": 0.0, "ls": 0.0, "exact": 0.0}
    for factor in FACTORS:
        inst = base.with_budget(unit * factor)
        t0 = time.perf_counter()
        greedy = greedy_select(inst)
        times["greedy"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        refined = local_search_select(inst)
        times["ls"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        exact = branch_and_bound_select(inst)
        times["exact"] += time.perf_counter() - t0
        assert exact.optimal
        assert exact.cost - 1e-9 <= refined.cost <= greedy.cost + 1e-9
        gap = greedy.cost - exact.cost
        closed = greedy.cost - refined.cost
        gap_total += gap
        gap_closed += closed
        share = closed / gap if gap > 1e-9 else 1.0
        lines.append(fmt_row(
            [factor, greedy.cost / exact.cost, refined.cost / exact.cost,
             1.0, f"{share:.0%}"],
            [10, 9, 10, 9, 10]))
    lines.append(
        f"total gap closed: {gap_closed / gap_total:.0%}" if gap_total > 1e-9
        else "greedy was already optimal at every budget"
    )
    lines.append(
        f"cumulative time: greedy {times['greedy'] * 1e3:.1f} ms, "
        f"+LS {times['ls'] * 1e3:.1f} ms, exact {times['exact'] * 1e3:.1f} ms"
    )
    inst = base.with_budget(unit * 0.5)
    benchmark(lambda: local_search_select(inst))
    emit("ablation_local_search",
         "Ablation: swap local search on top of Algorithm 1", lines, capsys)
    if gap_total > 1e-9:
        assert gap_closed / gap_total >= 0.5
