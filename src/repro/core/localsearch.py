"""Local-search refinement of greedy selections.

Algorithm 1 is purely additive: once the budget is exhausted it cannot
revisit earlier picks.  Classic facility-location practice adds a swap
phase: repeatedly try replacing one selected replica with one unselected
replica (or dropping/adding one) whenever that lowers the workload cost
without breaching the budget.  The result dominates plain greedy and, in
the Figure 4 regime where greedy's approximation ratio spikes at tight
budgets, closes most of the gap to the exact optimum at polynomial cost
(each pass is ``O(k · m · n)``).
"""

from __future__ import annotations

from repro.core.greedy import greedy_select
from repro.core.problem import Selection, SelectionInstance


def local_search_select(
    instance: SelectionInstance,
    start: Selection | None = None,
    max_passes: int = 20,
) -> Selection:
    """Improve a selection by add / drop / swap moves to local optimality.

    ``start`` defaults to Algorithm 1's output.  Deterministic; first
    improving move is taken, passes repeat until a full pass finds no
    improving move (or ``max_passes`` is hit).
    """
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    if start is None:
        start = greedy_select(instance)
    selected = set(start.selected)
    m = instance.n_replicas
    best_cost = instance.capped_workload_cost(sorted(selected))
    used = instance.storage_of(sorted(selected))
    moves = 0

    def try_apply(candidate: set[int]) -> bool:
        nonlocal selected, best_cost, used, moves
        storage = instance.storage_of(sorted(candidate))
        if storage > instance.budget + 1e-9:
            return False
        cost = instance.capped_workload_cost(sorted(candidate))
        if cost < best_cost * (1 - 1e-12) - 1e-300:
            selected = candidate
            best_cost = cost
            used = storage
            moves += 1
            return True
        return False

    for _ in range(max_passes):
        improved = False
        outside = [j for j in range(m) if j not in selected]
        # Add moves.
        for j in outside:
            if try_apply(selected | {j}):
                improved = True
                break
        if improved:
            continue
        # Swap moves (and pure drops, which only help via freed budget —
        # cost can't drop, so skip pure drops as moves by themselves).
        for out_j in list(selected):
            without = selected - {out_j}
            for in_j in outside:
                if try_apply(without | {in_j}):
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    final = tuple(sorted(selected))
    return Selection(
        selected=final,
        cost=instance.workload_cost(final),
        storage=instance.storage_of(final),
        optimal=False,
        solver=f"greedy+local-search({moves} moves)",
    )
