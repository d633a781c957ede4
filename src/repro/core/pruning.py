"""Candidate-set reduction by dominance (paper Section III-C2).

Replica ``r1`` dominates ``r2`` when ``Storage(r1) ≤ Storage(r2)`` and
``Cost(q_i, r1) ≤ Cost(q_i, r2)`` for every workload query: dropping
``r2`` cannot change the optimal workload cost.  More generally a *set*
of replicas dominates a replica; finding the minimum dominant set is
itself NP-complete, so (like the paper) we use cheap heuristics:
pairwise dominance plus an optional bounded pair-set check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SelectionInstance

#: Replica pairs the pair-set dominance check tries per victim.
_MAX_PAIRS = 20_000


@dataclass(frozen=True)
class PruningResult:
    """Outcome of candidate pruning."""

    kept: tuple[int, ...]           # original replica indices, ascending
    dominated: tuple[int, ...]      # pruned replica indices
    instance: SelectionInstance     # restricted to `kept`

    @property
    def reduction(self) -> float:
        total = len(self.kept) + len(self.dominated)
        return len(self.dominated) / total if total else 0.0


def _pairwise_dominated(instance: SelectionInstance) -> np.ndarray:
    """Boolean mask of replicas dominated by some single other replica.

    Ties (identical cost column and storage) keep the lower index, so
    equivalent replicas never eliminate each other both ways.
    """
    costs = instance.costs
    storage = instance.storage
    m = instance.n_replicas
    dominated = np.zeros(m, dtype=bool)
    for j in range(m):
        if dominated[j]:
            continue
        # Candidates that j might dominate: storage_j <= storage_k.
        cheaper_or_equal = storage[j] <= storage + 1e-12
        cost_le = np.all(costs[:, j][:, None] <= costs + 1e-12, axis=0)
        dom = cheaper_or_equal & cost_le
        dom[j] = False
        # Strictness or index tie-break: identical columns keep the first.
        identical = (np.abs(storage - storage[j]) <= 1e-12) & np.all(
            np.abs(costs - costs[:, j][:, None]) <= 1e-12, axis=0
        )
        dom &= ~identical | (np.arange(m) > j)
        dominated |= dom
    return dominated


def _pair_set_dominated(
    instance: SelectionInstance, alive: np.ndarray, max_pairs: int
) -> np.ndarray:
    """Mark replicas dominated by a *pair* of smaller replicas — the
    bounded version of the paper's set-dominance heuristic."""
    costs = instance.costs
    storage = instance.storage
    dominated = np.zeros(instance.n_replicas, dtype=bool)
    alive_idx = np.flatnonzero(alive)
    # Check the largest replicas first: they are the likeliest victims.
    victims = alive_idx[np.argsort(-storage[alive_idx])]
    for j in victims:
        partners = [k for k in alive_idx
                    if k != j and not dominated[k] and storage[k] < storage[j]]
        checked = 0
        found = False
        for a_pos, a in enumerate(partners):
            if found or checked > max_pairs:
                break
            for b in partners[a_pos + 1:]:
                checked += 1
                if checked > max_pairs:
                    break
                if storage[a] + storage[b] > storage[j] + 1e-12:
                    continue
                if np.all(np.minimum(costs[:, a], costs[:, b]) <= costs[:, j] + 1e-12):
                    dominated[j] = True
                    found = True
                    break
    return dominated


def prune_dominated(
    instance: SelectionInstance,
    use_pair_sets: bool = False,
) -> PruningResult:
    """Drop dominated candidates; the optimal workload cost is preserved
    (pairwise dominance is exact; pair-set dominance is too, it just costs
    more to check)."""
    dominated = _pairwise_dominated(instance)
    if use_pair_sets:
        dominated |= _pair_set_dominated(instance, ~dominated, _MAX_PAIRS)
    kept = tuple(int(j) for j in np.flatnonzero(~dominated))
    if not kept:
        raise RuntimeError("pruning removed every candidate (bug)")
    return PruningResult(
        kept=kept,
        dominated=tuple(int(j) for j in np.flatnonzero(dominated)),
        instance=instance.restricted_to(kept),
    )
