"""Differential checks for the replica-selection solvers.

On instances small enough for :func:`~repro.core.bruteforce.brute_force_select`
to enumerate, every solver's decision is checked against the exact
optimum: the exact solvers (branch and bound, MIP) must *match* it, the
heuristics (greedy, local search) must be feasible and no better than
it, and nobody may ever return an infeasible
:class:`~repro.core.problem.Selection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.bnb import branch_and_bound_select
from repro.core.bruteforce import brute_force_select
from repro.core.greedy import greedy_select
from repro.core.localsearch import local_search_select
from repro.core.problem import Selection, SelectionInstance

_REL_TOL = 1e-9

#: name -> (solver callable, claims optimality?)
SOLVERS: dict[str, tuple[Callable[[SelectionInstance], Selection], bool]] = {
    "greedy": (greedy_select, False),
    "local-search": (local_search_select, False),
    "bnb": (branch_and_bound_select, True),
}


def _mip_scipy(instance: SelectionInstance) -> Selection | None:
    """The HiGHS-backed MIP, or None when scipy.optimize.milp is absent."""
    try:
        from repro.core.mip import solve_mip

        return solve_mip(instance, backend="scipy")
    except ImportError:
        return None


@dataclass
class SolverCheckReport:
    """Outcome of a solver differential run."""

    instances: int = 0
    checks: int = 0
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.issues)} ISSUES"
        lines = [f"solver differential: {status} "
                 f"({self.checks} checks over {self.instances} instances)"]
        lines.extend("  " + issue for issue in self.issues)
        return "\n".join(lines)


def check_instance(instance: SelectionInstance,
                   report: SolverCheckReport | None = None,
                   label: str = "") -> SolverCheckReport:
    """Run every solver against brute force on one (small) instance."""
    if report is None:
        report = SolverCheckReport()
    report.instances += 1
    prefix = f"{label}: " if label else ""
    exact = brute_force_select(instance)
    optimum = instance.capped_workload_cost(exact.selected)

    solutions: list[tuple[str, Selection, bool]] = []
    for name, (solver, claims_optimal) in SOLVERS.items():
        solutions.append((name, solver(instance), claims_optimal))
    mip = _mip_scipy(instance)
    if mip is not None:
        solutions.append(("mip-scipy", mip, True))

    for name, selection, claims_optimal in solutions:
        report.checks += 1
        if not instance.is_feasible(selection.selected):
            report.issues.append(
                f"{prefix}{name} returned infeasible selection "
                f"{selection.selected} (storage "
                f"{instance.storage_of(selection.selected):.3g} > budget "
                f"{instance.budget:.3g})")
            continue
        cost = instance.capped_workload_cost(selection.selected)
        tol = _REL_TOL * max(1.0, abs(optimum))
        if cost < optimum - tol:
            report.issues.append(
                f"{prefix}{name} beat the brute-force optimum "
                f"({cost!r} < {optimum!r}) — oracle or solver is wrong")
        elif claims_optimal and cost > optimum + tol:
            report.issues.append(
                f"{prefix}{name} claims exactness but returned cost "
                f"{cost!r}, optimum is {optimum!r} "
                f"(selected {selection.selected}, "
                f"optimal {exact.selected})")
    return report


def check_budget_sweep(
    instance: SelectionInstance,
    report: SolverCheckReport | None = None,
    label: str = "",
) -> SolverCheckReport:
    """Differential-check one instance across a sweep of budgets —
    zero, insufficient (below the smallest replica), single-replica,
    and effectively unlimited."""
    if report is None:
        report = SolverCheckReport()
    smallest = float(instance.storage.min()) if instance.n_replicas else 0.0
    total = float(instance.storage.sum())
    for budget in (0.0, smallest * 0.5, smallest, total * 0.4, total):
        check_instance(instance.with_budget(float(budget)), report,
                       label=f"{label}b={budget:.3g}")
    return report
