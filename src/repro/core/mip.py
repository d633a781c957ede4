"""The 0-1 MIP formulation of replica selection (paper Section III-B).

Variables: ``x_j`` (replica j present) and ``y_ij`` (query i processed on
replica j).  Minimize Σ w_i·c_ij·y_ij (Eq. 5) subject to

    Σ_j s_j·x_j ≤ b                 (Eq. 1, storage)
    Σ_j y_ij = 1        ∀i          (Eq. 2, one replica per query)
    y_ij ≤ x_j          ∀i,j        (Eq. 3, per-query linking) or
    Σ_i y_ij ≤ n·x_j    ∀j          (Eq. 4, aggregated linking)

The paper replaces the n·m constraints of Eq. 3 with the m aggregated
constraints of Eq. 4; both forms are built here so the ablation bench can
compare them.  Two backends solve the model: ``"bnb"`` — our from-scratch
branch-and-bound over the x-space (default; the y-optimum is implied) —
and ``"scipy"`` — the HiGHS MILP solver on the explicit matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bnb import branch_and_bound_select
from repro.core.problem import Selection, SelectionInstance

if TYPE_CHECKING:  # scipy is imported where the matrices are built
    from scipy import sparse


@dataclass(frozen=True)
class MipFormulation:
    """Explicit matrices of the 0-1 MIP (all variables binary).

    Variable layout: ``z = [x_0..x_{m-1}, y_00, y_01, .., y_{n-1,m-1}]``
    with y in query-major order.
    """

    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    n_queries: int
    n_replicas: int
    constraint_form: str
    big_m_cost: float

    @property
    def n_variables(self) -> int:
        return self.n_replicas + self.n_queries * self.n_replicas

    @property
    def n_constraints(self) -> int:
        return self.a_ub.shape[0] + self.a_eq.shape[0]


def build_mip(
    instance: SelectionInstance, constraint_form: str = "aggregated"
) -> MipFormulation:
    """Assemble the MIP matrices for ``instance``.

    ``constraint_form``: ``"aggregated"`` (Eq. 4, m linking rows) or
    ``"per-query"`` (Eq. 3, n·m linking rows).  Infinite costs are
    replaced by a big-M exceeding any feasible workload cost, preserving
    the optimum whenever a finite-cost solution exists.
    """
    if constraint_form not in ("aggregated", "per-query"):
        raise ValueError(f"unknown constraint form {constraint_form!r}")
    from scipy import sparse

    n, m = instance.n_queries, instance.n_replicas
    weights = instance.weights
    costs = instance.costs
    finite = costs[np.isfinite(costs)]
    big_m = float(finite.max() if finite.size else 1.0) * max(n, 1) * 10.0 + 1.0
    wc = weights[:, None] * np.where(np.isfinite(costs), costs, big_m)

    objective = np.concatenate([np.zeros(m), wc.ravel()])

    def y_col(i: int, j: int) -> int:
        return m + i * m + j

    # -- inequality rows ---------------------------------------------------
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    b_ub: list[float] = []
    row = 0
    # Eq. 1: storage.
    for j in range(m):
        rows.append(row)
        cols.append(j)
        vals.append(float(instance.storage[j]))
    b_ub.append(float(instance.budget))
    row += 1
    if constraint_form == "aggregated":
        # Eq. 4: sum_i y_ij - n*x_j <= 0.
        for j in range(m):
            for i in range(n):
                rows.append(row)
                cols.append(y_col(i, j))
                vals.append(1.0)
            rows.append(row)
            cols.append(j)
            vals.append(-float(n))
            b_ub.append(0.0)
            row += 1
    else:
        # Eq. 3: y_ij - x_j <= 0.
        for i in range(n):
            for j in range(m):
                rows.append(row)
                cols.append(y_col(i, j))
                vals.append(1.0)
                rows.append(row)
                cols.append(j)
                vals.append(-1.0)
                b_ub.append(0.0)
                row += 1
    n_vars = m + n * m
    a_ub = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(row, n_vars), dtype=np.float64
    )

    # -- equality rows (Eq. 2) ------------------------------------------------
    e_rows: list[int] = []
    e_cols: list[int] = []
    e_vals: list[float] = []
    for i in range(n):
        for j in range(m):
            e_rows.append(i)
            e_cols.append(y_col(i, j))
            e_vals.append(1.0)
    a_eq = sparse.csr_matrix(
        (e_vals, (e_rows, e_cols)), shape=(n, n_vars), dtype=np.float64
    )

    return MipFormulation(
        objective=objective,
        a_ub=a_ub,
        b_ub=np.array(b_ub),
        a_eq=a_eq,
        b_eq=np.ones(n),
        n_queries=n,
        n_replicas=m,
        constraint_form=constraint_form,
        big_m_cost=big_m,
    )


def solve_mip(
    instance: SelectionInstance,
    backend: str = "bnb",
    constraint_form: str = "aggregated",
    max_nodes: int = 20_000_000,
) -> Selection:
    """Solve the replica selection MIP exactly.

    ``backend="bnb"`` uses :func:`branch_and_bound_select` (the explicit
    y-variables are unnecessary there); ``backend="scipy"`` builds the
    full matrices and calls ``scipy.optimize.milp`` (HiGHS).
    """
    if backend == "bnb":
        sel = branch_and_bound_select(instance, max_nodes=max_nodes)
        return Selection(
            selected=sel.selected,
            cost=sel.cost,
            storage=sel.storage,
            optimal=sel.optimal,
            solver=f"mip-bnb/{constraint_form}",
            nodes_explored=sel.nodes_explored,
        )
    if backend != "scipy":
        raise ValueError(f"unknown MIP backend {backend!r}")

    from scipy.optimize import LinearConstraint, milp

    # The explicit model forces every query onto a chosen replica
    # (Eq. 2-4), so it cannot express the empty selection: with no
    # affordable replica (or no queries) HiGHS would report the model
    # infeasible even though ∅ is the valid optimum under the
    # capped-cost convention.  Short-circuit those instances.
    affordable = instance.storage <= instance.budget + 1e-9
    if instance.n_queries == 0 or not affordable.any():
        return Selection(
            selected=(),
            cost=instance.workload_cost(()),
            storage=0.0,
            optimal=True,
            solver=f"mip-scipy/{constraint_form}",
        )

    formulation = build_mip(instance, constraint_form)
    constraints = [
        LinearConstraint(formulation.a_ub, -np.inf, formulation.b_ub),
        LinearConstraint(formulation.a_eq, formulation.b_eq, formulation.b_eq),
    ]
    result = milp(
        c=formulation.objective,
        constraints=constraints,
        integrality=np.ones(formulation.n_variables),
        bounds=(0, 1),
    )
    if not result.success:
        raise RuntimeError(f"MILP solver failed: {result.message}")
    x = result.x[: instance.n_replicas]
    selected = tuple(int(j) for j in np.flatnonzero(x > 0.5))
    # Drop replicas the assignment never uses (x_j=1 with no y mass is
    # feasible but wasteful; HiGHS may leave them in degenerate optima).
    if selected:
        used = set(int(j) for j in instance.assignment(selected))
        selected = tuple(sorted(used))
    return Selection(
        selected=selected,
        cost=instance.workload_cost(selected),
        storage=instance.storage_of(selected),
        optimal=True,
        solver=f"mip-scipy/{constraint_form}",
    )
