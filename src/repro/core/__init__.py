"""The paper's primary contribution: diverse replica selection.

Problem definition (Section III-A), NP-completeness reduction (Theorem
1), the 0-1 MIP exact solution (Section III-B) with a from-scratch
branch-and-bound solver, input-size reduction (Section III-C: workload
clustering + dominated-replica pruning), the Algorithm 1 greedy
(Section III-D), partial replication (the stated future work), and the
:class:`ReplicaAdvisor` facade gluing it to the cost model.
"""

from repro.core.advisor import AdvisorConfig, ReplicaAdvisor, SelectionReport
from repro.core.bnb import BranchAndBoundLimit, branch_and_bound_select
from repro.core.bruteforce import brute_force_select
from repro.core.frontier import (
    BudgetFrontier,
    FrontierPoint,
    cost_budget_frontier,
)
from repro.core.greedy import GreedyStep, greedy_select
from repro.core.grouping import WorkloadReduction, kmeans, reduce_workload
from repro.core.localsearch import local_search_select
from repro.core.mip import MipFormulation, build_mip, solve_mip
from repro.core.npcomplete import (
    selection_instance_from_set_cover,
    set_cover_decision,
    set_cover_from_selection,
)
from repro.core.partial import (
    PartialReplica,
    partial_selection_instance,
    record_fraction_in_box,
)
from repro.core.problem import Selection, SelectionInstance
from repro.core.pruning import PruningResult, prune_dominated
from repro.core.reselect import (
    QueryLogger,
    ReselectionConfig,
    ReselectionController,
    replica_builder,
    warm_reselect,
    workload_divergence,
)

__all__ = [
    "BudgetFrontier",
    "FrontierPoint",
    "AdvisorConfig",
    "QueryLogger",
    "BranchAndBoundLimit",
    "GreedyStep",
    "MipFormulation",
    "PartialReplica",
    "PruningResult",
    "ReplicaAdvisor",
    "ReselectionConfig",
    "ReselectionController",
    "Selection",
    "SelectionInstance",
    "SelectionReport",
    "WorkloadReduction",
    "branch_and_bound_select",
    "brute_force_select",
    "build_mip",
    "cost_budget_frontier",
    "greedy_select",
    "kmeans",
    "local_search_select",
    "partial_selection_instance",
    "prune_dominated",
    "record_fraction_in_box",
    "reduce_workload",
    "replica_builder",
    "warm_reselect",
    "workload_divergence",
    "selection_instance_from_set_cover",
    "set_cover_decision",
    "set_cover_from_selection",
    "solve_mip",
]
