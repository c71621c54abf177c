"""Packing-covering spanner solver suite."""

from .config import DEFAULT_CONFIG, SolverConfig
from .greedy import SolveReport, solve_pcs
from .junction import JunctionTree, min_density_junction_tree, product_graph_for
from .model import (
    ConditionNumbers,
    Demand,
    Edge,
    PcsInstance,
    ResourceVector,
    Walk,
    condition_numbers,
    is_feasible,
    walk_resource,
)
from .rcsp import feasible_witness, hop_bound, verify_solution
from .reductions import (
    HopsetDemand,
    HopsetInstance,
    RcsInstance,
    essential_set_mode,
    solve_hopset,
    solve_rcs,
    verify_hopset,
)
from .scaling import ScaledInstance, compute_delta, scale_instance

__all__ = [
    "ConditionNumbers",
    "DEFAULT_CONFIG",
    "Demand",
    "Edge",
    "HopsetDemand",
    "HopsetInstance",
    "JunctionTree",
    "PcsInstance",
    "RcsInstance",
    "ResourceVector",
    "ScaledInstance",
    "SolveReport",
    "SolverConfig",
    "Walk",
    "compute_delta",
    "condition_numbers",
    "essential_set_mode",
    "feasible_witness",
    "hop_bound",
    "is_feasible",
    "min_density_junction_tree",
    "product_graph_for",
    "scale_instance",
    "solve_hopset",
    "solve_pcs",
    "solve_rcs",
    "verify_hopset",
    "verify_solution",
    "walk_resource",
]
