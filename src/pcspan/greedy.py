"""Top-level greedy driver: repeatedly take an approximate minimum-density
junction tree, accumulate its edges at zero marginal cost, and drop the
demands it resolves."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .config import DEFAULT_CONFIG, SolverConfig
from .junction import min_density_junction_tree, product_graph_for
from .model import PcsInstance
from .rcsp import feasible_witness


@dataclass
class IterationTrace:
    root: int
    density: Fraction
    resolved: tuple  # original demand indices
    tree_edges: tuple
    marginal_cost: Fraction  # under the iteration's prices


@dataclass
class SolveReport:
    mode: str
    seed: int
    epsilon: Fraction
    theta: Fraction | None
    edges: tuple  # selected edge ids, sorted
    cost: Fraction  # original costs, each edge counted once
    iterations: list
    witnesses: dict  # original demand index -> Walk
    verified: bool
    diagnostics: dict = field(default_factory=dict)


def solve_pcs(
    instance: PcsInstance,
    mode: str = "integer",
    config: SolverConfig = DEFAULT_CONFIG,
    roots=None,
) -> SolveReport:
    """Approximation driver for the packing-covering spanner problem: the
    iterative density procedure, in which each round takes an approximate
    minimum-density junction tree (rooted in ``roots`` when given) and must
    resolve at least one demand.

    mode "integer" requires positive integer lengths and returns an exactly
    feasible subgraph; mode "theta" handles rational/negative lengths and
    returns a theta-feasible subgraph.  One product graph serves every
    round; already-selected edges are priced at zero in later rounds so the
    greedy exploits sunk cost (a strictly-no-worse refinement, flagged in
    the diagnostics); the reported total uses original costs once per edge.
    """
    remaining = list(range(len(instance.demands)))
    pg = product_graph_for(instance, mode, config) if remaining else None
    selected = set()
    iterations = []
    while remaining:
        tree = min_density_junction_tree(pg, selected, remaining, config, len(iterations), roots)
        iterations.append(
            IterationTrace(
                root=tree.root,
                density=tree.density,
                resolved=tuple(sorted(tree.resolved)),
                tree_edges=tuple(sorted(tree.edges)),
                marginal_cost=tree.cost,
            )
        )
        selected |= tree.edges
        remaining = [i for i in remaining if i not in tree.resolved]
    theta = config.theta if mode == "theta" else None
    witnesses = {}
    verified = True
    for di, d in enumerate(instance.demands):
        w = feasible_witness(instance, d, theta=theta, edge_subset=sorted(selected))
        if w is None:
            verified = False
        else:
            witnesses[di] = w
    return SolveReport(
        mode=mode,
        seed=config.seed,
        epsilon=config.epsilon,
        theta=theta,
        edges=tuple(sorted(selected)),
        cost=instance.total_cost(selected),
        iterations=iterations,
        witnesses=witnesses,
        verified=verified,
        diagnostics={"repriced_sunk_cost": True, "rounds": len(iterations)},
    )
