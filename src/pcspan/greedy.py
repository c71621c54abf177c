"""Top-level greedy driver: repeatedly take an approximate minimum-density
junction tree, accumulate its edges at zero marginal cost, and drop the
demands it resolves."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import InternalInvariantError
from .junction import min_density_junction_tree
from .model import Edge, PcsInstance
from .rcsp import feasible_witness


@dataclass
class IterationTrace:
    root: int
    density: Fraction
    resolved: tuple  # original demand indices
    tree_edges: tuple
    marginal_cost: Fraction  # under the iteration's repriced costs


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


def _residual(instance: PcsInstance, free_edges, demand_indices) -> PcsInstance:
    """The instance with `free_edges` repriced to zero and only the demands
    `demand_indices` left."""
    edges = tuple(
        Edge(e.tail, e.head, Fraction(0), e.res) if eid in free_edges else e
        for eid, e in enumerate(instance.edges)
    )
    return PcsInstance(
        n=instance.n,
        edges=edges,
        demands=tuple(instance.demands[i] for i in demand_indices),
        tau=instance.tau,
        packing=instance.packing,
        covering=instance.covering,
    )


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
    returns a theta-feasible subgraph.  Already-selected edges are repriced
    to zero in later rounds so the greedy exploits sunk cost (a
    strictly-no-worse refinement, flagged in the diagnostics); the reported
    total uses original costs once per edge.
    """
    remaining = list(range(len(instance.demands)))
    selected = set()
    iterations = []
    round_no = 0
    while remaining:
        round_no += 1
        residual = _residual(instance, selected, remaining)
        rng = random.Random(config.seed * 1_000_003 + round_no)
        tree = min_density_junction_tree(residual, mode, config, rng, roots)
        resolved_orig = tuple(sorted(remaining[i] for i in tree.resolved))
        if not resolved_orig:
            raise InternalInvariantError("junction tree resolved no demand")
        iterations.append(
            IterationTrace(
                root=tree.root,
                density=tree.density,
                resolved=resolved_orig,
                tree_edges=tuple(sorted(tree.edges)),
                marginal_cost=tree.cost,
            )
        )
        selected |= set(tree.edges)
        remaining = [i for i in remaining if i not in set(resolved_orig)]
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
        diagnostics={"repriced_sunk_cost": True, "rounds": round_no},
    )
