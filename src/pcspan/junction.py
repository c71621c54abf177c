"""Minimum-density resource-constrained junction trees.

For each candidate root: product graph -> useful-state pruning -> metric
closures -> label-cover LP over their h-step root chains -> representative
pruning -> bucketing -> randomized rounding -> assembly.  A root where only
one demand has relation pairs skips the LP: its best direct walk
(`single_pair_tree`) is taken instead.  The product graph
depends on neither the root nor the greedy round, so one graph
(`product_graph_for`) serves a whole solve; a round supplies only its prices
and its open demands (`Round`).  Each root draws from its own random
stream, seeded by (seed, round, root), so its tree does not depend on which
roots ran before it.  The best (lowest-density) tree across roots wins,
with deterministic tie-breaking toward smaller root ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, SolverConfig
from .density_lp import (
    JunctionTree,
    assemble_junction_tree,
    bucket_and_scale,
    build_lp,
    fallback_tree,
    gst_round,
    prune,
    single_pair_tree,
    solve_lp,
    tree_order,
    union_pair_tree,
)
from .errors import ContractError, InternalInvariantError, RoundingFailureError
from .layered import CostClosure, build_closure
from .model import PcsInstance
from .product import (
    ProductGraph,
    build_product_graph,
    connectable_relation_pairs,
    reachable,
    states_reachable_from_root_right,
    states_reaching_root_left,
)
from .rational import common_scale, to_units
from .scaling import scale_instance


def product_graph_for(
    instance: PcsInstance, mode: str = "integer", config: SolverConfig = DEFAULT_CONFIG
) -> ProductGraph:
    """The product graph one solve shares across its rounds.  Mode "theta"
    scales lengths once, for all demands: a residual demand set has a Delta
    no smaller and a hop bound no larger, so every demand keeps the scaling
    guarantee."""
    if not instance.demands:
        raise ContractError("junction solving needs at least one demand")
    if mode not in ("integer", "theta"):
        raise ContractError(f"unknown mode {mode!r}")
    problem = scale_instance(instance, config.theta) if mode == "theta" else instance
    return build_product_graph(problem, config)


@dataclass(frozen=True)
class Round:
    """A greedy round: its open demands (original indices, ascending) and
    each base edge's int price in units of 1 / cost_scale, bought edges 0."""

    demands: tuple
    prices: tuple
    cost_scale: int


def greedy_round(instance: PcsInstance, free=frozenset(), demands=None) -> Round:
    """The round that prices the edges in ``free`` at 0 and leaves
    ``demands`` open (all of them when None)."""
    costs = [Fraction(0) if eid in free else e.cost for eid, e in enumerate(instance.edges)]
    scale = common_scale(costs)
    demands = range(len(instance.demands)) if demands is None else sorted(demands)
    return Round(tuple(demands), tuple(to_units(c, scale) for c in costs), scale)


@dataclass
class RootedLabelCover:
    """Everything the density LP needs for one root.

    The up closure covers the L states that reach the root's L copy, the down
    closure the R states its R copy reaches.  A demand's relation labels map
    to the states where its walk starts (up) and ends (down).
    """

    root: int
    pg: ProductGraph
    prices: tuple  # the round's int price per base edge
    cost_scale: int
    h: int
    root_left: int  # product vid of the root's L copy
    root_right: int
    up: CostClosure
    down: CostClosure
    src_attach: dict  # (demand_idx, label) -> L state vid
    snk_attach: dict  # (demand_idx, label) -> R state vid
    relations: dict  # demand_idx -> list of (I, J) label pairs


def build_label_cover(
    pg: ProductGraph, rnd: Round, root: int, config: SolverConfig = DEFAULT_CONFIG
):
    """The per-root reduction of the product graph ``pg`` to minimum-density
    Steiner label cover over the open demands of ``rnd``, under its prices.

    Returns None when no demand has a relation pair whose endpoints connect
    to the root (such roots are skipped before any LP work).
    """
    root_left = pg.root_copy("L", root)
    root_right = pg.root_copy("R", root)
    reach_left = states_reaching_root_left(pg, root)
    reach_right = states_reachable_from_root_right(pg, root)
    relations = connectable_relation_pairs(pg, rnd.demands, reach_left, reach_right)
    if not any(relations.values()):
        return None
    instance = pg.instance

    src_states = {}
    snk_states = {}
    for di, pairs in sorted(relations.items()):
        d = instance.demands[di]
        for (i_lab, j_lab) in pairs:
            src_states[(di, i_lab)] = pg.vertex_ids[("S", "L", d.source, i_lab)]
            snk_states[(di, j_lab)] = pg.vertex_ids[("S", "R", d.target, j_lab)]

    useful_left = _forward_reachable(pg, src_states.values()) & reach_left
    useful_right = _backward_reachable(pg, snk_states.values()) & reach_right
    useful_left.add(root_left)
    useful_right.add(root_right)

    def out_edges(v):
        # parallel arcs come in base-edge order, so Dijkstra's strict < keeps
        # the cheapest, then the smallest base edge
        for idx in pg.out_adj[v]:
            pe = pg.edges[idx]
            yield idx, pe.head, rnd.prices[pe.base_edge]

    return RootedLabelCover(
        root=root,
        pg=pg,
        prices=rnd.prices,
        cost_scale=rnd.cost_scale,
        h=config.height,
        root_left=root_left,
        root_right=root_right,
        up=build_closure(useful_left, out_edges, config.max_product_vertices),
        down=build_closure(useful_right, out_edges, config.max_product_vertices),
        src_attach=src_states,
        snk_attach=snk_states,
        relations=relations,
    )


# the useful-state searches keep module-level names of their own so that
# bench/tracer.py can time them apart from the root reachability
def _forward_reachable(pg, seeds) -> set:
    return reachable(pg, seeds)


def _backward_reachable(pg, seeds) -> set:
    return reachable(pg, seeds, backward=True)


def junction_tree_for_root(
    pg: ProductGraph, rnd: Round, root: int, rng: random.Random, config=DEFAULT_CONFIG
):
    """Pipeline for one root of the product graph ``pg`` in round ``rnd``,
    drawing from ``rng``; None when the root resolves nothing."""
    bundle = build_label_cover(pg, rnd, root, config)
    if bundle is None:
        return None
    open_demands = [di for di, pairs in bundle.relations.items() if pairs]
    if len(open_demands) == 1:
        return single_pair_tree(bundle, open_demands[0])
    cover = build_lp(bundle)
    values = solve_lp(cover)
    pruned = {}
    gammas = {}
    for di, pairs in sorted(bundle.relations.items()):
        if not pairs:
            continue
        masses = {
            (i_lab, j_lab): values.y.get((di, i_lab, j_lab), Fraction(0))
            for (i_lab, j_lab) in pairs
        }
        gamma = sum(masses.values(), Fraction(0))
        gammas[di] = gamma
        if gamma > 0:
            pruned[di] = prune(pairs, masses, pg.budget_units(di), pg.instance.dim)
    candidates = []
    if pruned:
        bucket = bucket_and_scale(gammas, pg.instance.dim)
        try:
            rounded = gst_round(cover, values, pruned, bucket, rng, config)
            candidates.append(assemble_junction_tree(bundle, rounded))
        except RoundingFailureError:
            pass
    candidates.append(fallback_tree(bundle, gammas))
    candidates.append(union_pair_tree(bundle))
    return min(candidates, key=tree_order)


def min_density_junction_tree(
    pg: ProductGraph,
    free=frozenset(),
    demands=None,
    config: SolverConfig = DEFAULT_CONFIG,
    round_no: int = 0,
    roots=None,
) -> JunctionTree:
    """Best junction tree over all candidate roots of ``pg`` (from
    `product_graph_for`) in the round that prices the base edges in ``free``
    at 0 and leaves the demands ``demands`` open (all of them when None).

    ``round_no`` numbers the greedy round; root r draws from the stream
    seeded by the string "seed/round_no/r" (str seeds hash the same in every
    process, unlike ``hash()``).  Resolved demands keep their indices in
    ``pg.instance``; the tree's cost and density are under the round's
    prices.
    """
    rnd = greedy_round(pg.instance, free, demands)
    best = None
    root_list = sorted(roots) if roots is not None else range(pg.instance.n)
    for root in root_list:
        rng = random.Random(f"{config.seed}/{round_no}/{root}")
        tree = junction_tree_for_root(pg, rnd, root, rng, config)
        if tree is None:
            continue
        if best is None or tree_order(tree) < tree_order(best):
            best = tree
    if best is None:
        raise InternalInvariantError(
            "no root resolves any demand; feasible instances always admit one"
        )
    return best
