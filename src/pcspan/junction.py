"""Minimum-density resource-constrained junction trees.

A greedy round (`Round`) is its prices, its open demands, and one cost
closure under those prices over the product states the open demands' walks
can use.  For each candidate root: the relation pairs whose ends connect to
the root, read off the round's closure and named by their two product
states (a terminal is its state) -> label-cover LP over their h-step root
chains -> representative pruning -> bucketing -> randomized rounding
-> assembly, weighed against the union of every open demand's best direct
walk (`union_pair_tree`).  A root where only one demand has relation pairs
skips the LP and takes that union, its one best direct walk.  The product
graph depends on neither the root nor the greedy round, so one graph
(`product_graph_for`) serves a whole solve.  Each root draws from its own
random stream, seeded by (seed, round, root), so its tree does not depend
on which roots ran before it.  The best (lowest-density) tree across roots
wins, with deterministic tie-breaking toward smaller root ids.
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
    fallback_tree,  # bench/tracer.py wraps it by name; the solve never calls it
    gst_round,
    prune,
    solve_lp,
    tree_order,
    union_pair_tree,
)
from .errors import ContractError, InternalInvariantError
from .layered import CostClosure, build_closure
from .model import PcsInstance
# bench/tracer.py wraps the three per-root searches by name, so they stay
# importable here though the solve reads every root off the round's closure
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
    """A greedy round: its open demands (original indices, ascending), each
    base edge's int price in units of 1 / cost_scale (bought edges 0), and
    the cost closure, under those prices, of the product states the open
    demands' walks can use."""

    demands: tuple
    prices: tuple
    cost_scale: int
    closure: CostClosure


def greedy_round(
    pg: ProductGraph, free=frozenset(), demands=None, config: SolverConfig = DEFAULT_CONFIG
) -> Round:
    """The round on ``pg`` that prices the edges in ``free`` at 0 and leaves
    ``demands`` open (all of them when None).  Its one closure holds the L
    states the open demands' relation pairs start from with every state they
    reach, and the R states they end in with every state that reaches one
    (L and R states share no product edge).  A cheapest path between two
    states that reach a root's L copy (or that its R copy reaches) stays
    among such states, so a root's rows equal a closure over its own."""
    instance = pg.instance
    costs = [Fraction(0) if eid in free else e.cost for eid, e in enumerate(instance.edges)]
    scale = common_scale(costs)
    prices = tuple(to_units(c, scale) for c in costs)
    demands = tuple(range(len(instance.demands)) if demands is None else sorted(demands))
    sources = {i for di in demands for i, _j in pg.relation_vids[di]}
    sinks = {j for di in demands for _i, j in pg.relation_vids[di]}
    states = _forward_reachable(pg, sources) | _backward_reachable(pg, sinks)

    def out_edges(v):
        # parallel arcs come in base-edge order, so Dijkstra's strict < keeps
        # the cheapest, then the smallest base edge
        for idx in pg.out_adj[v]:
            pe = pg.edges[idx]
            yield idx, pe.head, prices[pe.base_edge]

    closure = build_closure(states, out_edges, config.max_product_vertices)
    return Round(demands, prices, scale, closure)


@dataclass
class RootedLabelCover:
    """Everything the density LP needs for one root.

    A terminal is its product state: ``relations[di]`` lists the kept (L
    state, R state) pairs of demand ``di``, where its walk starts (up) and
    ends (down).  The rows of the round's closure hold the up paths from
    the L states to the root's L copy and the down paths from its R copy.
    """

    root: int
    pg: ProductGraph
    rnd: Round  # its prices, cost scale and closure
    h: int
    root_left: int  # product vid of the root's L copy
    root_right: int
    relations: dict  # demand_idx -> list of (L vid, R vid) pairs


def build_label_cover(
    pg: ProductGraph, rnd: Round, root: int, config: SolverConfig = DEFAULT_CONFIG
):
    """The per-root reduction of the product graph ``pg`` to minimum-density
    Steiner label cover over the open demands of ``rnd``, under its prices:
    a demand keeps, in label order, the relation pairs whose source state
    reaches the root's L copy and whose target state its R copy reaches.
    None when no demand keeps one (such roots get no LP work)."""
    root_left = pg.root_copy("L", root)
    root_right = pg.root_copy("R", root)
    dist = rnd.closure.dist
    down = dist.get(root_right, {})
    relations = {
        di: [(i, j) for i, j in pg.relation_vids[di] if root_left in dist[i] and j in down]
        for di in rnd.demands
    }
    if not any(relations.values()):
        return None
    return RootedLabelCover(root, pg, rnd, config.height, root_left, root_right, relations)


# the round's state searches keep module-level names of their own so that
# bench/tracer.py can time them
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
    direct = union_pair_tree(bundle, open_demands)
    if len(open_demands) == 1:
        return direct
    cover = build_lp(bundle)
    values = solve_lp(cover)
    keys = pg.vertex_keys
    pruned = {}
    gammas = {}
    for di, pairs in sorted(bundle.relations.items()):
        if not pairs:
            continue
        # prune works on label pairs; a state's label is its key's last entry
        masses = {(keys[i][2], keys[j][2]): values.y[(di, i, j)] for i, j in pairs}
        gamma = sum(masses.values(), Fraction(0))
        gammas[di] = gamma
        if gamma > 0:
            pruned[di] = prune(list(masses), masses, pg.budget_units(di), pg.instance.dim)
    bucket = bucket_and_scale(gammas, pg.instance.dim)
    rounded = gst_round(cover, values, pruned, bucket, rng)
    return min((assemble_junction_tree(bundle, rounded), direct), key=tree_order)


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
    rnd = greedy_round(pg, free, demands, config)
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
