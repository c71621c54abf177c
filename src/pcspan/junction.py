"""Minimum-density resource-constrained junction trees.

A greedy round (`Round`) is its prices, its open demands, one cost closure
under those prices over the product states the open demands' walks can use,
and per root, the relation pairs that connect there (named by their two
product states: a terminal is its state) with a lower bound on the density
of any tree rooted there.  The roots are visited best-first, by ascending
(bound, root).  A root whose bound lies strictly above the best density
found so far cannot win and returns None at once.  Every other root runs:
label-cover LP over its relation pairs' h-step root chains -> bucketing ->
representative pruning of the bucket's demands -> randomized rounding ->
assembly, weighed against the union of every open demand's best direct walk
(`union_pair_tree`).  A root where only one demand has relation pairs skips
the LP and takes that union, its one best direct walk.  The product graph
depends on neither the root nor the greedy round, so one graph
(`product_graph_for`) serves a whole solve.  Each root draws from its own
random stream, seeded by (seed, round, root), so its tree does not depend on
which roots ran, or were cut off, before it.
The best tree across roots under `tree_order` (lowest density, ties toward
more resolved demands, then smaller root ids) wins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import layered
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
from .errors import ContractError, NoResolvingRootError
from .layered import CostClosure, build_closure
from .model import PcsInstance
# bench/tracer.py wraps the three per-root searches by name, so they stay
# importable here though the solve reads every root off the round's closure
from .product import (
    ProductGraph,
    build_product_graph,
    connectable_relation_pairs,
    reachable,
    require_feasible_demands,
    states_reachable_from_root_right,
    states_reaching_root_left,
)
from .rational import common_scale, to_units
from .scaling import scale_instance


def product_graph_for(
    instance: PcsInstance, mode: str = "integer", config: SolverConfig = DEFAULT_CONFIG
) -> ProductGraph:
    """The product graph one solve shares across its rounds, returned only
    when every demand admits a feasible walk.  Each mode decides that from
    work the solve needs anyway.  In mode "integer" the graph holds the walk
    relation exactly, and `require_feasible_demands` reads it (raising
    `InfeasibleDemandError`).  Mode "theta" scales lengths once, for all
    demands, and the hop bound the scaling needs raises
    `InfeasibleWithinCapError` for a demand no walk satisfies.  Scaling once
    is sound for every round: a residual demand set has a Delta no smaller
    and a hop bound no larger, so every demand keeps the scaling
    guarantee."""
    if not instance.demands:
        raise ContractError("junction solving needs at least one demand")
    if mode not in ("integer", "theta"):
        raise ContractError(f"unknown mode {mode!r}")
    if mode == "theta":
        return build_product_graph(scale_instance(instance, config.theta), config)
    pg = build_product_graph(instance, config)
    require_feasible_demands(pg)
    return pg


@dataclass(frozen=True)
class Round:
    """A greedy round on the product graph ``pg`` at height ``h``: its open
    demands (original indices, ascending), each base edge's int price in
    units of 1 / cost_scale (bought edges 0), the cost closure, under those
    prices, of the product states the open demands' walks can use, and per
    root, the relation pairs that connect there (`_relations_at_root`) and a
    lower bound on the density of its trees (`_root_bounds`).  A root and
    its round are all that the per-root stages read."""

    pg: ProductGraph = field(repr=False)
    h: int  # closure steps per root chain (`SolverConfig.height`)
    demands: tuple
    prices: tuple
    cost_scale: int
    closure: CostClosure
    relations: tuple  # root -> {demand: [(L vid, R vid), ...]}, no empty lists
    bounds: tuple  # root -> Fraction, or None where relations[root] is empty


def greedy_round(
    pg: ProductGraph, free=frozenset(), demands=None, config: SolverConfig = DEFAULT_CONFIG
) -> Round:
    """The round on ``pg`` that prices the edges in ``free`` at 0 and leaves
    ``demands`` open (all of them when None).  Its one closure holds the L
    states the open demands' relation pairs start from with every state they
    reach, and the R states they end in with every state that reaches one
    (L and R states share no product edge).  A cheapest path between two
    states that reach a root's L copy (or that its R copy reaches) stays
    among such states, so a root's rows equal a closure over its own.  Every
    root's relation pairs and density bound are computed here, once."""
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
    relations = tuple(
        _relations_at_root(pg, closure, demands, root) for root in range(instance.n)
    )
    bounds = _root_bounds(pg, prices, scale, relations)
    return Round(pg, config.height, demands, prices, scale, closure, relations, bounds)


def _relations_at_root(pg: ProductGraph, closure: CostClosure, demands, root: int) -> dict:
    """Per demand of ``demands`` that has any, in label order, the relation
    pairs that connect at ``root`` in ``closure``: the source state reaches
    the root's L copy and the root's R copy reaches the target state."""
    root_left = pg.root_copy("L", root)
    dist = closure.dist
    down = dist.get(pg.root_copy("R", root), {})
    at_root = {}
    for di in demands:
        pairs = [(i, j) for i, j in pg.relation_vids[di] if root_left in dist[i] and j in down]
        if pairs:
            at_root[di] = pairs
    return at_root


def _root_bounds(pg: ProductGraph, prices, scale: int, relations) -> tuple:
    """Per root r, a lower bound on the density of every tree at r, or None
    when no demand has a relation pair there (``relations[r]`` is empty).

    A tree at r that resolves demand d holds, in its edge set, a base-graph
    path from d's source to r and one from r to its target, so it costs at
    least c_r(d) = max(dist(s, r), dist(r, t)) under the round's prices.
    The k demands it resolves cost at least the k-th smallest c_r, so its
    density is at least min over k of c_(k) / k.  The distances are plain
    Dijkstra on the base graph: a product walk may use a base edge twice,
    and its closure cost then exceeds the cost of its edge set.  The
    closure is built through the `layered` module so that the benchmark's
    tracer, which wraps `build_closure` here, sees one closure per round."""
    instance = pg.instance

    def out_edges(v):
        for eid in instance.out_edges(v):
            yield eid, instance.edges[eid].head, prices[eid]

    dist = layered.build_closure(range(instance.n), out_edges).dist
    bounds = []
    for root, at_root in enumerate(relations):
        costs = sorted(
            max(dist[d.source][root], dist[root][d.target])
            for d in (instance.demands[di] for di in at_root)
        )
        bounds.append(
            min((Fraction(c, k * scale) for k, c in enumerate(costs, 1)), default=None)
        )
    return tuple(bounds)


# the round's state searches keep module-level names of their own so that
# bench/tracer.py can time them
def _forward_reachable(pg, seeds) -> set:
    return reachable(pg, seeds)


def _backward_reachable(pg, seeds) -> set:
    return reachable(pg, seeds, backward=True)


def junction_tree_for_root(rnd: Round, root: int, rng: random.Random, incumbent=None):
    """Pipeline for one root in round ``rnd``, drawing from ``rng``; None
    when the root resolves nothing (its bound is None).  Given
    ``incumbent``, the best density found so far, it returns None before any
    work or draw when the root's density bound lies strictly above it: no
    tree here could beat it."""
    bound = rnd.bounds[root]
    if bound is None or (incumbent is not None and bound > incumbent):
        return None
    relations = rnd.relations[root]
    direct = union_pair_tree(rnd, root, list(relations))
    if len(relations) == 1:
        return direct
    cover = build_lp(rnd, root)
    values = solve_lp(cover)
    pg = rnd.pg
    # each demand's mass, an int over the LP's denominator like every value
    # bucketing, pruning and rounding read
    gammas = {
        di: sum(values.y[(di, i, j)] for i, j in pairs) for di, pairs in sorted(relations.items())
    }
    bucket = bucket_and_scale(gammas, pg.instance.dim, values.solution.denominator)
    # rounding reads only the bucket's survivors, so only its demands are
    # pruned; prune works on label pairs, a state's label its key's last entry
    keys = pg.vertex_keys
    pruned = {}
    for di in bucket.demands:
        masses = {(keys[i][2], keys[j][2]): values.y[(di, i, j)] for i, j in relations[di]}
        pruned[di] = prune(list(masses), masses, pg.budget_units(di), pg.instance.dim)
    rounded = gst_round(cover, values, pruned, bucket, rng)
    return min((assemble_junction_tree(rnd, root, rounded), direct), key=tree_order)


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

    Roots are visited best-first, by ascending (density bound, root), and
    each is handed the best density found so far: a root whose bound lies
    strictly above it returns None without building its LP, as no tree
    there could win, not even on `tree_order`'s ties.  Every root still
    gets its `junction_tree_for_root` call, so a tracer that wraps it sees
    each round's every root.

    ``round_no`` numbers the greedy round; root r draws from the stream
    seeded by the string "seed/round_no/r" (str seeds hash the same in every
    process, unlike ``hash()``), so a bounded root takes no draw from
    another root and the winner does not depend on the visiting order.
    Resolved demands keep their indices in ``pg.instance``; the tree's cost
    and density are under the round's prices.
    """
    rnd = greedy_round(pg, free, demands, config)
    n = pg.instance.n
    root_list = range(n) if roots is None else list(roots)
    for root in root_list:
        if not 0 <= root < n:
            raise ContractError(f"root {root} outside vertex range")
    bounds = rnd.bounds
    best = None
    for root in sorted(root_list, key=lambda r: (bounds[r] is None, bounds[r] or 0, r)):
        rng = random.Random(f"{config.seed}/{round_no}/{root}")
        incumbent = None if best is None else best.density
        tree = junction_tree_for_root(rnd, root, rng, incumbent)
        if tree is None:
            continue
        if best is None or tree_order(tree) < tree_order(best):
            best = tree
    if best is None:
        raise NoResolvingRootError(
            "no root resolves any demand; feasible instances always admit one"
        )
    return best
