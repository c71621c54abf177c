"""Minimum-density resource-constrained junction trees.

For each candidate root: product graph -> useful-state pruning -> metric
closures -> layered halves -> label-cover LP -> representative pruning ->
bucketing -> randomized rounding -> assembly.  The product graph does not
depend on the root, so it is built once per search and shared.  The best
(lowest-density) tree across roots wins, with deterministic tie-breaking
toward smaller root ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, SolverConfig
from .density_lp import (
    assemble_junction_tree,
    bucket_and_scale,
    build_lp,
    fallback_tree,
    gst_round,
    prune,
    solve_lp,
    union_pair_tree,
)
from .errors import (
    ContractError,
    EssentialityViolationError,
    InternalInvariantError,
    RoundingFailureError,
)
from .layered import build_closure, build_layered, join_halves
from .model import PcsInstance
from .product import (
    build_product_graph,
    connectable_relation_pairs,
    reachable,
    states_reachable_from_root_right,
    states_reaching_root_left,
)
from .scaling import ScaledInstance, scale_instance


@dataclass(frozen=True)
class JunctionTree:
    """Root, base-graph edge set, oracle-verified resolved demands (with
    witness walks through the root), cost, and density."""

    root: int
    edges: frozenset
    resolved: dict  # demand index -> witness Walk
    cost: Fraction
    density: Fraction
    theta: Fraction | None

    def __post_init__(self):
        if not self.resolved:
            raise ContractError("junction trees must resolve at least one demand")


@dataclass
class RootedLabelCover:
    """Everything the density LP needs for one root."""

    problem: object  # PcsInstance or ScaledInstance
    root: int
    pg: object
    joined: object

    @property
    def instance(self) -> PcsInstance:
        return self.problem.base if isinstance(self.problem, ScaledInstance) else self.problem


def build_label_cover(
    problem, root: int, config: SolverConfig = DEFAULT_CONFIG, pg=None
):
    """The per-root reduction to minimum-density Steiner label cover.

    ``pg`` is the product graph of ``problem`` (one per greedy round); without
    it the graph is built here.  Returns None when no demand has a relation
    pair whose endpoints connect to the root (such roots are skipped before
    any LP work).
    """
    if pg is None:
        pg = build_product_graph(problem, config)
    root_left = pg.root_copy("L", root)
    root_right = pg.root_copy("R", root)
    reach_left = states_reaching_root_left(pg, root)
    reach_right = states_reachable_from_root_right(pg, root)
    relations = connectable_relation_pairs(pg, reach_left, reach_right)
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
        for idx in pg.out_adj[v]:
            pe = pg.edges[idx]
            yield idx, pe.head, pe.cost

    closure_left = build_closure(useful_left, out_edges)
    closure_right = build_closure(useful_right, out_edges)
    h = config.height
    up = build_layered(closure_left, useful_left, root_left, h, "up")
    down = build_layered(closure_right, useful_right, root_right, h, "down")
    joined = join_halves(up, down, src_states, snk_states, relations)
    return RootedLabelCover(problem=problem, root=root, pg=pg, joined=joined)


# the useful-state searches keep module-level names of their own so that
# bench/tracer.py can time them apart from the root reachability
def _forward_reachable(pg, seeds) -> set:
    return reachable(pg, seeds)


def _backward_reachable(pg, seeds) -> set:
    return reachable(pg, seeds, backward=True)


def junction_tree_for_root(
    problem, root: int, rng: random.Random, config: SolverConfig = DEFAULT_CONFIG, pg=None
):
    """Pipeline for one root; None when the root resolves nothing.

    ``pg`` is passed on to ``build_label_cover``.
    """
    bundle = build_label_cover(problem, root, config, pg)
    if bundle is None:
        return None
    cover = build_lp(bundle, config)
    values = solve_lp(cover, config)
    pruned = {}
    gammas = {}
    for di, pairs in sorted(bundle.joined.relations.items()):
        if not pairs:
            continue
        masses = {
            (i_lab, j_lab): values.y.get((di, i_lab, j_lab), Fraction(0))
            for (i_lab, j_lab) in pairs
        }
        gamma = sum(masses.values(), Fraction(0))
        gammas[di] = gamma
        if gamma > 0:
            pruned[di] = prune(pairs, masses, bundle.pg.budget_units(di), bundle.instance.dim)
    candidates = []
    if pruned:
        bucket = bucket_and_scale(gammas, bundle.instance.dim)
        try:
            rounded = gst_round(cover, values, pruned, bucket, rng, config)
            candidates.append(assemble_junction_tree(cover, rounded, config))
        except RoundingFailureError:
            pass
    candidates.append(fallback_tree(cover, values, config))
    candidates.append(union_pair_tree(cover, config))
    best = min(candidates, key=_tree_order)
    return best


def _tree_order(tree: JunctionTree):
    # density first; at equal density prefer resolving more demands, then
    # deterministic root/edge ordering
    return (tree.density, -len(tree.resolved), tree.root, sorted(tree.edges))


def min_density_junction_tree(
    instance: PcsInstance,
    mode: str = "integer",
    config: SolverConfig = DEFAULT_CONFIG,
    rng: random.Random | None = None,
    roots=None,
) -> JunctionTree:
    """Best junction tree over all candidate roots.

    mode "integer" runs the product graph on the raw instance (positive
    integer lengths required); mode "theta" scales lengths first and resolves
    demands theta-feasibly.
    """
    if not instance.demands:
        raise ContractError("junction solving needs at least one demand")
    if mode == "integer":
        problem = instance
    elif mode == "theta":
        problem = scale_instance(instance, config.theta, config)
    else:
        raise ContractError(f"unknown mode {mode!r}")
    if rng is None:
        rng = random.Random(config.seed)
    best = None
    root_list = sorted(roots) if roots is not None else range(instance.n)
    pg = build_product_graph(problem, config) if root_list else None
    for root in root_list:
        tree = junction_tree_for_root(problem, root, rng, config, pg)
        if tree is None:
            continue
        if best is None or _tree_order(tree) < _tree_order(best):
            best = tree
    if best is None:
        raise InternalInvariantError(
            "no root resolves any demand; feasible instances always admit one"
        )
    return best


def essential_set_mode(rcs, essential_vertices, config: SolverConfig = DEFAULT_CONFIG):
    """Solve with roots restricted to an essential vertex set.

    Iterates junction trees rooted inside the set on the reduced instance
    until every demand resolves; demands unresolvable from every essential
    root raise EssentialityViolationError.
    """
    from .greedy import greedy_density_loop
    from .reductions import rcs_to_pcs

    instance, backmap = rcs_to_pcs(rcs)
    roots = sorted(set(essential_vertices))
    for r in roots:
        if not (0 <= r < instance.n):
            raise ContractError(f"essential vertex {r} outside the graph")
    try:
        report = greedy_density_loop(instance, mode="integer", config=config, roots=roots)
    except InternalInvariantError as exc:
        raise EssentialityViolationError(
            f"some demand is unresolvable from the essential set: {exc}"
        ) from exc
    return report
