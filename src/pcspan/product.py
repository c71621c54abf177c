"""Resource-labelled product graph: resource budgets become connectivity.

States are (vertex, label, side).  A label is an integer vector; entry 0
counts length in units of delta (delta = 1 in the integer regime, Delta in
the scaled regime), entries 1..m are the clamped resource coordinates.  On
the R side a walk from (r, 0, R) to (u, I, R) witnesses an r ~> u walk of
clamped consumption I * delta; on the L side a walk from (u, I, L) to
(r, 0, L) witnesses a u ~> r walk likewise.

The graph belongs to the instance, not to a root: every vertex (the root
included) carries all valid labels, so junction walks that revisit the root
mid-way are tracked exactly, and a root enters only through its zero-label
copies (``ProductGraph.root_copy``).  Resource coordinates step with the RCSP
oracle's own clamped transition (``rcsp.step_config``), so both sides
compute the same reachability relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import ContractError, ResourceLimitError
from .model import PcsInstance, theta_relaxed_bound
from .rcsp import _enumerate_configs, config_bounds, step_config, through_root_witness
from .scaling import ScaledInstance


@dataclass(frozen=True)
class LayerBounds:
    lower: tuple  # t^- as integer units
    upper: tuple  # t^+ as integer units
    delta: Fraction

    def label_count(self) -> int:
        out = 1
        for lo, hi in zip(self.lower, self.upper):
            out *= hi - lo + 1
        return out


def layer_bounds(problem) -> LayerBounds:
    """The t^-/t^+ label bounds for an instance or scaled instance."""
    if isinstance(problem, ScaledInstance):
        instance = problem.base
        delta = problem.delta
        hop = problem.hop_bound_value
        min_units = min(problem.units) if problem.units else 0
        t0_minus = min(hop * min_units, 0)
        bmax = max(abs(d.budget[0]) for d in instance.demands)
        t0_plus = math.ceil(bmax * (1 + problem.theta) / delta) + abs(t0_minus)
    else:
        instance = problem
        if not instance.is_integer_regime():
            raise ContractError(
                "integer-regime product graph needs positive integer lengths; scale first"
            )
        delta = Fraction(1)
        t0_minus = 0
        t0_plus = math.floor(max(d.budget[0] for d in instance.demands))
    lower, upper = config_bounds(instance)
    return LayerBounds((t0_minus,) + lower, (t0_plus,) + upper, delta)


def _base_of(problem) -> PcsInstance:
    return problem.base if isinstance(problem, ScaledInstance) else problem


def _edge_units(problem, eid: int) -> int:
    if isinstance(problem, ScaledInstance):
        return problem.units[eid]
    return int(_base_of(problem).edges[eid].res[0])


def step_label(instance: PcsInstance, bounds: LayerBounds, label: tuple, eid: int, units: int):
    """Label after traversing the edge (R-side orientation); None if invalid."""
    length = label[0] + units
    if not bounds.lower[0] <= length <= bounds.upper[0]:
        return None
    cfg = step_config(instance, label[1:], instance.edges[eid].res)
    return None if cfg is None else (length,) + cfg


def demand_budget_units(problem, demand_idx: int, bounds: LayerBounds) -> tuple:
    """Per-demand relation bound as an integer label box.

    Entry 0 is floor(bound / delta) with the theta relaxation applied in the
    scaled regime; entries 1..m are the exact integer budgets.
    """
    instance = _base_of(problem)
    d = instance.demands[demand_idx]
    if isinstance(problem, ScaledInstance):
        bound0 = theta_relaxed_bound(d.budget[0], problem.theta)
    else:
        bound0 = d.budget[0]
    units0 = math.floor(Fraction(bound0) / bounds.delta)
    return (units0,) + tuple(d.budget[i] for i in range(1, instance.dim))


def relation_holds(budget_units: tuple, i_label: tuple, j_label: tuple) -> bool:
    """(I + J) within the demand's box (clamping never changes the answer
    because budgets are >= -tau)."""
    return all(a + b <= c for a, b, c in zip(i_label, j_label, budget_units))


@dataclass(frozen=True)
class ProductEdge:
    tail: int
    head: int
    cost: Fraction
    base_edge: int


@dataclass
class ProductGraph:
    problem: object  # PcsInstance or ScaledInstance
    bounds: LayerBounds
    labels: tuple  # all valid labels, sorted
    vertex_ids: dict  # ("S", side, v, label) -> int id
    vertex_keys: tuple  # int id -> key
    edges: tuple  # ProductEdge
    out_adj: tuple
    in_adj: tuple

    @property
    def instance(self) -> PcsInstance:
        return _base_of(self.problem)

    def root_copy(self, side: str, root: int) -> int:
        """Id of the root's zero-label state on side "L" or "R"."""
        if not (0 <= root < self.instance.n):
            raise ContractError(f"root {root} outside vertex range")
        return self.vertex_ids[("S", side, root, (0,) * self.instance.dim)]

    def budget_units(self, demand_idx: int) -> tuple:
        return demand_budget_units(self.problem, demand_idx, self.bounds)


def _enumerate_labels(instance: PcsInstance, bounds: LayerBounds) -> list:
    lengths = range(bounds.lower[0], bounds.upper[0] + 1)
    return sorted((t,) + cfg for t in lengths for cfg in _enumerate_configs(instance))


def build_product_graph(problem, config: SolverConfig = DEFAULT_CONFIG) -> ProductGraph:
    instance = _base_of(problem)
    bounds = layer_bounds(problem)
    total_vertices = 2 * instance.n * bounds.label_count()
    if total_vertices > config.max_product_vertices:
        raise ResourceLimitError(
            f"product graph would need {total_vertices} vertices "
            f"(cap {config.max_product_vertices})"
        )
    labels = _enumerate_labels(instance, bounds)
    vertex_keys = tuple(
        ("S", side, v, lab) for side in ("L", "R") for v in range(instance.n) for lab in labels
    )
    vertex_ids = {key: vid for vid, key in enumerate(vertex_keys)}

    # parallel duplicates keep the cheapest (then smallest id)
    best = {}
    for eid, e in enumerate(instance.edges):
        units = _edge_units(problem, eid)
        for lab in labels:
            nxt = step_label(instance, bounds, lab, eid, units)
            if nxt is None:
                continue
            # R side: (tail, lab) -> (head, nxt); L side: (tail, nxt) -> (head, lab)
            pairs = (
                (("S", "R", e.tail, lab), ("S", "R", e.head, nxt)),
                (("S", "L", e.tail, nxt), ("S", "L", e.head, lab)),
            )
            for tail_key, head_key in pairs:
                tv, hv = vertex_ids[tail_key], vertex_ids[head_key]
                cur = best.get((tv, hv))
                if cur is None or (e.cost, eid) < cur:
                    best[(tv, hv)] = (e.cost, eid)
    edges = tuple(ProductEdge(tv, hv, cost, eid) for (tv, hv), (cost, eid) in sorted(best.items()))
    out_adj = [[] for _ in vertex_keys]
    in_adj = [[] for _ in vertex_keys]
    for idx, pe in enumerate(edges):
        out_adj[pe.tail].append(idx)
        in_adj[pe.head].append(idx)
    return ProductGraph(
        problem=problem,
        bounds=bounds,
        labels=tuple(labels),
        vertex_ids=vertex_ids,
        vertex_keys=vertex_keys,
        edges=edges,
        out_adj=tuple(tuple(a) for a in out_adj),
        in_adj=tuple(tuple(a) for a in in_adj),
    )


def reachable(pg: ProductGraph, seeds, backward: bool = False) -> set:
    """Vertex ids reachable from ``seeds`` (``backward``: that reach them)."""
    adj = pg.in_adj if backward else pg.out_adj
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for idx in adj[stack.pop()]:
            pe = pg.edges[idx]
            w = pe.tail if backward else pe.head
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def states_reaching_root_left(pg: ProductGraph, root: int) -> set:
    """Vertex ids (L states) that can reach (r, 0, L)."""
    return reachable(pg, (pg.root_copy("L", root),), backward=True)


def states_reachable_from_root_right(pg: ProductGraph, root: int) -> set:
    """Vertex ids (R states) reachable from (r, 0, R)."""
    return reachable(pg, (pg.root_copy("R", root),))


def connectable_relation_pairs(pg: ProductGraph, reach_left: set, reach_right: set) -> dict:
    """Per demand, the relation pairs whose endpoints actually connect to the
    root through the product graph (the rest carry no LP value)."""
    instance = pg.instance
    out = {}
    for di, d in enumerate(instance.demands):
        box = pg.budget_units(di)
        src_ok = [
            lab
            for lab in pg.labels
            if pg.vertex_ids[("S", "L", d.source, lab)] in reach_left
        ]
        snk_ok = [
            lab
            for lab in pg.labels
            if pg.vertex_ids[("S", "R", d.target, lab)] in reach_right
        ]
        pairs = [
            (i_lab, j_lab)
            for i_lab in src_ok
            for j_lab in snk_ok
            if relation_holds(box, i_lab, j_lab)
        ]
        out[di] = pairs
    return out


def equivalence_check(
    problem, root: int, config: SolverConfig = DEFAULT_CONFIG
) -> dict:
    """Compare product-graph relation-pair connectivity against the oracle's
    through-root feasibility on the two-copy intersection graph.

    In the scaled regime the oracle runs on the scaled graph with the same
    theta relaxation the relation uses.
    """
    pg = build_product_graph(problem, config)
    pairs = connectable_relation_pairs(
        pg, states_reaching_root_left(pg, root), states_reachable_from_root_right(pg, root)
    )
    instance = _base_of(problem)
    if isinstance(problem, ScaledInstance):
        oracle_instance = problem.as_instance()
        theta = problem.theta
    else:
        oracle_instance = problem
        theta = None
    report = {"root": root, "demands": [], "mismatches": 0}
    for di, d in enumerate(instance.demands):
        product_ok = bool(pairs[di])
        witness = through_root_witness(
            oracle_instance, oracle_instance.demands[di], root, theta=theta, config=config
        )
        oracle_ok = witness is not None
        report["demands"].append(
            {"demand": di, "product": product_ok, "oracle": oracle_ok}
        )
        if product_ok != oracle_ok:
            report["mismatches"] += 1
    return report
