"""Resource-labelled product graph: resource budgets become connectivity.

States are (vertex, label, side).  A label is an integer vector; entry 0
counts length in units of delta (delta = 1 in the integer regime, Delta in
the scaled regime), entries 1..m are the clamped resource coordinates.  On
the R side a walk from (r, 0, R) to (u, I, R) witnesses an r ~> u walk of
clamped consumption I * delta; on the L side a walk from (u, I, L) to
(r, 0, L) witnesses a u ~> r walk likewise.

The graph belongs to the instance, not to a root or a greedy round: it
carries no costs (each round prices the base edges) and holds every state
that some vertex's zero-label copy reaches (R side) or that reaches one (L
side), the root's own nonzero labels included, so junction walks that
revisit the root mid-way are tracked exactly, and a root enters only through
its zero-label copies (``ProductGraph.root_copy``).  Resource coordinates step
with the RCSP oracle's own clamped transition (``rcsp.step_config``), so both
sides compute the same reachability relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import ContractError, InfeasibleDemandError, ResourceLimitError
from .model import PcsInstance, theta_relaxed_bound
from .rcsp import _enumerate_configs, config_bounds, step_config
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
    base_edge: int


@dataclass
class ProductGraph:
    problem: object  # PcsInstance or ScaledInstance
    bounds: LayerBounds
    labels: tuple  # all valid labels, sorted
    vertex_ids: dict  # (side, v, label) -> int id, reached states only
    vertex_keys: tuple  # int id -> key
    edges: tuple  # ProductEdge
    out_adj: tuple
    in_adj: tuple
    # (side, v) -> the contiguous run of its state ids, in label order
    runs: dict = field(init=False, repr=False, compare=False)
    # demand -> its relation-compatible (L vid, R vid) pairs, in label order
    relation_vids: dict = field(init=False, repr=False, compare=False)
    # demand -> its relation box (`demand_budget_units`)
    budget_boxes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # vertex_keys is sorted by (side, v, label)
        self.runs = {}
        start = 0
        for owner, group in groupby(self.vertex_keys, key=lambda key: key[:2]):
            stop = start + sum(1 for _ in group)
            self.runs[owner] = range(start, stop)
            start = stop
        keys = self.vertex_keys
        demands = self.instance.demands
        self.budget_boxes = tuple(
            demand_budget_units(self.problem, di, self.bounds) for di in range(len(demands))
        )
        self.relation_vids = {}
        for di, (d, box) in enumerate(zip(demands, self.budget_boxes)):
            snk = [(j, keys[j][2]) for j in self.runs.get(("R", d.target), ())]
            self.relation_vids[di] = pairs = []
            for i in self.runs.get(("L", d.source), ()):
                i_label = keys[i][2]
                room = box[0] - i_label[0]
                # the R run is in label order, entry 0 first: past the first
                # J with J[0] > room, no J fits I's box
                for j, j_label in snk:
                    if j_label[0] > room:
                        break
                    if relation_holds(box, i_label, j_label):
                        pairs.append((i, j))

    @property
    def instance(self) -> PcsInstance:
        return _base_of(self.problem)

    @property
    def theta(self):
        """The length relaxation of the scaled regime; None in the integer one."""
        return self.problem.theta if isinstance(self.problem, ScaledInstance) else None

    def root_copy(self, side: str, root: int) -> int:
        """Id of the root's zero-label state on side "L" or "R"."""
        if not (0 <= root < self.instance.n):
            raise ContractError(f"root {root} outside vertex range")
        return self.vertex_ids[(side, root, (0,) * self.instance.dim)]

    def budget_units(self, demand_idx: int) -> tuple:
        return self.budget_boxes[demand_idx]


def _enumerate_labels(instance: PcsInstance, bounds: LayerBounds) -> list:
    lengths = range(bounds.lower[0], bounds.upper[0] + 1)
    return sorted((t,) + cfg for t in lengths for cfg in _enumerate_configs(instance))


def _reach_labels(instance, bounds, units, adj, other_end) -> dict:
    """Label-setting search from every vertex's zero-label copy.

    From a reached (v, lab) it steps ``lab`` over each edge in ``adj[v]`` to
    (``other_end(edge)``, step); returns every reached state mapped to its
    arcs (step state, edge id).
    """
    zero = (0,) * instance.dim
    reached = {(v, zero): [] for v in range(instance.n)}
    stack = list(reached)
    while stack:
        v, lab = state = stack.pop()
        arcs = reached[state]
        for eid in adj[v]:
            nxt = step_label(instance, bounds, lab, eid, units[eid])
            if nxt is None:
                continue
            key = (other_end(instance.edges[eid]), nxt)
            arcs.append((key, eid))
            if key not in reached:
                reached[key] = []
                stack.append(key)
    return reached


def build_product_graph(problem, config: SolverConfig = DEFAULT_CONFIG) -> ProductGraph:
    """The states some zero-label copy reaches, and the edges among them.

    R states are reached forward from some (v, 0, R); L states reach some
    (v, 0, L).  Every per-root search stays inside these states, so dropping
    the rest changes no reachability, and ids keep the global key order.
    """
    instance = _base_of(problem)
    bounds = layer_bounds(problem)
    total_vertices = 2 * instance.n * bounds.label_count()
    if total_vertices > config.max_product_vertices:
        raise ResourceLimitError(
            f"product graph would need {total_vertices} vertices "
            f"(cap {config.max_product_vertices})"
        )
    units = [_edge_units(problem, eid) for eid in range(len(instance.edges))]
    out_edges = [[] for _ in range(instance.n)]
    in_edges = [[] for _ in range(instance.n)]
    for eid, e in enumerate(instance.edges):
        out_edges[e.tail].append(eid)
        in_edges[e.head].append(eid)
    # R side: (tail, lab) -> (head, step); the L edge (tail, step) -> (head, lab)
    # is entered from its head, so the L search runs over in-edges
    right = _reach_labels(instance, bounds, units, out_edges, lambda e: e.head)
    left = _reach_labels(instance, bounds, units, in_edges, lambda e: e.tail)
    vertex_keys = tuple(
        (side, v, lab)
        for side, states in (("L", left), ("R", right))
        for v, lab in sorted(states)
    )
    vertex_ids = {key: vid for vid, key in enumerate(vertex_keys)}

    # every arc, parallel ones included: the graph carries no costs, so the
    # cheapest of a parallel group is a question for each round's prices
    arcs = []
    for side, states in (("L", left), ("R", right)):
        for (v, lab), steps in states.items():
            here = vertex_ids[(side, v, lab)]
            for (w, nxt), eid in steps:
                there = vertex_ids[(side, w, nxt)]
                arcs.append((there, here, eid) if side == "L" else (here, there, eid))
    edges = tuple(ProductEdge(*arc) for arc in sorted(arcs))
    out_adj = [[] for _ in vertex_keys]
    in_adj = [[] for _ in vertex_keys]
    for idx, pe in enumerate(edges):
        out_adj[pe.tail].append(idx)
        in_adj[pe.head].append(idx)
    return ProductGraph(
        problem=problem,
        bounds=bounds,
        labels=tuple(_enumerate_labels(instance, bounds)),
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


def require_feasible_demands(pg: ProductGraph) -> None:
    """Raise `InfeasibleDemandError` for a demand that no walk satisfies.

    In the integer regime the graph holds the walk relation exactly: demand
    (s, t) has a feasible walk iff (s, 0, R) reaches a state (t, J, R) that
    pairs with (s, 0, L) in its relation, i.e. J fits the demand's box.  One
    reach search per distinct source; demands are checked by ascending
    source, then in instance order, as `rcsp.validate_demands` checks them,
    so the same demand is named first.
    """
    by_source = {}
    for di, d in enumerate(pg.instance.demands):
        by_source.setdefault(d.source, []).append(di)
    for source in sorted(by_source):
        left = pg.root_copy("L", source)
        reached = reachable(pg, (pg.root_copy("R", source),))
        for di in by_source[source]:
            if not any(i == left and j in reached for i, j in pg.relation_vids[di]):
                d = pg.instance.demands[di]
                raise InfeasibleDemandError(
                    f"demand ({d.source},{d.target}) admits no feasible walk"
                )


def states_reaching_root_left(pg: ProductGraph, root: int) -> set:
    """Vertex ids (L states) that can reach (r, 0, L)."""
    return reachable(pg, (pg.root_copy("L", root),), backward=True)


def states_reachable_from_root_right(pg: ProductGraph, root: int) -> set:
    """Vertex ids (R states) reachable from (r, 0, R)."""
    return reachable(pg, (pg.root_copy("R", root),))


def connectable_relation_pairs(
    pg: ProductGraph, demands, reach_left: set, reach_right: set
) -> dict:
    """Per demand of ``demands``, the (source label, target label) relation
    pairs whose endpoints actually connect to the root through the product
    graph (the rest carry no LP value), in label order."""
    keys = pg.vertex_keys
    return {
        di: [
            (keys[i][2], keys[j][2])
            for i, j in pg.relation_vids[di]
            if i in reach_left and j in reach_right
        ]
        for di in demands
    }
