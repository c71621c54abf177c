"""Reductions into the packing-covering model: routing-controlled spanners
(must-visit / must-avoid vertex groups) and generalized bounded-hop sets.

Routing controls become resources: a must-visit group turns into a covering
resource consumed (-1) by edges entering the group, with budget -1 when the
visit is required; an avoid group turns into a packing resource consumed (+1)
by entering edges, with budget 0 when forbidden and a relaxed cap otherwise.
Because consumption sits on entering edges, a walk's start vertex never
consumes anything; demands starting inside a required group therefore get
budget 0 there (already satisfied), and demands starting inside a forbidden
group are rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import (
    ContractError,
    EssentialityViolationError,
    InfeasibleDemandError,
    InternalInvariantError,
    ParseError,
)
from .greedy import SolveReport, solve_pcs
from .layered import build_closure
from .model import Demand, Edge, PcsInstance, ResourceVector, Walk

MUST_VISIT = "must_visit"
AVOID = "avoid"


@dataclass(frozen=True)
class RcsGroup:
    kind: str  # MUST_VISIT | AVOID
    members: frozenset

    def __post_init__(self):
        if self.kind not in (MUST_VISIT, AVOID):
            raise ParseError(f"unknown group kind {self.kind!r}")
        object.__setattr__(self, "members", frozenset(self.members))


@dataclass(frozen=True)
class RcsEdge:
    tail: int
    head: int
    cost: Fraction
    length: int


@dataclass(frozen=True)
class RcsDemand:
    source: int
    target: int
    ctrl: tuple  # m+1 entries: positive distance, {0,1} per must-visit, {-1,0} per avoid


@dataclass(frozen=True)
class RcsInstance:
    n: int
    edges: tuple
    groups: tuple  # must-visit groups first, then avoid groups
    demands: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "demands", tuple(self.demands))
        seen_avoid = False
        for g in self.groups:
            if g.kind == AVOID:
                seen_avoid = True
            elif seen_avoid:
                raise ParseError("must-visit groups must precede avoid groups")
            if any(not (0 <= v < self.n) for v in g.members):
                raise ParseError("group member outside vertex range")
        for e in self.edges:
            if e.length < 1:
                raise ParseError("routing-controlled lengths must be positive integers")
            if e.cost < 0:
                raise ParseError("negative edge cost")
        m = len(self.groups)
        c = self.must_visit_count
        for d in self.demands:
            if len(d.ctrl) != m + 1:
                raise ParseError("control vector has the wrong dimension")
            if d.ctrl[0] <= 0:
                raise ParseError("distance control must be positive")
            for i in range(1, c + 1):
                if d.ctrl[i] not in (0, 1):
                    raise ParseError("must-visit control flags are 0/1")
            for i in range(c + 1, m + 1):
                if d.ctrl[i] not in (-1, 0):
                    raise ParseError("avoid control flags are -1/0")

    @property
    def must_visit_count(self) -> int:
        return sum(1 for g in self.groups if g.kind == MUST_VISIT)

    @property
    def m(self) -> int:
        return len(self.groups)


def walk_vertices(walk: Walk, rcs: RcsInstance, source: int) -> list:
    verts = [source]
    for eid in walk.edges:
        verts.append(rcs.edges[eid].head)
    return verts


def is_routing_feasible(walk: Walk, demand: RcsDemand, rcs: RcsInstance) -> bool:
    """Length within the distance control; every required group touched
    (the start vertex counts as visited); no forbidden group touched."""
    if walk.edges:
        if rcs.edges[walk.edges[0]].tail != demand.source:
            raise ContractError("walk does not start at the demand source")
        if rcs.edges[walk.edges[-1]].head != demand.target:
            raise ContractError("walk does not end at the demand target")
        for a, b in zip(walk.edges, walk.edges[1:]):
            if rcs.edges[a].head != rcs.edges[b].tail:
                raise ContractError("walk edges are not consecutive")
    elif demand.source != demand.target:
        raise ContractError("empty walk cannot resolve distinct endpoints")
    length = sum(rcs.edges[eid].length for eid in walk.edges)
    if length > demand.ctrl[0]:
        return False
    touched = set(walk_vertices(walk, rcs, demand.source))
    for i, g in enumerate(rcs.groups, start=1):
        flag = demand.ctrl[i]
        if g.kind == MUST_VISIT and flag == 1 and not (touched & g.members):
            return False
        if g.kind == AVOID and flag == -1 and (touched & g.members):
            return False
    return True


@dataclass(frozen=True)
class RcsReductionMap:
    """Coordinate bookkeeping: packing coords come from avoid groups, covering
    coords from must-visit groups; edge ids are shared."""

    packing_groups: tuple  # group indices (into rcs.groups) per packing coord
    covering_groups: tuple
    visit_cap: int  # per-vertex visit bound used for relaxed avoid budgets


def rcs_to_pcs(rcs: RcsInstance) -> tuple:
    """Reduce to a packing-covering instance; returns (instance, map).

    The relaxed budget for an allowed avoid group is visit_cap * |S_i| with
    visit_cap = #must-visit groups + 1: a walk threading c required groups
    splits into c+1 simple segments, so it can be rerouted to visit every
    vertex at most c+1 times (c+1 is tight: a two-group demand can force
    three visits to a cut vertex), and each visit costs one unit.
    """
    c = rcs.must_visit_count
    visit_cap = c + 1
    avoid_idx = [i for i, g in enumerate(rcs.groups) if g.kind == AVOID]
    visit_idx = [i for i, g in enumerate(rcs.groups) if g.kind == MUST_VISIT]
    max_avoid_budget = max(
        (visit_cap * len(rcs.groups[i].members) for i in avoid_idx), default=0
    )
    tau = max(1, max_avoid_budget)
    dim = rcs.m + 1

    def edge_vector(e: RcsEdge) -> ResourceVector:
        entries = [Fraction(e.length)]
        for gi in avoid_idx:
            entries.append(1 if e.head in rcs.groups[gi].members else 0)
        for gi in visit_idx:
            entries.append(-1 if e.head in rcs.groups[gi].members else 0)
        return ResourceVector(tuple(entries))

    edges = tuple(Edge(e.tail, e.head, e.cost, edge_vector(e)) for e in rcs.edges)

    demands = []
    for d in rcs.demands:
        entries = [Fraction(d.ctrl[0])]
        for gi in avoid_idx:
            flag = d.ctrl[gi + 1]
            if flag == -1:
                if d.source in rcs.groups[gi].members:
                    raise InfeasibleDemandError(
                        f"demand ({d.source},{d.target}) starts inside a forbidden group"
                    )
                entries.append(0)
            else:
                entries.append(visit_cap * len(rcs.groups[gi].members))
        for gi in visit_idx:
            flag = d.ctrl[gi + 1]
            if flag == 1 and d.source not in rcs.groups[gi].members:
                entries.append(-1)
            else:
                # unconstrained, or already satisfied by the start vertex
                entries.append(0)
        demands.append(Demand(d.source, d.target, ResourceVector(tuple(entries))))

    instance = PcsInstance(
        n=rcs.n,
        edges=edges,
        demands=tuple(demands),
        tau=tau,
        packing=len(avoid_idx),
        covering=len(visit_idx),
    )
    mapping = RcsReductionMap(
        packing_groups=tuple(avoid_idx),
        covering_groups=tuple(visit_idx),
        visit_cap=visit_cap,
    )
    return instance, mapping


def solve_rcs(rcs: RcsInstance, config: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Reduce, solve, and re-verify every demand in routing terms."""
    instance, _mapping = rcs_to_pcs(rcs)
    report = solve_pcs(instance, "integer", config)
    for di, d in enumerate(rcs.demands):
        witness = report.witnesses.get(di)
        if witness is None or not is_routing_feasible(witness, d, rcs):
            raise InternalInvariantError(
                f"solution walk for demand ({d.source},{d.target}) fails routing checks"
            )
    report.diagnostics["reduction"] = "routing-controlled"
    return report


def essential_set_mode(rcs, essential_vertices, config: SolverConfig = DEFAULT_CONFIG):
    """Solve with roots restricted to an essential vertex set.

    Iterates junction trees rooted inside the set on the reduced instance
    until every demand resolves.  A demand with no feasible walk raises
    InfeasibleDemandError before the first round; demands unresolvable from
    every essential root raise EssentialityViolationError.
    """
    instance, _mapping = rcs_to_pcs(rcs)
    roots = sorted(set(essential_vertices))
    for r in roots:
        if not (0 <= r < instance.n):
            raise ContractError(f"essential vertex {r} outside the graph")
    try:
        return solve_pcs(instance, "integer", config, roots)
    except InternalInvariantError as exc:
        raise EssentialityViolationError(
            f"some demand is unresolvable from the essential set: {exc}"
        ) from exc


@dataclass(frozen=True)
class ClosureEdge:
    tail: int
    head: int
    weight: int  # input length (cost 0) or exact shortest distance (cost 1)
    cost: int  # 0 for an edge of the source graph, 1 for a shortcut


@dataclass(frozen=True)
class WeightedClosure:
    n: int
    edges: tuple  # ClosureEdge, sorted by (tail, head, cost)


def weighted_transitive_closure(n: int, length_edges) -> WeightedClosure:
    """Every input pair at cost 0 with its shortest input length, plus a
    cost-1 shortcut at the exact shortest distance for every reachable
    ordered pair that no input edge already realizes.

    `length_edges` is an iterable of (tail, head, positive integer length).
    """
    direct = {}
    for (u, v, length) in length_edges:
        if length < 1:
            raise ContractError("closure needs positive integer lengths")
        direct[(u, v)] = min(length, direct.get((u, v), length))

    adj = {}
    for (u, v), length in direct.items():
        adj.setdefault(u, []).append((None, v, length))
    dist = build_closure(range(n), lambda u: adj.get(u, ())).dist
    out = [ClosureEdge(u, v, length, 0) for (u, v), length in direct.items() if u != v]
    for u in range(n):
        for v, d in dist[u].items():
            if v != u and d < direct.get((u, v), d + 1):
                out.append(ClosureEdge(u, v, int(d), 1))
    return WeightedClosure(n=n, edges=tuple(sorted(out, key=lambda e: (e.tail, e.head, e.cost))))


@dataclass(frozen=True)
class HopsetDemand:
    source: int
    target: int
    dist_bound: int
    beta: int | None = None  # per-demand hop bound; None uses the global one


@dataclass(frozen=True)
class HopsetInstance:
    n: int
    edges: tuple  # (tail, head, length) triples
    demands: tuple
    beta: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(self, "demands", tuple(self.demands))
        if self.beta < 1:
            raise ParseError("hop bound must be positive")
        for (u, v, length) in self.edges:
            if length < 1:
                raise ParseError("hopset lengths must be positive integers")
        for d in self.demands:
            if d.dist_bound < 0 or (d.beta is not None and d.beta < 1):
                raise ParseError("invalid demand bounds")

    def demand_beta(self, d: HopsetDemand) -> int:
        return d.beta if d.beta is not None else self.beta


def hopset_to_pcs(hs: HopsetInstance) -> tuple:
    """Closure-based reduction: one packing resource counts hops (consumption
    1 per closure edge), lengths are closure weights, costs are 1 only on
    closure-only edges.  Returns (instance, closure)."""
    closure = weighted_transitive_closure(hs.n, hs.edges)
    tau = max(hs.demand_beta(d) for d in hs.demands) if hs.demands else hs.beta
    edges = tuple(
        Edge(e.tail, e.head, Fraction(e.cost), ResourceVector((Fraction(e.weight), 1)))
        for e in closure.edges
    )
    demands = tuple(
        Demand(
            d.source,
            d.target,
            ResourceVector((Fraction(d.dist_bound), hs.demand_beta(d))),
        )
        for d in hs.demands
    )
    instance = PcsInstance(
        n=hs.n, edges=edges, demands=demands, tau=tau, packing=1, covering=0
    )
    return instance, closure


def solve_hopset(hs: HopsetInstance, config: SolverConfig = DEFAULT_CONFIG) -> dict:
    """Solve the reduced instance and return the added-edge set.

    The hopset consists of the selected closure-only edges; the original
    edges stay available for free in verification.
    """
    instance, closure = hopset_to_pcs(hs)
    report = solve_pcs(instance, "integer", config)
    added = tuple(
        (closure.edges[eid].tail, closure.edges[eid].head, closure.edges[eid].weight)
        for eid in report.edges
        if closure.edges[eid].cost == 1
    )
    verify = verify_hopset(hs, added)
    if not all(entry["feasible"] for entry in verify.values()):
        raise InternalInvariantError("hopset verification failed on a solver output")
    return {
        "report": report,
        "added_edges": added,
        "hopset_size": len(added),
        "verification": verify,
    }


def verify_hopset(hs: HopsetInstance, added_edges) -> dict:
    """Per demand: does G plus the added edges admit a path with at most
    beta hops and length within the demand bound?  (Hop-bounded Bellman-Ford.)"""
    combined = list(hs.edges) + [tuple(e) for e in added_edges]
    out = {}
    for di, d in enumerate(hs.demands):
        beta = hs.demand_beta(d)
        dist = {d.source: 0}
        for _hop in range(beta):
            nxt = dict(dist)
            for (u, v, length) in combined:
                if u in dist:
                    cand = dist[u] + length
                    if v not in nxt or cand < nxt[v]:
                        nxt[v] = cand
            dist = nxt
        feasible = d.target in dist and dist[d.target] <= d.dist_bound
        out[di] = {"feasible": feasible, "length": dist.get(d.target)}
    return out
