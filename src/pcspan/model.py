"""Instance data model: resource vectors, demands, instances, walks.

Resource vectors have m+1 entries.  Entry 0 is the length (rational, may be
negative in the rational regime as long as no cycle has negative total
length).  Entries 1..p are packing resources (integers in [0, tau]), entries
p+1..p+c are covering resources (integers in [-tau, 0]).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ContractError,
    InstanceMismatchError,
    ParseError,
)
from .rational import common_scale


@dataclass(frozen=True)
class ResourceVector:
    """Immutable (m+1)-entry consumption or budget vector."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if len(self) != len(other):
            raise ContractError("dimension mismatch in resource addition")
        return ResourceVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def dominated_by(self, other: "ResourceVector") -> bool:
        """Componentwise <=."""
        if len(self) != len(other):
            raise ContractError("dimension mismatch in resource comparison")
        return all(a <= b for a, b in zip(self.entries, other.entries))

    @staticmethod
    def zero(dim: int) -> "ResourceVector":
        return ResourceVector((Fraction(0),) + (0,) * (dim - 1))


@dataclass(frozen=True)
class Demand:
    source: int
    target: int
    budget: ResourceVector


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    cost: Fraction
    res: ResourceVector


def has_negative_cycle(n: int, arcs) -> bool:
    """Bellman-Ford from a virtual source over (tail, head, length) arcs."""
    dist = [Fraction(0)] * n
    for _ in range(n):
        changed = False
        for (u, v, length) in arcs:
            if dist[u] + length < dist[v]:
                dist[v] = dist[u] + length
                changed = True
        if not changed:
            return False
    return any(dist[u] + length < dist[v] for (u, v, length) in arcs)


@dataclass(frozen=True)
class PcsInstance:
    """Directed graph with edge costs, resource vectors, and budgeted demands.

    Immutable after construction; all operations over it are pure functions.
    Validation of walk-level feasibility of each demand happens separately at
    load time (see `pcspan.rcsp.validate_demands`) because it needs the oracle.
    """

    n: int
    edges: tuple
    demands: tuple
    tau: int
    packing: int
    covering: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "demands", tuple(self.demands))
        self._validate()

    @property
    def m(self) -> int:
        return self.packing + self.covering

    @property
    def dim(self) -> int:
        return self.m + 1

    def resource_kind(self, i: int) -> str:
        """'length', 'packing', or 'covering' for coordinate i."""
        if i == 0:
            return "length"
        if 1 <= i <= self.packing:
            return "packing"
        if self.packing < i <= self.m:
            return "covering"
        raise ContractError(f"resource index {i} out of range")

    def covering_indices(self):
        return range(self.packing + 1, self.m + 1)

    def packing_indices(self):
        return range(1, self.packing + 1)

    def out_edges(self, v: int):
        return self._adj_out[v]

    def _validate(self):
        if self.n <= 0:
            raise ParseError("instance needs at least one vertex")
        if self.tau < 0:
            raise ParseError("tau must be nonnegative")
        if self.packing < 0 or self.covering < 0 or self.m < 1:
            raise ParseError("need m = packing + covering >= 1")
        for eid, e in enumerate(self.edges):
            if not (0 <= e.tail < self.n and 0 <= e.head < self.n):
                raise ParseError(f"edge {eid} endpoint out of range")
            if e.cost < 0:
                raise ParseError(f"edge {eid} has negative cost")
            self._check_vector(e.res, f"edge {eid} resource")
        for d in self.demands:
            if not (0 <= d.source < self.n and 0 <= d.target < self.n):
                raise ParseError("demand endpoint out of range")
            self._check_vector(d.budget, f"budget of demand ({d.source},{d.target})")
        if has_negative_cycle(self.n, [(e.tail, e.head, e.res[0]) for e in self.edges]):
            raise ParseError("instance has a negative-length cycle")
        adj_out = [[] for _ in range(self.n)]
        for eid, e in enumerate(self.edges):
            adj_out[e.tail].append(eid)
        object.__setattr__(self, "_adj_out", tuple(tuple(a) for a in adj_out))

    def _check_vector(self, vec: ResourceVector, what: str):
        if len(vec) != self.dim:
            raise ParseError(f"{what} has {len(vec)} entries, expected {self.dim}")
        for i in self.packing_indices():
            v = vec[i]
            if not isinstance(v, int) or not (0 <= v <= self.tau):
                raise ParseError(f"{what}: packing entry {i} = {v!r} not in [0, {self.tau}]")
        for i in self.covering_indices():
            v = vec[i]
            if not isinstance(v, int) or not (-self.tau <= v <= 0):
                raise ParseError(f"{what}: covering entry {i} = {v!r} not in [-{self.tau}, 0]")

    def is_integer_regime(self) -> bool:
        """True when every length is a positive integer (no scaling needed)."""
        return all(
            e.res[0].denominator == 1 and e.res[0] >= 1 for e in self.edges
        )

    def total_cost(self, edge_ids) -> Fraction:
        seen = set(edge_ids)
        return sum((self.edges[eid].cost for eid in seen), Fraction(0))


def cost_scale(instance: PcsInstance) -> int:
    """The instance's cost scale L: every edge cost times L is an integer
    (L = 1 when the costs are integers).  Scaling every cost by the same
    positive L keeps every comparison and every tie."""
    return common_scale(e.cost for e in instance.edges)


def length_scale(instance: PcsInstance) -> int:
    """The length scale of the walk oracle, as `cost_scale` for entry 0."""
    return common_scale(e.res[0] for e in instance.edges)


@dataclass(frozen=True)
class Walk:
    """Edge-id sequence; repeats allowed, parallel edges unambiguous."""

    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))

    def __len__(self):
        return len(self.edges)

    def is_empty(self) -> bool:
        return not self.edges


def walk_endpoints(walk: Walk, instance: PcsInstance):
    """(first tail, last head), or None for the empty walk."""
    if walk.is_empty():
        return None
    _check_walk_edges(walk, instance)
    return instance.edges[walk.edges[0]].tail, instance.edges[walk.edges[-1]].head


def walk_is_connected(walk: Walk, instance: PcsInstance) -> bool:
    _check_walk_edges(walk, instance)
    for a, b in zip(walk.edges, walk.edges[1:]):
        if instance.edges[a].head != instance.edges[b].tail:
            return False
    return True


def _check_walk_edges(walk: Walk, instance: PcsInstance):
    for eid in walk.edges:
        if not (0 <= eid < len(instance.edges)):
            raise InstanceMismatchError(f"walk references unknown edge id {eid}")


def walk_resource(walk: Walk, instance: PcsInstance) -> ResourceVector:
    """Componentwise sum of the walk's edge consumption vectors."""
    _check_walk_edges(walk, instance)
    total = [Fraction(0)] + [0] * instance.m
    for eid in walk.edges:
        res = instance.edges[eid].res
        for i in range(instance.dim):
            total[i] += res[i]
    return ResourceVector(tuple(total))


def _require_endpoints(walk: Walk, demand: Demand, instance: PcsInstance):
    ep = walk_endpoints(walk, instance)
    if ep is None:
        if demand.source != demand.target:
            raise ContractError("empty walk cannot resolve a demand with distinct endpoints")
        return
    if ep != (demand.source, demand.target):
        raise ContractError(f"walk endpoints {ep} do not match demand ({demand.source},{demand.target})")
    if not walk_is_connected(walk, instance):
        raise ContractError("walk edges are not consecutive")


def is_feasible(walk: Walk, demand: Demand, instance: PcsInstance) -> bool:
    """Definition-level feasibility: resource sum componentwise <= budget."""
    _require_endpoints(walk, demand, instance)
    return walk_resource(walk, instance).dominated_by(demand.budget)


def sign(x) -> int:
    if x < 0:
        return -1
    if x > 0:
        return 1
    return 0


def theta_relaxed_bound(budget_length, theta: Fraction) -> Fraction:
    """Entry-0 bound after relaxation: Bdgt[0] * (1 + theta * sign(Bdgt[0]))."""
    return budget_length * (1 + Fraction(theta) * sign(budget_length))


def is_theta_feasible(walk: Walk, demand: Demand, instance: PcsInstance, theta) -> bool:
    """Feasibility with only the length entry relaxed by the factor above."""
    theta = Fraction(theta)
    if theta <= 0:
        raise ContractError("theta must be positive")
    _require_endpoints(walk, demand, instance)
    res = walk_resource(walk, instance)
    if res[0] > theta_relaxed_bound(demand.budget[0], theta):
        return False
    return all(res[i] <= demand.budget[i] for i in range(1, instance.dim))


@dataclass(frozen=True)
class ConditionNumbers:
    eta: Fraction
    xi: Fraction
    bdgt_min: Fraction
    bdgt_max: Fraction
    min_length: Fraction
    max_length: Fraction


def condition_numbers(instance: PcsInstance) -> ConditionNumbers:
    """Negative-length severity (eta) and budget spread (xi) for entry 0."""
    if not instance.demands:
        raise ContractError("condition numbers need at least one demand")
    abs_budgets = sorted(abs(d.budget[0]) for d in instance.demands)
    bdgt_min, bdgt_max = abs_budgets[0], abs_budgets[-1]
    lengths = [e.res[0] for e in instance.edges]
    min_length = min(lengths) if lengths else Fraction(0)
    max_length = max(lengths) if lengths else Fraction(0)
    if bdgt_min == 0:
        from .errors import DivisionUndefinedError

        raise DivisionUndefinedError(
            "condition numbers undefined: some demand has budget[0] = 0"
        )
    eta = Fraction(abs(min(min_length, Fraction(0)))) / bdgt_min
    xi = Fraction(bdgt_max) / bdgt_min
    return ConditionNumbers(
        eta=eta,
        xi=xi,
        bdgt_min=bdgt_min,
        bdgt_max=bdgt_max,
        min_length=min_length,
        max_length=max_length,
    )
