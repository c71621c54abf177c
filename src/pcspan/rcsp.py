"""Resource-constrained shortest-walk engine.

States are (vertex, config) pairs where a config tracks resources 1..m with
the covering coordinates clamped at -tau (clamping is absorbing: once a walk
has consumed -tau of a covering resource, further consumption is irrelevant
because every budget is >= -tau).  Lengths may be negative; the instance
invariant (no negative-length cycle) guarantees the hop-bounded DP converges
to true minima once the hop cap reaches the state count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import (
    ContractError,
    InfeasibleDemandError,
    InfeasibleWithinCapError,
)
from .model import (
    Demand,
    Edge,
    PcsInstance,
    ResourceVector,
    Walk,
    theta_relaxed_bound,
)


def zero_config(instance: PcsInstance) -> tuple:
    return (0,) * instance.m


def config_count(instance: PcsInstance) -> int:
    return (instance.tau + 1) ** instance.m


def config_bounds(instance: PcsInstance) -> tuple:
    """(lower, upper) tuples bounding each clamped config coordinate 1..m:
    packing in [0, tau], covering in [-tau, 0]."""
    p, c, tau = instance.packing, instance.covering, instance.tau
    return (0,) * p + (-tau,) * c, (tau,) * p + (0,) * c


def step_config(instance: PcsInstance, cfg: tuple, res: ResourceVector):
    """Advance a clamped config by one edge; None when a packing bound breaks.

    Covering coordinates clamp at -tau.  Packing coordinates exceed tau only
    on walks that can never satisfy any budget (budgets are <= tau), so those
    states are dropped.
    """
    out = []
    for i, v in enumerate(cfg, 1):
        v += res[i]
        if i <= instance.packing:
            if v > instance.tau:
                return None
        elif v < -instance.tau:
            v = -instance.tau
        out.append(v)
    return tuple(out)


def config_feasible(instance: PcsInstance, cfg: tuple, budget: ResourceVector) -> bool:
    """cfg <= budget on entries 1..m (clamping preserves this equivalence)."""
    return all(cfg[i - 1] <= budget[i] for i in range(1, instance.dim))


def default_hop_cap(instance: PcsInstance, config: SolverConfig = DEFAULT_CONFIG) -> int:
    # large enough for DP convergence (optimal walks never repeat a state)
    return max(
        config.hop_cap_factor * instance.n * instance.n,
        instance.n * config_count(instance),
    )


@dataclass(frozen=True)
class LabelTable:
    """Per-hop minimal lengths from a fixed source over (vertex, config) states."""

    source: int
    by_hops: tuple  # tuple of dicts: state -> Fraction, index = max hops used
    lengths: dict  # state -> overall minimal length

    def length(self, vertex: int, cfg: tuple):
        return self.lengths.get((vertex, cfg))


def _allowed_edges(instance: PcsInstance, edge_subset):
    if edge_subset is None:
        return range(len(instance.edges))
    ids = sorted(set(edge_subset))
    for eid in ids:
        if not (0 <= eid < len(instance.edges)):
            raise ContractError(f"edge id {eid} outside instance")
    return ids


def shortest_lengths_from(
    instance: PcsInstance,
    source: int,
    max_hops: int | None = None,
    edge_subset=None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> LabelTable:
    """Hop-bounded relaxation over (vertex, config) states.

    `by_hops[h]` holds the minimal length over walks with at most h edges;
    unreachable states are absent.
    """
    if max_hops is None:
        max_hops = default_hop_cap(instance, config)
    edge_ids = list(_allowed_edges(instance, edge_subset))
    start = (source, zero_config(instance))
    current = {start: Fraction(0)}
    tables = [dict(current)]
    for _ in range(max_hops):
        nxt = dict(current)
        changed = False
        for eid in edge_ids:
            e = instance.edges[eid]
            for (v, cfg), length in current.items():
                if v != e.tail:
                    continue
                cfg2 = step_config(instance, cfg, e.res)
                if cfg2 is None:
                    continue
                state2 = (e.head, cfg2)
                cand = length + e.res[0]
                old = nxt.get(state2)
                if old is None or cand < old:
                    nxt[state2] = cand
                    changed = True
        tables.append(nxt)
        current = nxt
        if not changed:
            # converged early; later tables equal this one
            break
    return LabelTable(source=source, by_hops=tuple(tables), lengths=dict(current))


def _backward_min_lengths(
    instance: PcsInstance,
    target_state: tuple,
    max_hops: int,
    edge_ids,
) -> list:
    """B[h][(v, cfg)] = min length over walks of <= h edges from v, entered
    with clamped config cfg, that end in target_state."""
    # enumerate all configs once; transitions need cfg at the tail
    all_cfgs = _enumerate_configs(instance)
    step_cache = {}
    for eid in edge_ids:
        e = instance.edges[eid]
        for cfg in all_cfgs:
            step_cache[(eid, cfg)] = step_config(instance, cfg, e.res)
    tables = [{target_state: Fraction(0)}]
    current = tables[0]
    for _ in range(max_hops):
        nxt = dict(current)
        changed = False
        for eid in edge_ids:
            e = instance.edges[eid]
            for cfg in all_cfgs:
                cfg2 = step_cache[(eid, cfg)]
                if cfg2 is None:
                    continue
                down = current.get((e.head, cfg2))
                if down is None:
                    continue
                cand = e.res[0] + down
                state = (e.tail, cfg)
                old = nxt.get(state)
                if old is None or cand < old:
                    nxt[state] = cand
                    changed = True
        tables.append(nxt)
        current = nxt
        if not changed:
            while len(tables) <= max_hops:
                tables.append(current)
            break
    return tables


def _enumerate_configs(instance: PcsInstance) -> list:
    configs = [()]
    for lo, hi in zip(*config_bounds(instance)):
        configs = [cfg + (v,) for cfg in configs for v in range(lo, hi + 1)]
    return configs


def _lex_reconstruct(
    instance: PcsInstance,
    source: int,
    target_state: tuple,
    total_length: Fraction,
    hop_budget: int,
    edge_ids,
) -> Walk:
    """Lexicographically smallest edge-id sequence among walks from source to
    target_state of length == total_length using <= hop_budget edges."""
    back = _backward_min_lengths(instance, target_state, hop_budget, edge_ids)
    out_by_tail = {}
    for eid in edge_ids:
        out_by_tail.setdefault(instance.edges[eid].tail, []).append(eid)
    walk = []
    state = (source, zero_config(instance))
    remaining = hop_budget
    length_left = total_length
    while True:
        if state == target_state and length_left == 0:
            return Walk(tuple(walk))
        if remaining == 0:
            raise AssertionError("witness reconstruction ran out of hops")
        chosen = None
        for eid in sorted(out_by_tail.get(state[0], ())):
            e = instance.edges[eid]
            cfg2 = step_config(instance, state[1], e.res)
            if cfg2 is None:
                continue
            need = length_left - e.res[0]
            cont = back[remaining - 1].get((e.head, cfg2))
            if cont is not None and cont == need:
                chosen = (eid, (e.head, cfg2), need)
                break
        if chosen is None:
            raise AssertionError("witness reconstruction dead end")
        eid, state, length_left = chosen
        walk.append(eid)
        remaining -= 1


def feasible_witness(
    instance: PcsInstance,
    demand: Demand,
    theta=None,
    edge_subset=None,
    max_hops: int | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Walk | None:
    """A feasible (or theta-feasible) walk for the demand, or None.

    Deterministic: targets the feasible (config, hops) state with the
    smallest (length, hops, config) and reconstructs the lexicographically
    smallest optimal edge sequence for it.
    """
    if max_hops is None:
        max_hops = default_hop_cap(instance, config)
    edge_ids = list(_allowed_edges(instance, edge_subset))
    bound = (
        demand.budget[0]
        if theta is None
        else theta_relaxed_bound(demand.budget[0], Fraction(theta))
    )
    table = shortest_lengths_from(
        instance, demand.source, max_hops=max_hops, edge_subset=edge_ids, config=config
    )
    best = None
    for h, tab in enumerate(table.by_hops):
        for (v, cfg), length in tab.items():
            if v != demand.target:
                continue
            if length > bound:
                continue
            if not config_feasible(instance, cfg, demand.budget):
                continue
            key = (length, h, cfg)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    length, hops, cfg = best
    return _lex_reconstruct(
        instance, demand.source, (demand.target, cfg), length, hops, edge_ids
    )


def hop_bound(instance: PcsInstance, config: SolverConfig = DEFAULT_CONFIG) -> int:
    """Smallest H such that every demand has a feasible walk with < H edges."""
    cap = default_hop_cap(instance, config)
    worst = 0
    # demands sharing a source reuse one DP table
    by_source = {}
    for d in instance.demands:
        by_source.setdefault(d.source, []).append(d)
    for source in sorted(by_source):
        table = shortest_lengths_from(instance, source, max_hops=cap)
        for d in by_source[source]:
            h_min = None
            for h, tab in enumerate(table.by_hops):
                ok = any(
                    v == d.target
                    and length <= d.budget[0]
                    and config_feasible(instance, cfg, d.budget)
                    for (v, cfg), length in tab.items()
                )
                if ok:
                    h_min = h
                    break
            if h_min is None:
                raise InfeasibleWithinCapError(
                    f"demand ({d.source},{d.target}) has no feasible walk within {cap} hops"
                )
            worst = max(worst, h_min)
    return worst + 1


def validate_demands(instance: PcsInstance, config: SolverConfig = DEFAULT_CONFIG):
    """Reject instances with an infeasible demand (problem undefined)."""
    for d in instance.demands:
        if feasible_witness(instance, d, config=config) is None:
            raise InfeasibleDemandError(
                f"demand ({d.source},{d.target}) admits no feasible walk"
            )


def verify_solution(
    instance: PcsInstance,
    subgraph,
    theta=None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> dict:
    """Per-demand feasibility within the subgraph (theta relaxes entry 0)."""
    edge_ids = sorted(set(subgraph))
    for eid in edge_ids:
        if not (0 <= eid < len(instance.edges)):
            raise ContractError(f"subgraph edge id {eid} outside instance")
    report = {}
    for idx, d in enumerate(instance.demands):
        witness = feasible_witness(
            instance, d, theta=theta, edge_subset=edge_ids, config=config
        )
        report[idx] = {"feasible": witness is not None, "witness": witness}
    return report


def intersection_instance(instance: PcsInstance, root: int):
    """Two copies of the graph glued at `root`.

    Walks from s in the plus copy to t in the minus copy are exactly the
    s ~> root ~> t walks of the base graph.  Returns (glued instance without
    demands, plus-map, minus-map, edge-id back map).
    """
    n = instance.n
    plus = {v: v for v in range(n)}
    minus = {}
    next_id = n
    for v in range(n):
        if v == root:
            minus[v] = plus[root]
        else:
            minus[v] = next_id
            next_id += 1
    edges = []
    back = []
    for eid, e in enumerate(instance.edges):
        edges.append(Edge(plus[e.tail], plus[e.head], e.cost, e.res))
        back.append(eid)
    for eid, e in enumerate(instance.edges):
        edges.append(Edge(minus[e.tail], minus[e.head], e.cost, e.res))
        back.append(eid)
    glued = PcsInstance(
        n=next_id,
        edges=tuple(edges),
        demands=(),
        tau=instance.tau,
        packing=instance.packing,
        covering=instance.covering,
    )
    return glued, plus, minus, back


def through_root_witness(
    instance: PcsInstance,
    demand: Demand,
    root: int,
    theta=None,
    edge_subset=None,
    max_hops: int | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Walk | None:
    """A feasible (or theta-feasible) s ~> root ~> t walk, or None.

    Runs the oracle on the two-copy intersection graph; the glued vertex
    forces every witness through the root.  The returned walk is expressed
    in base-instance edge ids.
    """
    glued, plus, minus, back = intersection_instance(instance, root)
    if edge_subset is None:
        allowed = None
    else:
        wanted = set(edge_subset)
        allowed = [gid for gid, beid in enumerate(back) if beid in wanted]
    gdemand = Demand(plus[demand.source], minus[demand.target], demand.budget)
    if max_hops is None:
        max_hops = 2 * default_hop_cap(instance, config)
    witness = feasible_witness(
        glued, gdemand, theta=theta, edge_subset=allowed, max_hops=max_hops, config=config
    )
    if witness is None:
        return None
    return Walk(tuple(back[gid] for gid in witness.edges))
