"""Resource-constrained shortest-walk engine: the walk oracle.

Every walk question is answered by one hop-bounded relaxation (`relax`):
the witness search (`feasible_witness`, `verify_solution`,
`through_root_witness`), the hop bound of the scaling (`hop_bound`, which
also decides whether every demand has a feasible walk), and, over plain
vertices, `reductions.verify_hopset`.

States are (vertex, config) pairs where a config tracks resources 1..m with
the covering coordinates clamped at -tau (clamping is absorbing: once a walk
has consumed -tau of a covering resource, further consumption is irrelevant
because every budget is >= -tau).  Lengths may be negative; the instance
invariant (no negative-length cycle) guarantees the hop-bounded DP converges
to true minima once the hop cap reaches the state count.  The DP adds ints:
every length is counted in units of 1 / `model.length_scale`, and each
budget becomes the largest whole number of units within it.
"""

from __future__ import annotations

import math

from .errors import (
    ContractError,
    InfeasibleWithinCapError,
    InternalInvariantError,
)
from .model import (
    Demand,
    Edge,
    PcsInstance,
    ResourceVector,
    Walk,
    length_scale,
    theta_relaxed_bound,
)
from .rational import to_units


def zero_config(instance: PcsInstance) -> tuple:
    return (0,) * instance.m


def config_count(instance: PcsInstance) -> int:
    return (instance.tau + 1) ** instance.m


def config_bounds(instance: PcsInstance) -> tuple:
    """(lower, upper) tuples bounding each clamped config coordinate 1..m:
    packing in [0, tau], covering in [-tau, 0]."""
    p, c, tau = instance.packing, instance.covering, instance.tau
    return (0,) * p + (-tau,) * c, (tau,) * p + (0,) * c


def _enumerate_configs(instance: PcsInstance) -> list:
    configs = [()]
    for lo, hi in zip(*config_bounds(instance)):
        configs = [cfg + (v,) for cfg in configs for v in range(lo, hi + 1)]
    return configs


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


# the hop cap is at least HOP_CAP_FACTOR * n^2
HOP_CAP_FACTOR = 2


def default_hop_cap(instance: PcsInstance) -> int:
    # large enough for DP convergence (optimal walks never repeat a state)
    return max(
        HOP_CAP_FACTOR * instance.n * instance.n,
        instance.n * config_count(instance),
    )


def _limit(bound, scale: int) -> int:
    """The largest int number of 1 / `scale` units within `bound`."""
    return math.floor(bound * scale)


def _within_budget(instance: PcsInstance, demand: Demand, limit: int, table: dict) -> list:
    """(config, length) of each state of `table` that ends a walk meeting
    the demand: at its target, within `limit` length units and its config
    within budget."""
    return [
        (cfg, length)
        for (v, cfg), length in table.items()
        if v == demand.target
        and length <= limit
        and config_feasible(instance, cfg, demand.budget)
    ]


def _allowed_edges(instance: PcsInstance, edge_subset):
    if edge_subset is None:
        return range(len(instance.edges))
    ids = sorted(set(edge_subset))
    for eid in ids:
        if not (0 <= eid < len(instance.edges)):
            raise ContractError(f"edge id {eid} outside instance")
    return ids


def _successors(instance: PcsInstance, edges, edge_ids, scale: int):
    """Arcs between (vertex, config) states over `edges[eid]` for the
    ascending ids `edge_ids`.

    Returns (arcs, expanded): `arcs(state)` lists (eid, next state, length
    in units of 1 / `scale`) in edge-id order and steps each config once per
    state and edge; `expanded` maps every state expanded so far to its arcs.
    """
    out_by_tail = {}
    units = {}
    for eid in edge_ids:
        out_by_tail.setdefault(edges[eid].tail, []).append(eid)
        units[eid] = to_units(edges[eid].res[0], scale)
    expanded = {}

    def arcs(state):
        out = expanded.get(state)
        if out is None:
            v, cfg = state
            out = []
            for eid in out_by_tail.get(v, ()):
                e = edges[eid]
                cfg2 = step_config(instance, cfg, e.res)
                if cfg2 is not None:
                    out.append((eid, (e.head, cfg2), units[eid]))
            expanded[state] = out
        return out

    return arcs, expanded


def relax(arcs, start, max_hops: int) -> list:
    """Hop-bounded Bellman-Ford from `start` over `arcs(state)`, which
    lists (edge id, next state, length) triples.

    `tables[h]` maps every state reached by a walk of at most h arcs to the
    minimal length of such a walk.  Each hop re-relaxes only the states the
    previous hop improved; the search stops after `max_hops` hops or at the
    first hop that improves nothing (later tables would equal the last).
    """
    tables = [{start: 0}]
    improved = (start,)
    for _ in range(max_hops):
        current = tables[-1]
        nxt = dict(current)
        changed = set()
        for state in improved:
            base = current[state]
            for _eid, state2, length in arcs(state):
                cand = base + length
                old = nxt.get(state2)
                if old is None or cand < old:
                    nxt[state2] = cand
                    changed.add(state2)
        if not changed:
            break
        tables.append(nxt)
        improved = changed
    return tables


def _witness(instance: PcsInstance, edges, edge_ids, demand: Demand, theta, max_hops):
    """Edge ids of the canonical feasible walk over `edges`, or None.

    The forward tables give the feasible target state with the smallest
    (length, hops, config); the backward tables over the reversed expanded
    arcs then steer the lexicographically smallest optimal edge sequence.
    They are exact for every state the steering reads: a walk of at most
    `hops` edges only leaves states the forward search expanded.
    """
    scale = length_scale(instance)
    bound = _limit(theta_relaxed_bound(demand.budget[0], theta), scale)
    arcs, expanded = _successors(instance, edges, edge_ids, scale)
    start = (demand.source, zero_config(instance))
    best = None
    for h, tab in enumerate(relax(arcs, start, max_hops)):
        for cfg, length in _within_budget(instance, demand, bound, tab):
            key = (length, h, cfg)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    length, hops, cfg = best
    target = (demand.target, cfg)
    reverse = {}
    for state, out in expanded.items():
        for eid, state2, step in out:
            reverse.setdefault(state2, []).append((eid, state, step))
    back = relax(lambda s: reverse.get(s, ()), target, hops)
    walk = []
    state = start
    while state != target or length != 0:
        remaining = hops - len(walk)
        if remaining == 0:
            raise InternalInvariantError("witness reconstruction ran out of hops")
        ahead = back[min(remaining - 1, len(back) - 1)]
        for eid, state2, step in arcs(state):
            if ahead.get(state2) == length - step:
                break
        else:
            raise InternalInvariantError("witness reconstruction dead end")
        walk.append(eid)
        state = state2
        length -= step
    return tuple(walk)


def feasible_witness(
    instance: PcsInstance,
    demand: Demand,
    theta=None,
    edge_subset=None,
    max_hops: int | None = None,
) -> Walk | None:
    """A feasible (or theta-feasible) walk for the demand, or None.

    Deterministic: targets the feasible (config, hops) state with the
    smallest (length, hops, config) and reconstructs the lexicographically
    smallest optimal edge sequence for it.
    """
    if max_hops is None:
        max_hops = default_hop_cap(instance)
    edge_ids = _allowed_edges(instance, edge_subset)
    walk = _witness(instance, instance.edges, edge_ids, demand, theta, max_hops)
    return None if walk is None else Walk(walk)


def hop_bound(instance: PcsInstance) -> int:
    """Smallest H such that every demand has a feasible walk with < H edges.

    One relaxation per distinct source, ascending, over one arc map: a
    state's arcs do not depend on the source.  Demands are checked by
    ascending source, then in instance order.
    """
    cap = default_hop_cap(instance)
    scale = length_scale(instance)
    arcs, _ = _successors(instance, instance.edges, range(len(instance.edges)), scale)
    by_source = {}
    for d in instance.demands:
        by_source.setdefault(d.source, []).append(d)
    worst = 0
    for source in sorted(by_source):
        tables = relax(arcs, (source, zero_config(instance)), cap)
        for d in by_source[source]:
            limit = _limit(d.budget[0], scale)
            h_min = next(
                (h for h, tab in enumerate(tables) if _within_budget(instance, d, limit, tab)),
                None,
            )
            if h_min is None:
                raise InfeasibleWithinCapError(
                    f"demand ({d.source},{d.target}) has no feasible walk within {cap} hops"
                )
            worst = max(worst, h_min)
    return worst + 1


def verify_solution(
    instance: PcsInstance,
    subgraph,
    theta=None,
) -> dict:
    """Per-demand feasibility within the subgraph (theta relaxes entry 0)."""
    edge_ids = _allowed_edges(instance, subgraph)
    report = {}
    for idx, d in enumerate(instance.demands):
        witness = feasible_witness(instance, d, theta=theta, edge_subset=edge_ids)
        report[idx] = {"feasible": witness is not None, "witness": witness}
    return report


def through_root_witness(
    instance: PcsInstance,
    demand: Demand,
    root: int,
    theta=None,
    edge_subset=None,
    max_hops: int | None = None,
) -> Walk | None:
    """A feasible (or theta-feasible) s ~> root ~> t walk, or None.

    Searches two copies of the graph glued at the root: edge eid joins the
    plus copy (vertex ids unchanged), edge E + eid the minus copy (vertex v
    becomes v + n, the root stays itself).  Every walk from s in the plus
    copy to t in the minus copy passes the root; it maps back by gid % E.
    """
    edge_ids = _allowed_edges(instance, edge_subset)
    count = len(instance.edges)

    def minus(v):
        return v if v == root else v + instance.n

    glued = list(instance.edges) + [
        Edge(minus(e.tail), minus(e.head), e.cost, e.res) for e in instance.edges
    ]
    glued_ids = list(edge_ids) + [count + eid for eid in edge_ids]
    if max_hops is None:
        max_hops = 2 * default_hop_cap(instance)
    gdemand = Demand(demand.source, minus(demand.target), demand.budget)
    walk = _witness(instance, glued, glued_ids, gdemand, theta, max_hops)
    return None if walk is None else Walk(tuple(gid % count for gid in walk))
