"""Seeded random instance generation with guaranteed-feasible demands.

Every demand's budget is derived from a sampled witness walk plus slack, so
generated instances always satisfy the model's feasibility precondition.
Generation is deterministic per seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import PcspanError
from .layered import build_closure
from .model import (
    Demand,
    Edge,
    PcsInstance,
    ResourceVector,
    Walk,
    has_negative_cycle,
    walk_resource,
)
from .reductions import (
    AVOID,
    MUST_VISIT,
    HopsetDemand,
    HopsetInstance,
    RcsDemand,
    RcsEdge,
    RcsGroup,
    RcsInstance,
    is_routing_feasible,
)

REGIMES = ("integer", "rational", "rational-negative")


class GenerationError(PcspanError):
    pass


def _random_length(rng: random.Random, regime: str) -> Fraction:
    if regime == "integer":
        return Fraction(rng.randint(1, 4))
    if regime == "rational":
        return Fraction(rng.randint(1, 9), rng.randint(1, 3))
    if regime == "rational-negative":
        if rng.random() < 0.25:
            return Fraction(-rng.randint(1, 3), rng.randint(1, 2))
        return Fraction(rng.randint(1, 9), rng.randint(1, 3))
    raise GenerationError(f"unknown regime {regime!r}")


def _random_walk(rng: random.Random, arcs, source, target, max_len):
    """A random source~>target walk over (tail, head) arcs, as edge ids."""
    adj = {}
    for eid, (tail, head) in enumerate(arcs):
        adj.setdefault(tail, []).append(eid)
    for _attempt in range(60):
        v = source
        walk = []
        for _step in range(max_len):
            if v == target and walk:
                return walk
            options = adj.get(v, [])
            if not options:
                break
            eid = rng.choice(options)
            walk.append(eid)
            v = arcs[eid][1]
        if v == target and walk:
            return walk
    return None


def gen_pcs(
    n: int,
    k: int,
    m: int,
    tau: int,
    regime: str = "integer",
    seed: int = 0,
    packing: int | None = None,
    extra_edge_prob: float = 0.35,
    budget_slack: int = 2,
) -> PcsInstance:
    if regime not in REGIMES:
        raise GenerationError(f"regime must be one of {REGIMES}")
    if n < 2 or k < 1 or m < 1 or tau < 0:
        raise GenerationError("need n >= 2, k >= 1, m >= 1, tau >= 0")
    rng = random.Random(seed)
    p = packing if packing is not None else rng.randint(0, m)
    c = m - p
    for _round in range(200):
        arcs = []
        for v in range(n):
            arcs.append((v, (v + 1) % n))
        for u in range(n):
            for v in range(n):
                if u != v and (u, v) not in [(a, b) for a, b in arcs] and rng.random() < extra_edge_prob:
                    arcs.append((u, v))
        lengths = [_random_length(rng, regime) for _ in arcs]
        if regime == "rational-negative" and has_negative_cycle(
            n, [(u, v, l) for (u, v), l in zip(arcs, lengths)]
        ):
            continue
        edges = []
        for (u, v), length in zip(arcs, lengths):
            entries = [length]
            for i in range(p):
                entries.append(rng.choice([0, 0, 1, min(1, tau)]))
            for i in range(c):
                entries.append(rng.choice([0, 0, 0, -1]) if tau >= 1 else 0)
            edges.append(Edge(u, v, Fraction(rng.randint(0, 8)), ResourceVector(tuple(entries))))
        skeleton = _as_instance(n, edges, (), tau, p, c)
        arc_pairs = [(e.tail, e.head) for e in edges]
        demands = []
        ok = True
        for _ in range(k):
            for _try in range(40):
                s, t = rng.randrange(n), rng.randrange(n)
                if s == t:
                    continue
                walk = _random_walk(rng, arc_pairs, s, t, max_len=n + 2)
                if walk is None:
                    continue
                res = walk_resource(Walk(tuple(walk)), skeleton)
                if any(res[i] > tau for i in range(1, p + 1)):
                    continue  # witness walk overshoots the packing threshold
                entries = [res[0] + Fraction(rng.randint(0, budget_slack))]
                if entries[0] == 0:
                    entries[0] = Fraction(1) if rng.random() < 0.5 else Fraction(-1)
                    if entries[0] < res[0]:
                        entries[0] = res[0] + 1
                for i in range(1, p + 1):
                    entries.append(min(tau, res[i] + rng.randint(0, 1)))
                for i in range(p + 1, m + 1):
                    # clamp into [-tau, 0]; budgets above the true sum stay feasible
                    floor = max(-tau, res[i])
                    entries.append(min(0, floor + rng.randint(0, 1)))
                demands.append(Demand(s, t, ResourceVector(tuple(entries))))
                break
            else:
                ok = False
                break
        if not ok:
            continue
        return _as_instance(n, edges, demands, tau, p, c)
    raise GenerationError("generation retry cap exceeded")


def _as_instance(n, edges, demands, tau, p, c) -> PcsInstance:
    return PcsInstance(
        n=n, edges=tuple(edges), demands=tuple(demands), tau=tau, packing=p, covering=c
    )


def gen_rcs(
    n: int,
    k: int,
    must_visit: int,
    avoid: int,
    seed: int = 0,
    max_group_size: int = 2,
    extra_edge_prob: float = 0.4,
) -> RcsInstance:
    if n < 2 or k < 1 or must_visit < 0 or avoid < 0 or must_visit + avoid < 1:
        raise GenerationError("need n >= 2, k >= 1, group counts >= 0 and at least one group")
    rng = random.Random(seed)
    for _round in range(300):
        arcs = [(v, (v + 1) % n) for v in range(n)]
        for u in range(n):
            for v in range(n):
                if u != v and (u, v) not in arcs and rng.random() < extra_edge_prob:
                    arcs.append((u, v))
        edges = [
            RcsEdge(u, v, Fraction(rng.randint(0, 5)), rng.randint(1, 3)) for (u, v) in arcs
        ]
        groups = []
        for _ in range(must_visit):
            size = rng.randint(1, max_group_size)
            groups.append(RcsGroup(MUST_VISIT, frozenset(rng.sample(range(n), size))))
        for _ in range(avoid):
            size = rng.randint(1, max_group_size)
            groups.append(RcsGroup(AVOID, frozenset(rng.sample(range(n), size))))
        base = RcsInstance(n=n, edges=tuple(edges), groups=tuple(groups), demands=())
        demands = []
        ok = True
        for _ in range(k):
            d = _sample_rcs_demand(rng, base, n)
            if d is None:
                ok = False
                break
            demands.append(d)
        if not ok:
            continue
        return RcsInstance(n=n, edges=tuple(edges), groups=tuple(groups), demands=tuple(demands))
    raise GenerationError("rcs generation retry cap exceeded")


def _sample_rcs_demand(rng, base: RcsInstance, n):
    arc_pairs = [(e.tail, e.head) for e in base.edges]
    for _try in range(80):
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        walk_edges = _random_walk(rng, arc_pairs, s, t, n + 3)
        if walk_edges is None:
            continue
        walk = Walk(tuple(walk_edges))
        verts = {s} | {base.edges[eid].head for eid in walk_edges}
        ctrl = [sum(base.edges[eid].length for eid in walk_edges) + rng.randint(0, 2)]
        feasible_flags = True
        for g in base.groups:
            if g.kind == MUST_VISIT:
                ctrl.append(1 if (verts & g.members and rng.random() < 0.7) else 0)
            else:
                if verts & g.members:
                    ctrl.append(0)
                else:
                    ctrl.append(-1 if rng.random() < 0.5 else 0)
        demand = RcsDemand(s, t, tuple(ctrl))
        if is_routing_feasible(walk, demand, base):
            return demand
    return None


def gen_hopset(
    n: int, k: int, beta: int, style: str = "random", seed: int = 0, slack: int = 1
) -> HopsetInstance:
    if n < 2 or k < 1:
        raise GenerationError("need n >= 2, k >= 1")
    rng = random.Random(seed)
    if style == "path":
        arcs = [(v, v + 1, 1) for v in range(n - 1)]
    elif style == "cycle":
        arcs = [(v, (v + 1) % n, 1) for v in range(n)]
    else:
        arcs = [(v, (v + 1) % n, rng.randint(1, 3)) for v in range(n)]
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.2:
                    arcs.append((u, v, rng.randint(1, 3)))
    adj = {}
    for (u, v, length) in arcs:
        adj.setdefault(u, []).append((None, v, length))
    dist = build_closure(range(n), lambda u: adj.get(u, ())).dist
    demands = []
    for _ in range(k):
        for _try in range(60):
            s, t = rng.randrange(n), rng.randrange(n)
            if s == t or t not in dist[s]:
                continue
            demands.append(HopsetDemand(s, t, int(dist[s][t]) + rng.randint(0, slack)))
            break
        else:
            raise GenerationError("hopset demand sampling failed")
    return HopsetInstance(n=n, edges=tuple(arcs), demands=tuple(demands), beta=beta)

