"""The integer core against Fraction references.

Product-edge costs are base costs times the instance's cost scale, and the
walk oracle counts lengths in units of one over the length scale.  On
instances with rational costs and lengths, the int closures and walks must
be exactly those that Fraction arithmetic gives.
"""

import heapq
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pcspan.generate import gen_pcs
from pcspan.junction import greedy_round
from pcspan.model import Edge, ResourceVector, length_scale, theta_relaxed_bound
from pcspan.product import build_product_graph
from pcspan.rational import common_scale
from pcspan.rcsp import (
    config_feasible,
    default_hop_cap,
    feasible_witness,
    step_config,
)
from pcspan.scaling import scale_instance

from walk_reference import lengths_from


def fraction_closure(vertices, out_edges):
    """Dijkstra from every vertex in Fractions: dist and parent maps."""
    vset = set(vertices)
    dist, parents = {}, {}
    for src in sorted(vset):
        d = {src: Fraction(0)}
        parent = {}
        heap = [(Fraction(0), src)]
        done = set()
        while heap:
            du, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for ref, head, cost in out_edges(u):
                if head not in vset:
                    continue
                cand = du + cost
                if head not in d or cand < d[head]:
                    d[head] = cand
                    parent[head] = (u, ref)
                    heapq.heappush(heap, (cand, head))
        dist[src], parents[src] = d, parent
    return dist, parents


def fraction_tables(arcs, start, hops, keep_going=False) -> list:
    """Hop-bounded Bellman-Ford in Fractions: tables[h] maps every state a
    walk of at most h arcs reaches to the least length of such a walk."""
    tables = [{start: Fraction(0)}]
    for _ in range(hops):
        nxt = dict(tables[-1])
        for state, base in tables[-1].items():
            for _eid, state2, step in arcs(state):
                if state2 not in nxt or base + step < nxt[state2]:
                    nxt[state2] = base + step
        if nxt == tables[-1] and not keep_going:
            break
        tables.append(nxt)
    return tables


def fraction_arcs(instance):
    """arcs(state): (edge id, next state, Fraction length) by edge id."""
    def arcs(state):
        v, cfg = state
        for eid in instance.out_edges(v):
            e = instance.edges[eid]
            cfg2 = step_config(instance, cfg, e.res)
            if cfg2 is not None:
                yield eid, (e.head, cfg2), e.res[0]

    return arcs


def fraction_witness(instance, demand, theta, max_hops):
    """The oracle's canonical walk, in Fractions: the feasible target state
    with the least (length, hops, config), then the lexicographically least
    edge sequence of that length steered by backward tables."""
    arcs = fraction_arcs(instance)
    bound = theta_relaxed_bound(demand.budget[0], theta)
    start = (demand.source, (0,) * instance.m)
    forward = fraction_tables(arcs, start, max_hops)
    best = min(
        (
            (length, h, cfg)
            for h, tab in enumerate(forward)
            for (v, cfg), length in tab.items()
            if v == demand.target and length <= bound
            and config_feasible(instance, cfg, demand.budget)
        ),
        default=None,
    )
    if best is None:
        return None
    length, hops, cfg = best
    reverse = {}
    for state in forward[-1]:
        for eid, state2, step in arcs(state):
            reverse.setdefault(state2, []).append((eid, state, step))
    back = fraction_tables(lambda s: reverse.get(s, ()), (demand.target, cfg), hops, True)
    walk, state = [], start
    while state != (demand.target, cfg) or length != 0:
        ahead = back[hops - len(walk) - 1]
        eid, state, step = next(
            (eid, state2, step)
            for eid, state2, step in arcs(state)
            if ahead.get(state2) == length - step
        )
        walk.append(eid)
        length -= step
    return tuple(walk)


@st.composite
def rational_instances(draw):
    """A generated instance with drawn rational costs, its lengths and
    budgets stretched by one drawn positive rational, and a drawn root."""
    regime = draw(st.sampled_from(["integer", "rational", "rational-negative"]))
    inst = gen_pcs(n=4, k=2, m=1, tau=1, regime=regime, seed=draw(st.integers(0, 400)))
    costs = draw(
        st.lists(
            st.fractions(min_value=0, max_value=6, max_denominator=12),
            min_size=len(inst.edges),
            max_size=len(inst.edges),
        )
    )
    stretch = 1 if regime == "integer" else draw(
        st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8).filter(bool)
    )
    edges = tuple(
        Edge(e.tail, e.head, cost, ResourceVector((e.res[0] * stretch, *e.res.entries[1:])))
        for e, cost in zip(inst.edges, costs)
    )
    demands = tuple(
        replace(d, budget=ResourceVector((d.budget[0] * stretch, *d.budget.entries[1:])))
        for d in inst.demands
    )
    return regime, replace(inst, edges=edges, demands=demands), draw(st.integers(0, inst.n - 1))


@settings(max_examples=40, deadline=None)
@given(rational_instances())
def test_int_closures_and_witnesses_equal_the_fraction_reference(case):
    regime, inst, root = case
    problem = inst if regime == "integer" else scale_instance(inst, Fraction(1, 2))
    pg = build_product_graph(problem)
    rnd = greedy_round(pg)
    scale = common_scale(e.cost for e in inst.edges)
    assert rnd.cost_scale == scale
    assert all(type(price) is int for price in rnd.prices)

    def fraction_out(v):
        for idx in pg.out_adj[v]:
            pe = pg.edges[idx]
            yield idx, pe.head, inst.edges[pe.base_edge].cost

    for closure in () if rnd.bounds[root] is None else (rnd.closure,):
        dist, parent = fraction_closure(closure.dist, fraction_out)
        assert closure.parent == parent
        assert closure.dist == {u: {v: c * scale for v, c in row.items()} for u, row in dist.items()}
        assert all(type(c) is int for row in closure.dist.values() for c in row.values())

    assert all((e.res[0] * length_scale(inst)).denominator == 1 for e in inst.edges)
    cap = default_hop_cap(inst)
    for source in {d.source for d in inst.demands}:
        lengths = lengths_from(inst, source)[-1]
        assert all(type(units) is int for units in lengths.values())
        expected = fraction_tables(fraction_arcs(inst), (source, (0,) * inst.m), cap)[-1]
        scale = length_scale(inst)
        assert {state: Fraction(units, scale) for state, units in lengths.items()} == expected
    for d in inst.demands:
        for theta in (None, Fraction(1, 2)):
            walk = feasible_witness(inst, d, theta=theta)
            expected = fraction_witness(inst, d, theta, cap)
            assert (None if walk is None else walk.edges) == expected
