"""The integer core against Fraction references.

Product-edge costs are base costs times the instance's cost scale, and the
walk oracle counts lengths in units of one over the length scale.  On
instances with rational costs and lengths, the int closures and walks must
be exactly those that Fraction arithmetic gives.  A solved LP's values are
ints over one denominator D through pruning, bucketing and rounding; those
stages must pick exactly what their Fraction versions
(`fraction_reference`) pick on the values over D, and build no Fraction.
"""

import heapq
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
import pcspan.junction
import pcspan.lpsolve
from pcspan.density_lp import (
    LabelCoverLp,
    LpValues,
    _sample,
    _weighted_paths,
    bucket_and_scale,
    prune,
)
from pcspan.errors import ContractError, InternalInvariantError
from pcspan.generate import gen_pcs
from pcspan.greedy import solve_pcs
from pcspan.junction import greedy_round
from pcspan.lpsolve import LpSolution
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


@st.composite
def lp_stage_cases(draw):
    """Per demand a relation box and its relation pairs with int y masses,
    over a dimension whose covering entries have negative box entries, the
    masses of all demands summing to D; per terminal state a few root paths
    with int flows over D; and an rng seed."""
    dim = draw(st.integers(1, 3))
    covering = [draw(st.booleans()) for _ in range(dim)]
    demands = []
    for _ in range(draw(st.integers(1, 5))):
        budget = tuple(
            draw(st.integers(-2, 0) if cov else st.integers(1, 6)) for cov in covering
        )

        def entry(c, cap):  # a label entry of coordinate c, at most cap
            return draw(st.integers(-2, min(cap, 0)) if covering[c] else st.integers(0, cap))

        pairs = set()
        for _ in range(draw(st.integers(1, 7))):
            i_lab = tuple(entry(c, max(budget[c], 0)) for c in range(dim))
            j_lab = tuple(entry(c, budget[c] - i_lab[c]) for c in range(dim))
            pairs.add((i_lab, j_lab))
        masses = {p: draw(st.integers(0, 60)) for p in sorted(pairs)}
        demands.append((budget, masses))
    denominator = sum(sum(masses.values()) for _budget, masses in demands)
    assume(denominator > 0)
    flows = {
        vid: draw(st.lists(st.integers(0, 2 * denominator), min_size=1, max_size=3))
        for vid in range(draw(st.integers(1, 3)))
    }
    return dim, demands, denominator, flows, draw(st.integers(0, 2**32))


def _outcome(stage, *args):
    """What ``stage(*args)`` returns, or the class of the pcspan error it
    raises."""
    try:
        return stage(*args)
    except (ContractError, InternalInvariantError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(lp_stage_cases())
def test_int_lp_stages_pick_what_the_fraction_reference_picks(case):
    dim, demands, denominator, flows, seed = case

    def over_d(mass):
        return Fraction(mass, denominator)

    for budget, masses in demands:
        got = _outcome(prune, list(masses), masses, budget, dim)
        fractions = {p: over_d(m) for p, m in masses.items()}
        want = _outcome(ref.prune, list(fractions), fractions, budget, dim)
        if isinstance(want, type):
            assert got is want
            continue
        assert (got.src_alive, got.snk_alive, got.used_fallback) == (
            want.src_alive, want.snk_alive, want.used_fallback
        )
        assert all(type(v) is int for v in (got.gamma, got.src_mass, got.snk_mass))
        assert (over_d(got.gamma), over_d(got.src_mass), over_d(got.snk_mass)) == (
            want.gamma, want.src_mass, want.snk_mass
        )

    gammas = {di: sum(masses.values()) for di, (_budget, masses) in enumerate(demands)}
    got = _outcome(bucket_and_scale, gammas, dim, denominator)
    want = _outcome(ref.bucket_and_scale, {di: over_d(g) for di, g in gammas.items()}, dim)
    if isinstance(want, type):
        assert got is want
        return
    assert (got.i_star, got.demands, got.scale) == (want.i_star, want.demands, want.scale)
    assert type(got.scale) is int and over_d(got.bucket_mass) == want.bucket_mass

    # one path per flow, its column the flow's index
    columns = [flow for vid in sorted(flows) for flow in flows[vid]]
    g_cols, start = {}, 0
    for vid in sorted(flows):
        g_cols[("up", vid)] = range(start, start + len(flows[vid]))
        start += len(flows[vid])
    paths = {vid: [(vid, p) for p in range(len(flows[vid]))] for vid in flows}
    cover = LabelCoverLp(lp=None, rnd=None, root=0, paths_up=paths, paths_down={}, g_cols=g_cols)
    values = LpValues(solution=LpSolution(columns, denominator, 0, 1), y={})
    weighted = _weighted_paths(cover, values, "up", set(flows), got.scale)
    reference = ref._weighted_paths(cover, [over_d(v) for v in columns], "up", set(flows), want.scale)
    assert [(chain, over_d(w)) for chain, w in weighted] == reference
    assume(weighted)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(8):
        assert _sample(rng, weighted) == ref._sample(ref_rng, reference)


def test_no_fraction_is_built_after_the_certificate(monkeypatch):
    # one integer-set instance of scripts/report_digest.py whose roots build
    # LPs: the certified solve, pruning, bucketing and rounding build no
    # Fraction, and no LP needs elimination, the uncertified path
    inst = gen_pcs(n=5, k=2, m=2, tau=1, seed=5000)
    stages = []
    entered = Counter()
    built = Counter()

    def within(module, name):
        stage = getattr(module, name)

        def wrapped(*args, **kwargs):
            entered[name] += 1
            stages.append(name)
            try:
                return stage(*args, **kwargs)
            finally:
                stages.pop()

        monkeypatch.setattr(module, name, wrapped)

    for name in ("prune", "bucket_and_scale", "gst_round"):
        within(pcspan.junction, name)
    for name in ("solve_exact", "_eliminate"):
        within(pcspan.lpsolve, name)
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        if stages:
            built[stages[-1]] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    solve_pcs(inst, "integer")
    monkeypatch.undo()
    assert entered["solve_exact"] > 0 and entered["gst_round"] > 0
    assert entered["prune"] > 0 and entered["bucket_and_scale"] > 0
    assert entered["_eliminate"] == 0
    assert built == Counter()
