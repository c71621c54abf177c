import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from pcspan.errors import InfeasibleDemandError, InstanceMismatchError
from pcspan.generate import gen_hopset, gen_rcs
from pcspan.model import Walk, is_feasible
from pcspan.oracle import enumerate_feasible_walks
from pcspan.rcsp import feasible_witness
from pcspan.reductions import (
    AVOID,
    MUST_VISIT,
    HopsetDemand,
    HopsetInstance,
    RcsDemand,
    RcsEdge,
    RcsGroup,
    RcsInstance,
    hopset_to_pcs,
    is_routing_feasible,
    rcs_to_pcs,
    solve_hopset,
    solve_rcs,
    verify_hopset,
    weighted_transitive_closure,
)

from conftest import DOUBLE_LOOP_ARCS, routing_feasible_exists


def test_double_loop_revisiting_walk_is_routing_feasible(double_loop_rcs):
    # a->b->c->h->i->c->f->g->c->d->e
    walk = Walk((0, 1, 7, 8, 9, 4, 5, 6, 2, 3))
    assert is_routing_feasible(walk, double_loop_rcs.demands[0], double_loop_rcs)


def test_double_loop_every_feasible_walk_revisits_c(double_loop_rcs, double_loop_pcs):
    cat = enumerate_feasible_walks(double_loop_pcs, double_loop_pcs.demands[0], cap=12)
    assert cat.walks
    for w in cat.walks:
        verts = [double_loop_pcs.edges[w.edges[0]].tail] + [
            double_loop_pcs.edges[e].head for e in w.edges
        ]
        assert verts.count(2) >= 3


def test_double_loop_no_routing_feasible_simple_path(double_loop_rcs):
    # enumerate simple a->e paths and check the controls fail on each
    n = 9
    adj = {}
    for eid, (u, v) in enumerate(DOUBLE_LOOP_ARCS):
        adj.setdefault(u, []).append((eid, v))

    found = []

    def dfs(v, visited, edges):
        if v == 4:
            found.append(tuple(edges))
            return
        for eid, h in adj.get(v, ()):
            if h not in visited:
                dfs(h, visited | {h}, edges + [eid])

    dfs(0, {0}, [])
    assert found  # simple paths exist...
    for edges in found:
        assert not is_routing_feasible(Walk(edges), double_loop_rcs.demands[0], double_loop_rcs)


@pytest.mark.parametrize("eid", [-1, len(DOUBLE_LOOP_ARCS)])
def test_unknown_edge_ids_raise_in_both_walk_checks(double_loop_rcs, eid):
    # the last edge, 9, runs i -> c; -1 must not alias it, and 10 names no edge
    rcs = replace(double_loop_rcs, demands=(RcsDemand(8, 2, (1, 0, 0)),))
    assert is_routing_feasible(Walk((9,)), rcs.demands[0], rcs)
    with pytest.raises(InstanceMismatchError):
        is_routing_feasible(Walk((eid,)), rcs.demands[0], rcs)
    inst, _mapping = rcs_to_pcs(rcs)
    assert is_feasible(Walk((9,)), inst.demands[0], inst)
    with pytest.raises(InstanceMismatchError):
        is_feasible(Walk((eid,)), inst.demands[0], inst)


def test_no_controls_reduces_to_length_check(double_loop_rcs):
    demand = RcsDemand(0, 4, (4, 0, 0))
    walk = Walk((0, 1, 2, 3))
    assert is_routing_feasible(walk, demand, double_loop_rcs)
    short = RcsDemand(0, 4, (3, 0, 0))
    assert not is_routing_feasible(walk, short, double_loop_rcs)


def test_forbidden_interior_vertex_blocks_walk():
    rcs = RcsInstance(
        n=3,
        edges=(RcsEdge(0, 1, Fraction(1), 1), RcsEdge(1, 2, Fraction(1), 1)),
        groups=(RcsGroup(AVOID, frozenset({1})),),
        demands=(RcsDemand(0, 2, (5, 0)),),
    )
    walk = Walk((0, 1))
    assert is_routing_feasible(walk, rcs.demands[0], rcs)
    forbidden = RcsDemand(0, 2, (5, -1))
    assert not is_routing_feasible(walk, forbidden, rcs)
    assert not routing_feasible_exists(rcs, forbidden)


def test_rcs_reduction_forbidden_group_infeasible_both_sides():
    rcs = RcsInstance(
        n=3,
        edges=(RcsEdge(0, 1, Fraction(1), 1), RcsEdge(1, 2, Fraction(1), 1)),
        groups=(RcsGroup(AVOID, frozenset({1})),),
        demands=(RcsDemand(0, 2, (5, -1)),),
    )
    inst, _ = rcs_to_pcs(rcs)
    assert feasible_witness(inst, inst.demands[0]) is None
    assert not routing_feasible_exists(rcs, rcs.demands[0])


def test_rcs_reduction_double_loop_feasible_via_revisits(double_loop_rcs):
    inst, mapping = rcs_to_pcs(double_loop_rcs)
    w = feasible_witness(inst, inst.demands[0])
    assert w is not None
    assert is_routing_feasible(w, double_loop_rcs.demands[0], double_loop_rcs)


def test_rcs_reduction_unconstrained_equals_length_feasibility(double_loop_rcs):
    rcs = RcsInstance(
        n=double_loop_rcs.n,
        edges=double_loop_rcs.edges,
        groups=double_loop_rcs.groups,
        demands=(RcsDemand(0, 4, (4, 0, 0)),),
    )
    inst, _ = rcs_to_pcs(rcs)
    assert feasible_witness(inst, inst.demands[0]) is not None
    tight = RcsInstance(
        n=double_loop_rcs.n,
        edges=double_loop_rcs.edges,
        groups=double_loop_rcs.groups,
        demands=(RcsDemand(0, 4, (3, 0, 0)),),
    )
    inst2, _ = rcs_to_pcs(tight)
    assert feasible_witness(inst2, inst2.demands[0]) is None


def test_start_inside_required_group_counts_as_visited():
    rcs = RcsInstance(
        n=3,
        edges=(RcsEdge(0, 1, Fraction(1), 1), RcsEdge(1, 2, Fraction(1), 1)),
        groups=(RcsGroup(MUST_VISIT, frozenset({0})),),
        demands=(RcsDemand(0, 2, (5, 1)),),
    )
    assert routing_feasible_exists(rcs, rcs.demands[0])
    inst, _ = rcs_to_pcs(rcs)
    assert feasible_witness(inst, inst.demands[0]) is not None


def test_start_inside_forbidden_group_rejected():
    rcs = RcsInstance(
        n=3,
        edges=(RcsEdge(0, 1, Fraction(1), 1), RcsEdge(1, 2, Fraction(1), 1)),
        groups=(RcsGroup(AVOID, frozenset({0})),),
        demands=(RcsDemand(0, 2, (5, -1)),),
    )
    with pytest.raises(InfeasibleDemandError):
        rcs_to_pcs(rcs)
    assert not routing_feasible_exists(rcs, rcs.demands[0])


def test_feasibility_equivalence_random_instances():
    # routing-feasible <=> reduced-PCS-feasible, via two independent engines
    checked = 0
    for seed in range(25):
        rcs = gen_rcs(n=5, k=2, must_visit=2, avoid=1, seed=seed)
        inst, _ = rcs_to_pcs(rcs)
        for di, d in enumerate(rcs.demands):
            routing = routing_feasible_exists(rcs, d)
            reduced = feasible_witness(inst, inst.demands[di]) is not None
            assert routing == reduced, (seed, di)
            checked += 1
        # tightened variants probe the infeasible side too
        for di, d in enumerate(rcs.demands):
            tight = RcsDemand(d.source, d.target, (1,) + d.ctrl[1:])
            alt = RcsInstance(rcs.n, rcs.edges, rcs.groups, (tight,))
            try:
                inst2, _ = rcs_to_pcs(alt)
            except InfeasibleDemandError:
                assert not routing_feasible_exists(alt, tight)
                continue
            routing = routing_feasible_exists(alt, tight)
            reduced = feasible_witness(inst2, inst2.demands[0]) is not None
            assert routing == reduced, (seed, di, "tight")
            checked += 1
    assert checked >= 50


def test_solve_rcs_outputs_verify(double_loop_rcs):
    report = solve_rcs(double_loop_rcs)
    assert report.verified
    for di, d in enumerate(double_loop_rcs.demands):
        assert is_routing_feasible(report.witnesses[di], d, double_loop_rcs)


def test_claim_visit_count_bound():
    # some routing-feasible walk visits each vertex at most c + 1 times
    for seed in range(6):
        rcs = gen_rcs(n=5, k=1, must_visit=2, avoid=0, seed=seed + 400)
        d = rcs.demands[0]
        if not routing_feasible_exists(rcs, d):
            continue
        inst, mapping = rcs_to_pcs(rcs)
        w = feasible_witness(inst, inst.demands[0])
        verts = [inst.edges[w.edges[0]].tail] + [inst.edges[e].head for e in w.edges]
        cap = rcs.must_visit_count + 1
        assert max(verts.count(v) for v in set(verts)) <= cap


def _closure_pairs(closure):
    return [(e.tail, e.head, e.weight, e.cost) for e in closure.edges]


def test_weighted_closure_triangle():
    closure = weighted_transitive_closure(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
    pairs = _closure_pairs(closure)
    # the direct edge keeps its own length at cost 0; the shorter two-hop
    # distance becomes a cost-1 shortcut beside it
    assert [p for p in pairs if p[:2] == (0, 2)] == [(0, 2, 5, 0), (0, 2, 2, 1)]
    assert (0, 1, 1, 0) in pairs
    assert all(p[:2] != (2, 0) for p in pairs)  # unreachable pair absent


def test_weighted_closure_new_edges_cost_one():
    closure = weighted_transitive_closure(3, [(0, 1, 2), (1, 2, 3)])
    assert _closure_pairs(closure) == [(0, 1, 2, 0), (0, 2, 5, 1), (1, 2, 3, 0)]


def test_weighted_closure_parallel_inputs_keep_shortest():
    closure = weighted_transitive_closure(2, [(0, 1, 4), (0, 1, 2), (1, 1, 1)])
    assert _closure_pairs(closure) == [(0, 1, 2, 0)]


@pytest.mark.parametrize("seed", [22011002, 9, 52, 83])
def test_hopset_with_long_input_edge_solves(seed):
    # each instance has an input edge longer than the shortest path between
    # its endpoints; pricing it at cost 0 with the shorter weight made the
    # solver pick a free edge that verification could not use
    hs = gen_hopset(n=7, k=3, beta=3, style="random", seed=seed)
    closure = weighted_transitive_closure(hs.n, hs.edges)
    shortcut = {(e.tail, e.head) for e in closure.edges if e.cost == 1}
    assert any((u, v) in shortcut for (u, v, _length) in hs.edges)
    out = solve_hopset(hs)
    assert all(entry["feasible"] for entry in out["verification"].values())


def test_hopset_reduction_shapes():
    hs = HopsetInstance(
        n=4,
        edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)),
        demands=(HopsetDemand(0, 3, 3),),
        beta=2,
    )
    inst, closure = hopset_to_pcs(hs)
    assert inst.packing == 1 and inst.covering == 0
    assert inst.tau == 2
    for e in inst.edges:
        assert e.res[1] == 1  # every closure edge consumes one hop
    assert inst.demands[0].budget.entries == (Fraction(3), 2)


def test_hopset_beta1_needs_direct_edge():
    hs = HopsetInstance(
        n=3,
        edges=((0, 1, 1), (1, 2, 1)),
        demands=(HopsetDemand(0, 2, 2),),
        beta=1,
    )
    out = solve_hopset(hs)
    assert out["hopset_size"] == 1
    assert out["added_edges"][0][:2] == (0, 2)


def test_hopset_verify_all_closure_edges():
    hs = HopsetInstance(
        n=4,
        edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)),
        demands=(HopsetDemand(0, 3, 3), HopsetDemand(0, 2, 2)),
        beta=2,
    )
    closure = weighted_transitive_closure(4, hs.edges)
    every = [(e.tail, e.head, e.weight) for e in closure.edges if e.cost == 1]
    report = verify_hopset(hs, every)
    assert all(entry["feasible"] for entry in report.values())
    empty = verify_hopset(hs, [])
    assert not empty[0]["feasible"]  # (0,3) needs 3 hops in the bare path


def test_hopset_infeasible_demand_rejected():
    hs = HopsetInstance(
        n=3,
        edges=((0, 1, 2), (1, 2, 2)),
        demands=(HopsetDemand(0, 2, 1),),  # distance bound below d_G
        beta=2,
    )
    with pytest.raises(InfeasibleDemandError):
        solve_hopset(hs)


def _exhaustive_min_hopset(hs: HopsetInstance):
    closure = weighted_transitive_closure(hs.n, hs.edges)
    extras = [(e.tail, e.head, e.weight) for e in closure.edges if e.cost == 1]
    for size in range(len(extras) + 1):
        for subset in combinations(extras, size):
            report = verify_hopset(hs, subset)
            if all(entry["feasible"] for entry in report.values()):
                return size, subset
    raise AssertionError("full closure always verifies")


def test_hopset_path_graph_matches_exhaustive_minimum():
    hs = HopsetInstance(
        n=4,
        edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)),
        demands=(
            HopsetDemand(0, 3, 3),
            HopsetDemand(0, 2, 2),
            HopsetDemand(1, 3, 2),
        ),
        beta=2,
    )
    best_size, _ = _exhaustive_min_hopset(hs)
    out = solve_hopset(hs)
    assert out["hopset_size"] >= best_size
    assert all(entry["feasible"] for entry in out["verification"].values())


def test_per_demand_beta():
    hs = HopsetInstance(
        n=4,
        edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)),
        demands=(HopsetDemand(0, 3, 3, beta=3), HopsetDemand(0, 3, 3, beta=1)),
        beta=3,
    )
    report = verify_hopset(hs, [])
    assert report[0]["feasible"]  # three hops allowed
    assert not report[1]["feasible"]  # one hop disallows the bare path


def bellman_ford_hopset(hs: HopsetInstance, added_edges) -> dict:
    """The reference for `verify_hopset`: per demand, beta rounds of
    Bellman-Ford over every edge of G plus the added edges, each round
    reading the previous round's distances."""
    combined = list(hs.edges) + [tuple(e) for e in added_edges]
    out = {}
    for di, d in enumerate(hs.demands):
        dist = {d.source: 0}
        for _hop in range(hs.demand_beta(d)):
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


@pytest.mark.parametrize("style", ["random", "path", "cycle"])
def test_verify_hopset_equals_per_hop_bellman_ford(style):
    rng = random.Random(style)
    outcomes = set()
    for seed in range(6):
        base = gen_hopset(n=6, k=4, beta=2, style=style, seed=seed)
        closure = weighted_transitive_closure(base.n, base.edges)
        extras = [(e.tail, e.head, e.weight) for e in closure.edges if e.cost == 1]
        # the global beta, then a random beta per demand
        for hs in (
            base,
            replace(
                base,
                demands=tuple(replace(d, beta=rng.randint(1, 4)) for d in base.demands),
            ),
        ):
            for _ in range(5):
                added = [e for e in extras if rng.random() < 0.3]
                report = verify_hopset(hs, added)
                assert report == bellman_ford_hopset(hs, added)
                outcomes |= {entry["feasible"] for entry in report.values()}
    assert outcomes == {True, False}
