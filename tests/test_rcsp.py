from dataclasses import replace
from fractions import Fraction

import pytest

import pcspan.rcsp
from pcspan.errors import (
    ContractError,
    InfeasibleDemandError,
    InfeasibleWithinCapError,
    InternalInvariantError,
)
from pcspan.model import Demand, Edge, ResourceVector, is_feasible, is_theta_feasible
from pcspan.oracle import _enumerate_walks, enumerate_feasible_walks
from pcspan.rcsp import (
    config_feasible,
    feasible_witness,
    hop_bound,
    shortest_lengths_from,
    through_root_witness,
    validate_demands,
    verify_solution,
)
from pcspan.generate import gen_pcs

from conftest import make_instance
from junction_oracle import through_root_candidates


def test_source_row_zero(tri_instance):
    table = shortest_lengths_from(tri_instance, 0)
    assert table.length(0, (0,)) == 0


def test_two_edge_chain_table():
    inst = make_instance(
        n=3,
        edges=[(0, 1, 0, (1, 1)), (1, 2, 0, (1, 0))],
        demands=[],
        tau=1,
        packing=1,
        covering=0,
    )
    table = shortest_lengths_from(inst, 0)
    assert table.length(2, (1,)) == 2


def test_covering_clamp_absorbs():
    # three -1 covering edges with tau=2: config clamps at -2
    inst = make_instance(
        n=4,
        edges=[(0, 1, 0, (1, -1)), (1, 2, 0, (1, -1)), (2, 3, 0, (1, -1))],
        demands=[],
        tau=2,
        packing=0,
        covering=1,
    )
    table = shortest_lengths_from(inst, 0)
    assert table.length(3, (-2,)) == 3
    assert table.length(3, (-3,)) is None  # clamped away


def test_table_respects_relaxations(tri_instance):
    table = shortest_lengths_from(tri_instance, 0)
    for (v, cfg), units in table.lengths.items():
        length = Fraction(units, table.scale)
        for eid in tri_instance.out_edges(v):
            e = tri_instance.edges[eid]
            ncfg = tuple(
                min(c + r, tri_instance.tau) for c, r in zip(cfg, e.res.entries[1:])
            )
            if any(x > tri_instance.tau for x in ncfg):
                continue
            entry = table.length(e.head, ncfg)
            if entry is not None:
                assert entry <= length + e.res[0]


def test_witness_direct_edge():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 1, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    assert feasible_witness(inst, inst.demands[0]).edges == (0,)


def test_witness_budget_forces_detour(tri_instance):
    w = feasible_witness(tri_instance, tri_instance.demands[0])
    assert w.edges == (0, 1)


def test_a_witness_the_backward_tables_cannot_steer_is_an_invariant_violation(
    monkeypatch, tri_instance
):
    # the forward search finds the walk; the backward tables, emptied here,
    # then give the reconstruction no step to take
    relax = pcspan.rcsp._relax
    calls = []

    def forward_only(arcs, start, max_hops):
        tables = relax(arcs, start, max_hops)
        calls.append(start)
        return tables if len(calls) == 1 else [{} for _ in tables]

    monkeypatch.setattr(pcspan.rcsp, "_relax", forward_only)
    with pytest.raises(InternalInvariantError, match="dead end"):
        feasible_witness(tri_instance, tri_instance.demands[0], max_hops=3)
    assert len(calls) == 2


def test_witness_absent_for_unreachable_covering():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 0, (1, 0))],
        demands=[],
        tau=1,
        packing=0,
        covering=1,
    )
    d = Demand(0, 1, ResourceVector((Fraction(5), -1)))
    assert feasible_witness(inst, d) is None


def test_witness_lex_smallest_among_optima():
    # two parallel identical edges; the smaller edge id wins
    inst = make_instance(
        n=2,
        edges=[(0, 1, 3, (1, 0)), (0, 1, 1, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    assert feasible_witness(inst, inst.demands[0]).edges == (0,)


def test_verify_solution_full_and_empty(tri_instance):
    full = verify_solution(tri_instance, range(3))
    assert full[0]["feasible"]
    assert is_feasible(full[0]["witness"], tri_instance.demands[0], tri_instance)
    empty = verify_solution(tri_instance, [])
    assert not empty[0]["feasible"] and empty[0]["witness"] is None


def test_verify_solution_rejects_foreign_edges(tri_instance):
    with pytest.raises(ContractError):
        verify_solution(tri_instance, [99])


def test_verify_solution_theta_mode():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 0, (11, 0))],
        demands=[(0, 1, (10, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    strict = verify_solution(inst, [0])
    assert not strict[0]["feasible"]
    relaxed = verify_solution(inst, [0], theta=Fraction(1, 10))
    assert relaxed[0]["feasible"]
    assert is_theta_feasible(relaxed[0]["witness"], inst.demands[0], inst, Fraction(1, 10))


def test_hop_bound_examples(tri_instance):
    assert hop_bound(tri_instance) == 3  # 2-edge walk, "fewer than" is strict
    direct = make_instance(
        n=2,
        edges=[(0, 1, 0, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    assert hop_bound(direct) == 2


def test_hop_bound_four_cycle_covering():
    # 4-cycle, covering consumed when entering vertex 3; demand (0, 2) must
    # loop past 3: brute-force enumeration fixes the minimum edge count
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 0, (1, 0)),
            (1, 2, 0, (1, 0)),
            (2, 3, 0, (1, -1)),
            (3, 0, 0, (1, 0)),
        ],
        demands=[(0, 2, (8, -1))],
        tau=1,
        packing=0,
        covering=1,
    )
    catalog = enumerate_feasible_walks(inst, inst.demands[0], cap=10)
    brute_min = min(len(w.edges) for w in catalog.walks)
    assert hop_bound(inst) == brute_min + 1 == 7


def test_hop_bound_infeasible_within_cap():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 0, (1, 0)), (1, 0, 0, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    bad = make_instance(
        n=2,
        edges=[(0, 1, 0, (1, 0))],
        demands=[(1, 0, (1, 1))],  # unreachable
        tau=1,
        packing=1,
        covering=0,
    )
    assert hop_bound(inst) == 2
    with pytest.raises(InfeasibleWithinCapError):
        hop_bound(bad)


def test_validate_demands_rejects_infeasible():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 0, (5, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    with pytest.raises(InfeasibleDemandError):
        validate_demands(inst)


def test_validate_demands_agrees_with_the_witness_search():
    # tightened copies of generated instances, many of them infeasible;
    # hop_bound raises exactly when validate_demands does
    infeasible = 0
    for seed in range(4):
        inst = gen_pcs(n=5, k=3, m=2, tau=1, regime="integer", seed=seed, packing=1)
        tightest = (0,) * inst.packing + (-inst.tau,) * inst.covering
        for di, d in enumerate(inst.demands):
            for b0 in sorted({d.budget[0], d.budget[0] - 1, d.budget[0] - 2, Fraction(0)}):
                for res in (d.budget.entries[1:], tightest):
                    demands = list(inst.demands)
                    demands[di] = Demand(d.source, d.target, ResourceVector((b0, *res)))
                    case = replace(inst, demands=demands)
                    # the demands are checked by ascending source
                    by_source = sorted(case.demands, key=lambda e: e.source)
                    first = next(
                        (e for e in by_source if feasible_witness(case, e) is None), None
                    )
                    if first is None:
                        validate_demands(case)
                        hop_bound(case)
                        continue
                    infeasible += 1
                    message = f"demand ({first.source},{first.target}) admits no feasible walk"
                    with pytest.raises(InfeasibleDemandError) as exc:
                        validate_demands(case)
                    assert str(exc.value) == message
                    with pytest.raises(InfeasibleWithinCapError):
                        hop_bound(case)
    assert infeasible >= 10


def test_oracle_agrees_with_enumeration_on_random_instances():
    for seed in range(12):
        inst = gen_pcs(n=5, k=2, m=2, tau=2, regime="integer", seed=seed)
        for d in inst.demands:
            catalog = enumerate_feasible_walks(inst, d, cap=6)
            witness = feasible_witness(inst, d, max_hops=6)
            assert (witness is not None) == bool(catalog.walks)
            if witness is not None:
                assert is_feasible(witness, d, inst)


def canonical_walk(instance, demand, cap):
    """The witness the oracle must return, by enumeration: among feasible
    walks with at most `cap` edges take the smallest (length, edge count,
    clamped config), then the lexicographically smallest edge tuple with that
    length and config and at most that many edges."""
    prune_length = all(e.res[0] >= 0 for e in instance.edges)
    walks = _enumerate_walks(
        instance, demand.source, demand.target, demand.budget, cap, 10**5, prune_length
    )
    if not walks:
        return None

    def clamped(res):
        # packing entries are >= 0, so only covering entries move
        return tuple(max(res[i], -instance.tau) for i in range(1, instance.dim))

    length, hops, cfg = min((res[0], len(edges), clamped(res)) for edges, res in walks)
    return min(
        edges
        for edges, res in walks
        if res[0] == length and clamped(res) == cfg and len(edges) <= hops
    )


def unit_lengths(instance):
    """The instance with every length set to 1, so that optimal walks tie."""
    edges = tuple(
        Edge(e.tail, e.head, e.cost, ResourceVector((Fraction(1),) + e.res.entries[1:]))
        for e in instance.edges
    )
    return replace(instance, edges=edges)


def test_witness_is_the_canonical_walk_on_random_instances():
    cap = 6
    found = 0
    for seed in range(24):
        regime = "integer" if seed % 2 else "rational-negative"
        base = gen_pcs(
            n=5, k=3, m=2, tau=2, regime=regime, seed=seed + 900, extra_edge_prob=0.6
        )
        for inst in (base, unit_lengths(base)):
            for d in inst.demands:
                expected = canonical_walk(inst, d, cap)
                witness = feasible_witness(inst, d, max_hops=cap)
                assert (None if witness is None else witness.edges) == expected
                found += expected is not None
    assert found > 100


def test_monotonicity_under_subgraph_growth():
    for seed in range(8):
        inst = gen_pcs(n=5, k=2, m=1, tau=1, regime="integer", seed=seed + 100)
        edge_ids = list(range(len(inst.edges)))
        half = edge_ids[: len(edge_ids) // 2]
        small = verify_solution(inst, half)
        big = verify_solution(inst, edge_ids)
        for di in small:
            if small[di]["feasible"]:
                assert big[di]["feasible"]


def min_feasible_hops(instance, demand, max_hops):
    """Smallest edge count of any feasible walk for the demand, or None."""
    table = shortest_lengths_from(instance, demand.source, max_hops=max_hops)
    for h, tab in enumerate(table.by_hops):
        for (v, cfg), units in tab.items():
            if (
                v == demand.target
                and units <= demand.budget[0] * table.scale
                and config_feasible(instance, cfg, demand.budget)
            ):
                return h
    return None


def test_hop_bound_is_tight_on_random_instances():
    for seed in range(8):
        inst = gen_pcs(n=5, k=2, m=1, tau=1, regime="integer", seed=seed + 500)
        bound = hop_bound(inst)
        mins = [min_feasible_hops(inst, d, max_hops=bound + 2) for d in inst.demands]
        # every demand has a feasible walk with < bound edges...
        assert all(h is not None and h < bound for h in mins)
        # ...and some demand has none shorter (the bound is exact)
        assert max(mins) == bound - 1


def test_through_root_witness_passes_root(tri_instance):
    w = through_root_witness(tri_instance, tri_instance.demands[0], 1)
    verts = [tri_instance.edges[w.edges[0]].tail] + [
        tri_instance.edges[e].head for e in w.edges
    ]
    assert 1 in verts
    assert is_feasible(w, tri_instance.demands[0], tri_instance)


def test_through_root_witness_rejects_foreign_edges(tri_instance):
    for subset in ([0, 1, 2, 99], [-1, 0]):
        with pytest.raises(ContractError):
            through_root_witness(tri_instance, tri_instance.demands[0], 1, edge_subset=subset)


def test_through_root_witness_matches_candidates_on_random_instances():
    cap = 5
    outcomes = set()
    for seed in range(6):
        inst = gen_pcs(n=4, k=2, m=2, tau=1, regime="integer", seed=seed + 700)
        for root in range(inst.n):
            for d in inst.demands:
                candidates = through_root_candidates(inst, d, root, cap=cap)
                witness = through_root_witness(inst, d, root, max_hops=cap)
                assert (witness is not None) == bool(candidates)
                outcomes.add(witness is not None)
                if witness is not None:
                    verts = [d.source] + [inst.edges[eid].head for eid in witness.edges]
                    assert root in verts
                    assert is_feasible(witness, d, inst)
    assert outcomes == {True, False}


def test_through_root_witness_with_root_revisit():
    # covering resource behind the root: the walk must loop r -> x -> r -> t
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 0, (1, 0)),  # s -> r
            (1, 2, 0, (1, -1)),  # r -> x (consumes covering)
            (2, 1, 0, (1, 0)),  # x -> r
            (1, 3, 0, (1, 0)),  # r -> t
        ],
        demands=[(0, 3, (6, -1))],
        tau=1,
        packing=0,
        covering=1,
    )
    w = through_root_witness(inst, inst.demands[0], 1)
    assert w is not None
    assert is_feasible(w, inst.demands[0], inst)
