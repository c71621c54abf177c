from fractions import Fraction

import pytest

from pcspan.config import SolverConfig
from pcspan.errors import ContractError, EssentialityViolationError, InternalInvariantError
from pcspan.generate import gen_pcs
from pcspan.junction import essential_set_mode, min_density_junction_tree
from pcspan.model import is_feasible, is_theta_feasible
from pcspan.oracle import brute_force_min_density_junction
from pcspan.product import build_product_graph
from pcspan.rcsp import through_root_witness
from pcspan.reductions import rcs_to_pcs

from conftest import make_instance


def test_direct_edge_density_at_most_cost():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 1, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    tree = min_density_junction_tree(inst, "integer")
    assert tree.density <= 1


def test_star_hub_resolves_all_demands():
    # hub vertex 0 lies on every feasible walk: one tree covers all demands
    k = 3
    edges = []
    demands = []
    for i in range(k):
        s = 1 + 2 * i
        t = 2 + 2 * i
        edges.append((s, 0, 1, (1, 0)))
        edges.append((0, t, 1, (1, 0)))
        demands.append((s, t, (2, 1)))
    inst = make_instance(n=1 + 2 * k, edges=edges, demands=demands, tau=1, packing=1, covering=0)
    tree = min_density_junction_tree(inst, "integer")
    assert tree.root == 0
    assert len(tree.resolved) == k
    assert tree.density == Fraction(2 * k, k)


def test_every_resolved_demand_verifies_through_root(tri_instance):
    tree = min_density_junction_tree(tri_instance, "integer")
    for di, witness in tree.resolved.items():
        assert is_feasible(witness, tri_instance.demands[di], tri_instance)
        assert set(witness.edges) <= set(tree.edges)
        w = through_root_witness(
            tri_instance, tri_instance.demands[di], tree.root, edge_subset=tree.edges
        )
        assert w is not None


def test_density_within_polylog_of_oracle_minimum():
    # returned density <= 4 * log^3(product size) * 2^(m+1) * optimum
    config = SolverConfig(enum_cap=8)
    import math

    for seed in range(6):
        inst = gen_pcs(n=5, k=2, m=1, tau=1, regime="integer", seed=seed + 11)
        tree = min_density_junction_tree(inst, "integer", config)
        _r, opt_density, _e, _m = brute_force_min_density_junction(inst, config)
        pg = build_product_graph(inst, config)
        size = len(pg.vertex_keys)
        slack = 4 * (math.log2(size) ** 3) * 2 ** (inst.m + 1)
        assert float(tree.density) <= slack * max(float(opt_density), 1e-9) or (
            opt_density == 0 and tree.density == 0
        )


def test_theta_mode_small_negative_instance():
    inst = make_instance(
        n=3,
        edges=[
            (0, 1, 1, (Fraction(3, 2), 0)),
            (1, 2, 1, (Fraction(-1, 2), 0)),
            (0, 2, 5, (Fraction(5, 2), 0)),
        ],
        demands=[(0, 2, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    config = SolverConfig(theta=Fraction(1, 10))
    tree = min_density_junction_tree(inst, "theta", config)
    for di, witness in tree.resolved.items():
        assert is_theta_feasible(witness, inst.demands[di], inst, config.theta)


def test_theta_mode_with_covering_resource():
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 1, (Fraction(1, 2), 0)),
            (1, 2, 1, (Fraction(3, 2), -1)),
            (2, 3, 1, (Fraction(1, 2), 0)),
            (1, 3, 1, (Fraction(1, 2), 0)),
        ],
        demands=[(0, 3, (3, -1))],  # must pass vertex 2 to collect the covering unit
        tau=1,
        packing=0,
        covering=1,
    )
    config = SolverConfig(theta=Fraction(1, 10))
    tree = min_density_junction_tree(inst, "theta", config)
    assert 1 in tree.edges  # the covering edge is unavoidable
    for di, w in tree.resolved.items():
        assert is_theta_feasible(w, inst.demands[di], inst, config.theta)


def test_root_enumeration_completeness(tri_instance):
    # result equals the minimum over per-root runs
    import random

    from pcspan.junction import junction_tree_for_root

    best = None
    for root in range(tri_instance.n):
        tree = junction_tree_for_root(tri_instance, root, random.Random(0))
        if tree is not None and (best is None or tree.density < best.density):
            best = tree
    full = min_density_junction_tree(tri_instance, "integer")
    assert full.density == best.density


def test_essential_set_premise_checker():
    from pcspan.reductions import (
        MUST_VISIT,
        RcsDemand,
        RcsEdge,
        RcsGroup,
        RcsInstance,
        essential_set_is_valid,
    )

    rcs = RcsInstance(
        n=3,
        edges=(
            RcsEdge(0, 1, Fraction(1), 1),
            RcsEdge(1, 2, Fraction(1), 1),
            RcsEdge(0, 2, Fraction(1), 1),
        ),
        groups=(RcsGroup(MUST_VISIT, frozenset({2})),),
        demands=(RcsDemand(0, 2, (3, 1)),),
    )
    assert essential_set_is_valid(rcs, {2})  # the target itself
    assert not essential_set_is_valid(rcs, {1})  # the direct edge bypasses 1


def test_essential_set_single_root(double_loop_rcs):
    # every routing-feasible (a, e) walk passes c = vertex 2
    from pcspan.reductions import essential_set_is_valid

    assert essential_set_is_valid(double_loop_rcs, {2})
    report = essential_set_mode(double_loop_rcs, {2})
    assert report.verified
    assert report.iterations
    assert all(it.root == 2 for it in report.iterations)


def test_essential_set_full_vertex_set_matches_unrestricted(double_loop_rcs):
    full = essential_set_mode(double_loop_rcs, set(range(9)))
    instance, _ = rcs_to_pcs(double_loop_rcs)
    from pcspan.greedy import solve_pcs

    unrestricted = solve_pcs(instance, "integer")
    assert full.cost == unrestricted.cost


def test_essential_set_violation():
    inst_rcs = _two_component_rcs()
    with pytest.raises(EssentialityViolationError):
        essential_set_mode(inst_rcs, {3})  # vertex 3 cannot reach the demand


def _two_component_rcs():
    from pcspan.reductions import MUST_VISIT, RcsDemand, RcsEdge, RcsGroup, RcsInstance

    return RcsInstance(
        n=4,
        edges=(
            RcsEdge(0, 1, Fraction(1), 1),
            RcsEdge(1, 0, Fraction(1), 1),
            RcsEdge(2, 3, Fraction(1), 1),
        ),
        groups=(RcsGroup(MUST_VISIT, frozenset({1})),),
        demands=(RcsDemand(0, 1, (3, 1)),),
    )


def test_two_vertex_essential_cut_cost_bound():
    # both hubs 1 and 2 cut all walks; essential solving pays at most the
    # sum of the two best single-root trees
    from pcspan.reductions import MUST_VISIT, RcsDemand, RcsEdge, RcsGroup, RcsInstance

    rcs = RcsInstance(
        n=5,
        edges=(
            RcsEdge(0, 1, Fraction(1), 1),
            RcsEdge(1, 4, Fraction(1), 1),
            RcsEdge(0, 2, Fraction(1), 1),
            RcsEdge(2, 3, Fraction(1), 1),
            RcsEdge(3, 4, Fraction(2), 1),
        ),
        groups=(RcsGroup(MUST_VISIT, frozenset({1, 2})),),
        demands=(RcsDemand(0, 4, (5, 1)), RcsDemand(0, 3, (4, 1))),
    )
    report = essential_set_mode(rcs, {1, 2})
    instance, _ = rcs_to_pcs(rcs)
    from pcspan.greedy import solve_pcs

    single = solve_pcs(instance, "integer")
    assert report.verified
    assert report.cost <= 2 * single.cost


def _count_product_builds(monkeypatch):
    import pcspan.junction

    calls = []
    original = pcspan.junction.build_product_graph

    def counting(problem, *config):
        calls.append(problem)
        return original(problem, *config)

    monkeypatch.setattr(pcspan.junction, "build_product_graph", counting)
    return calls


def test_one_product_graph_per_search(monkeypatch, tri_instance):
    calls = _count_product_builds(monkeypatch)
    instances = [tri_instance]
    instances += [gen_pcs(n=n, k=2, m=1, tau=1, regime="integer", seed=n + 40) for n in (4, 6)]
    for inst in instances:
        calls.clear()
        min_density_junction_tree(inst, "integer")
        assert calls == [inst], inst.n
    calls.clear()
    min_density_junction_tree(instances[1], "theta", SolverConfig(theta=Fraction(1, 2)))
    assert len(calls) == 1 and calls[0].base == instances[1]


def test_one_product_graph_for_restricted_roots(monkeypatch, tri_instance):
    calls = _count_product_builds(monkeypatch)
    tree = min_density_junction_tree(tri_instance, "integer", roots=[2, 1])
    assert calls == [tri_instance]
    assert tree.root in (1, 2)
    assert tree == min_density_junction_tree(tri_instance, "integer", roots=[1, 2])


def test_no_resolving_root_raises_after_one_build(monkeypatch):
    inst = make_instance(
        n=3,
        edges=[(0, 1, 0, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    calls = _count_product_builds(monkeypatch)
    with pytest.raises(InternalInvariantError):
        min_density_junction_tree(inst, "integer", roots=[2])
    assert calls == [inst]
    calls.clear()
    with pytest.raises(InternalInvariantError):
        min_density_junction_tree(inst, "integer", roots=[])
    assert calls == []


def test_out_of_range_root_still_rejected(tri_instance):
    with pytest.raises(ContractError):
        min_density_junction_tree(tri_instance, "integer", roots=[0, tri_instance.n])
    with pytest.raises(ContractError):
        min_density_junction_tree(tri_instance, "integer", roots=[-1, 0])
