from fractions import Fraction

import pytest

from pcspan.errors import ScaleError
from pcspan.model import Walk, is_feasible
from pcspan.oracle import (
    brute_force_min_density_junction,
    brute_force_opt,
    enumerate_feasible_walks,
    through_root_candidates,
)

from conftest import make_instance


def test_single_direct_edge_catalog():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 1, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    cat = enumerate_feasible_walks(inst, inst.demands[0], cap=1)
    assert [w.edges for w in cat.walks] == [(0,)]


def test_double_loop_catalog_contains_revisiting_walk(double_loop_pcs):
    cat = enumerate_feasible_walks(double_loop_pcs, double_loop_pcs.demands[0], cap=10)
    assert cat.walks
    for w in cat.walks:
        verts = [double_loop_pcs.edges[w.edges[0]].tail] + [
            double_loop_pcs.edges[e].head for e in w.edges
        ]
        assert verts.count(2) >= 3  # vertex c entered at least twice beyond the first pass
        assert is_feasible(w, double_loop_pcs.demands[0], double_loop_pcs)


def test_packing_exhaustion_empty_catalog():
    inst = make_instance(
        n=3,
        edges=[(0, 1, 0, (1, 1)), (1, 2, 0, (1, 1))],
        demands=[],
        tau=1,
        packing=1,
        covering=0,
    )
    from pcspan.model import Demand, ResourceVector

    d = Demand(0, 2, ResourceVector((Fraction(9), 1)))
    cat = enumerate_feasible_walks(inst, d, cap=6)
    assert cat.walks == ()  # two unit-consumption edges exceed tau = 1


def test_catalog_walks_deduplicated_by_multiset():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 1, (1, 0)), (0, 1, 1, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    cat = enumerate_feasible_walks(inst, inst.demands[0], cap=1)
    assert len(cat.walks) == 2  # distinct edge sets, both kept


def test_cap_above_limit_refused(tri_instance):
    with pytest.raises(ScaleError):
        enumerate_feasible_walks(tri_instance, tri_instance.demands[0], cap=99)


def test_brute_force_opt_k1_equals_cheapest_walk(tri_instance):
    cost, edges = brute_force_opt(tri_instance)
    assert cost == 2 and edges == {0, 1}


def test_brute_force_opt_shared_edges_cheaper_than_sum():
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 5, (1, 0)),
            (1, 2, 1, (1, 0)),
            (1, 3, 1, (1, 0)),
        ],
        demands=[(0, 2, (2, 1)), (0, 3, (2, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    cost, edges = brute_force_opt(inst)
    assert cost == 7  # the 5-cost edge is shared
    assert edges == {0, 1, 2}


def test_min_density_junction_hub():
    k = 3
    es, ds = [], []
    for i in range(k):
        s, t = 1 + 2 * i, 2 + 2 * i
        es.append((s, 0, 1, (1, 0)))
        es.append((0, t, 1, (1, 0)))
        ds.append((s, t, (2, 1)))
    inst = make_instance(n=1 + 2 * k, edges=es, demands=ds, tau=1, packing=1, covering=0)
    root, density, edges, members = brute_force_min_density_junction(inst)
    assert root == 0
    assert density == 2  # 2k cost over k demands
    assert len(members) == k


def test_junction_density_never_exceeds_opt(tri_instance):
    cost, _ = brute_force_opt(tri_instance)
    _root, density, _edges, _members = brute_force_min_density_junction(tri_instance)
    assert density <= cost


def test_through_root_candidates_respect_budget(tri_instance):
    for root in range(3):
        for key, seq in through_root_candidates(tri_instance, tri_instance.demands[0], root):
            walk = Walk(tuple(seq))
            assert is_feasible(walk, tri_instance.demands[0], tri_instance)


def test_catalog_completeness_vs_matrix_power():
    # unit-resource DAG: walk counts by length match adjacency-matrix powers
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 0, (1, 0)),
            (0, 2, 0, (1, 0)),
            (1, 3, 0, (1, 0)),
            (2, 3, 0, (1, 0)),
            (1, 2, 0, (1, 0)),
        ],
        demands=[(0, 3, (3, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    cat = enumerate_feasible_walks(inst, inst.demands[0], cap=3)
    import numpy as np

    a = np.zeros((4, 4), dtype=int)
    for e in inst.edges:
        a[e.tail, e.head] += 1
    expected = sum(int(np.linalg.matrix_power(a, L)[0, 3]) for L in range(1, 4))
    # all walks here have length = edge count <= 3 = budget, so the catalog
    # (deduplicated by edge multiset; all walks are simple paths) is complete
    assert len(cat.walks) == expected
