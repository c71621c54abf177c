from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcspan.errors import (
    ContractError,
    DivisionUndefinedError,
    InstanceMismatchError,
    ParseError,
)
from pcspan.model import (
    Demand,
    ResourceVector,
    Walk,
    check_walk,
    condition_numbers,
    is_feasible,
    theta_relaxed_bound,
    walk_resource,
)

from conftest import make_instance


def test_empty_walk_resource_is_zero(tri_instance):
    res = walk_resource(Walk(()), tri_instance)
    assert res.entries == (Fraction(0), 0)


def test_walk_resource_hand_sum(tri_instance):
    # independent fold over the same edges
    walk = Walk((0, 1))
    res = walk_resource(walk, tri_instance)
    expected = [Fraction(0), 0]
    for eid in walk.edges:
        e = tri_instance.edges[eid]
        expected = [a + b for a, b in zip(expected, e.res.entries)]
    assert res.entries == tuple(expected) == (Fraction(2), 1)


def test_double_loop_walk_length_ten(double_loop_pcs):
    # a->b->c->h->i->c->f->g->c->d->e revisits c; unit lengths sum to 10
    walk = Walk((0, 1, 7, 8, 9, 4, 5, 6, 2, 3))
    res = walk_resource(walk, double_loop_pcs)
    assert res[0] == 10


def test_walk_resource_unknown_edge(tri_instance):
    with pytest.raises(InstanceMismatchError):
        walk_resource(Walk((17,)), tri_instance)


def test_is_feasible_boundary(tri_instance):
    d = tri_instance.demands[0]
    assert is_feasible(Walk((0, 1)), d, tri_instance)  # (2,1) vs (2,1)
    assert not is_feasible(Walk((2,)), d, tri_instance)  # 3 > 2 in entry 0


def test_covering_budget_blocks_zero_consumption():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 1, (1, 0))],
        demands=[(0, 1, (5, -1))],
        tau=1,
        packing=0,
        covering=1,
    )
    assert not is_feasible(Walk((0,)), inst.demands[0], inst)


def test_endpoint_mismatch_raises(tri_instance):
    with pytest.raises(ContractError):
        is_feasible(Walk((0,)), tri_instance.demands[0], tri_instance)


@pytest.mark.parametrize(
    "budget0,length,expected",
    [
        (10, 11, True),  # 11 <= 10 * 1.1
        (-10, -9, True),  # -9 <= -10 * 0.9 = -9
        (-10, -8, False),  # -8 > -9
        (0, 0, True),  # sign(0) = 0: exact comparison
        (0, 1, False),
    ],
)
def test_theta_feasibility_sign_handling(budget0, length, expected):
    inst = make_instance(
        n=2,
        edges=[(0, 1, 0, (length, 0))],
        demands=[(0, 1, (budget0, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    got = is_feasible(Walk((0,)), inst.demands[0], inst, Fraction(1, 10))
    assert got is expected


def test_theta_must_be_positive(tri_instance):
    with pytest.raises(ContractError):
        is_feasible(Walk((0, 1)), tri_instance.demands[0], tri_instance, 0)


def test_condition_numbers_nonnegative_lengths(tri_instance):
    cn = condition_numbers(tri_instance)
    assert cn.eta == 0
    assert cn.xi == 1  # single demand


def test_condition_numbers_derived_example():
    # lengths {-3..4}, |budgets| in {4, 8}: eta = 3/4, xi = 2
    inst = make_instance(
        n=3,
        edges=[
            (0, 1, 0, (-3, 0)),
            (1, 2, 0, (4, 0)),
            (2, 0, 0, (1, 0)),
        ],
        demands=[(0, 1, (4, 0)), (0, 2, (8, 0))],
        tau=0,
        packing=1,
        covering=0,
    )
    cn = condition_numbers(inst)
    assert cn.eta == Fraction(3, 4)
    assert cn.xi == 2
    assert cn.min_length == -3 and cn.max_length == 4


def test_condition_numbers_zero_budget_errors():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 0, (1, 0))],
        demands=[(0, 1, (0, 0))],
        tau=0,
        packing=1,
        covering=0,
    )
    with pytest.raises(DivisionUndefinedError):
        condition_numbers(inst)


def test_condition_numbers_permutation_invariant():
    edges = [(0, 1, 0, (-2, 0)), (1, 2, 0, (3, 0)), (2, 0, 0, (1, 0))]
    demands = [(0, 1, (5, 0)), (1, 2, (10, 0))]
    a = condition_numbers(make_instance(3, edges, demands, 0, 1, 0))
    b = condition_numbers(make_instance(3, edges[::-1], demands[::-1], 0, 1, 0))
    assert (a.eta, a.xi) == (b.eta, b.xi)


def test_negative_cycle_rejected():
    with pytest.raises(ParseError):
        make_instance(
            n=2,
            edges=[(0, 1, 0, (-2, 0)), (1, 0, 0, (1, 0))],
            demands=[],
            tau=0,
            packing=1,
            covering=0,
        )


def test_resource_range_validation():
    with pytest.raises(ParseError):
        make_instance(
            n=2,
            edges=[(0, 1, 0, (1, 5))],  # packing entry above tau
            demands=[],
            tau=1,
            packing=1,
            covering=0,
        )
    with pytest.raises(ParseError):
        make_instance(
            n=2,
            edges=[(0, 1, 0, (1, 1))],  # covering entry must be <= 0
            demands=[],
            tau=1,
            packing=0,
            covering=1,
        )


@st.composite
def vectors(draw, dim):
    entries = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))]
    entries += [draw(st.integers(-2, 2)) for _ in range(dim - 1)]
    return entries


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_walk_resource_additive_under_concatenation(data):
    # chain 0 -> 1 -> 2 -> 3; concatenation sums componentwise, exactly
    edges = []
    for i in range(3):
        length = Fraction(data.draw(st.integers(0, 6)), data.draw(st.integers(1, 3)))
        pack = data.draw(st.integers(0, 2))
        cov = -data.draw(st.integers(0, 2))
        edges.append((i, i + 1, 0, (length, pack, cov)))
    inst = make_instance(4, edges, [], tau=2, packing=1, covering=1)
    left, right = Walk((0,)), Walk((1, 2))
    combined = Walk((0, 1, 2))
    total = walk_resource(combined, inst)
    parts = [
        a + b
        for a, b in zip(
            walk_resource(left, inst).entries, walk_resource(right, inst).entries
        )
    ]
    assert total.entries == tuple(parts)


@given(
    budget0=st.integers(-8, 8),
    length_delta=st.integers(0, 5),
    theta_num=st.integers(1, 10),
)
@settings(max_examples=80, deadline=None)
def test_feasible_implies_theta_feasible(budget0, length_delta, theta_num):
    length = budget0 - length_delta  # feasible by construction
    inst = make_instance(
        n=2,
        edges=[(0, 1, 0, (length, 0))],
        demands=[(0, 1, (budget0, 2))],
        tau=2,
        packing=1,
        covering=0,
    )
    d = inst.demands[0]
    walk = Walk((0,))
    assert is_feasible(walk, d, inst)
    assert is_feasible(walk, d, inst, Fraction(theta_num, 10))


def test_is_feasible_requires_a_budget_of_the_instance_dim(tri_instance):
    short = Demand(0, 2, ResourceVector((Fraction(2),)))
    with pytest.raises(ContractError):
        is_feasible(Walk((0, 1)), short, tri_instance)


def test_theta_none_leaves_the_length_bound_alone():
    assert theta_relaxed_bound(Fraction(-7, 2), None) == Fraction(-7, 2)


@pytest.mark.parametrize(
    "edges,source,target",
    [
        ((1,), 0, 2),  # starts at 1, not at the source
        ((0,), 0, 2),  # ends at 1, not at the target
        ((0, 2), 0, 2),  # 0 -> 1, then an edge out of 0
        ((), 0, 2),  # empty, distinct endpoints
    ],
)
def test_check_walk_rejects_a_bad_shape(tri_instance, edges, source, target):
    with pytest.raises(ContractError):
        check_walk(Walk(edges), tri_instance.edges, source, target)


def test_check_walk_accepts_a_walk_from_source_to_target(tri_instance):
    check_walk(Walk(()), tri_instance.edges, 1, 1)
    check_walk(Walk((0, 1)), tri_instance.edges, 0, 2)
