import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcspan.density_lp import (
    BucketChoice,
    JunctionTree,
    LpValues,
    _weighted_paths,
    bucket_and_scale,
    build_lp,
    fallback_tree,
    gst_round,
    median_consumption,
    prune,
    solve_lp,
    sort_representatives,
    assemble_junction_tree,
    tree_order,
    union_pair_tree,
)
from pcspan.errors import ContractError, InternalInvariantError
from pcspan.generate import gen_pcs
from pcspan.junction import min_density_junction_tree, product_graph_for
from pcspan.model import Walk, is_feasible
from pcspan.product import relation_holds

from conftest import label_cover, label_masses, lp_masses, make_instance
from junction_oracle import brute_force_min_density_junction


def tri_cover(tri_instance, root=1):
    bundle = label_cover(tri_instance, root)
    assert bundle is not None
    return build_lp(bundle)


def test_build_lp_single_pair_forces_unit_mass(tri_instance):
    cover = tri_cover(tri_instance)
    values = solve_lp(cover)
    assert sum(values.y.values()) == 1
    # the only connectable pair carries all mass, and the flow of each of
    # its terminal states carries at least that mass
    ((key, mass),) = [(k, v) for k, v in values.y.items() if v > 0]
    _di, i, j = key
    assert mass == 1
    for side, vid in (("up", i), ("down", j)):
        carried = [v for (s, state, _p), v in values.flow.items() if (s, state) == (side, vid)]
        assert sum(carried) >= mass


def test_no_candidate_error():
    inst = make_instance(
        n=3,
        edges=[(0, 1, 0, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    assert label_cover(inst, 2) is None  # root resolves nothing -> skip


def test_lp_value_zero_iff_zero_cost_path():
    zero = make_instance(
        n=3,
        edges=[(0, 1, 0, (1, 0)), (1, 2, 0, (1, 0))],
        demands=[(0, 2, (2, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    cover = build_lp(label_cover(zero, 1))
    assert solve_lp(cover).objective == 0
    paid = make_instance(
        n=3,
        edges=[(0, 1, 3, (1, 0)), (1, 2, 0, (1, 0))],
        demands=[(0, 2, (2, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    cover = build_lp(label_cover(paid, 1))
    assert solve_lp(cover).objective > 0


def test_tri_lp_value_matches_min_density(tri_instance):
    # single demand: the LP optimum equals the brute-force min density at the
    # root on the optimal walk
    cover = tri_cover(tri_instance, root=1)
    values = solve_lp(cover)
    _root, density, _edges, _members = brute_force_min_density_junction(tri_instance)
    assert values.objective == density == 2


def test_density_lp_is_a_column_wise_plus_minus_one_matrix():
    inst = gen_pcs(n=6, k=3, m=1, tau=1, regime="integer", seed=8, budget_slack=1)
    bundles = [label_cover(inst, root) for root in range(3)]
    covers = [build_lp(b) for b in bundles if b is not None]
    assert covers
    for cover in covers:
        lp = cover.lp
        num_rows = len(lp.eq_rows) + len(lp.ub_rows)
        for column in lp.columns:
            rows = [i for i, _a in column]
            assert all(a < b for a, b in zip(rows, rows[1:]))
            assert 0 <= rows[0] and rows[-1] < num_rows
            assert all(type(a) is int and a in (1, -1) for _i, a in column)
        assert lp.eq_rows == [1] + [0] * (len(lp.eq_rows) - 1)
        assert all(b == 0 for b in lp.ub_rows)
        assert len(lp.eq_rows) == 1 + len(cover.paths_up) + len(cover.paths_down)


def test_sort_representatives_examples():
    reps = [(1, 0), (2, 5), (3, 1)]
    assert sort_representatives(reps, 0) == reps  # already sorted: unchanged
    assert sort_representatives(reps[::-1], 0) == reps  # reverse input
    tied = [(1, 9), (1, 2), (0, 7)]
    assert sort_representatives(tied, 0) == [(0, 7), (1, 2), (1, 9)]  # lex on ties


def test_median_consumption_examples():
    reps = [(1,), (2,), (3,)]
    masses = {(1,): Fraction(3, 10), (2,): Fraction(4, 10), (3,): Fraction(3, 10)}
    assert median_consumption(masses, reps, Fraction(1, 2), 0) == 2
    assert median_consumption(masses, reps, Fraction(1), 0) == 3  # full mass
    single = {(7,): Fraction(1)}
    assert median_consumption(single, [(7,)], Fraction(1), 0) == 7
    with pytest.raises(InternalInvariantError):
        median_consumption(masses, reps, Fraction(2), 0)


def test_prune_one_dimensional_median():
    # m = 0: a single phase with lambda = gamma / 2
    budget = (10,)
    pairs = [((i,), (10 - i,)) for i in range(0, 11, 2)]
    y = {p: Fraction(1, len(pairs)) for p in pairs}
    ps = prune(pairs, y, budget, dim=1)
    for i_lab in ps.src_alive:
        for j_lab in ps.snk_alive:
            assert i_lab[0] + j_lab[0] <= 10
    assert ps.src_mass >= ps.gamma / 2
    assert ps.snk_mass >= ps.gamma / 2


def test_prune_constructed_two_resource_case():
    # pairs (10, 20) and (20, 10) under budget (25, 25): the classic partial
    # order example; the surviving cross product must stay within budget
    budget = (25, 25)
    pairs = [((10, 20), (15, 5)), ((20, 10), (5, 15))]
    y = {pairs[0]: Fraction(1, 2), pairs[1]: Fraction(1, 2)}
    ps = prune(pairs, y, budget, dim=2)
    assert ps.src_alive and ps.snk_alive
    for i_lab in ps.src_alive:
        for j_lab in ps.snk_alive:
            assert relation_holds(budget, i_lab, j_lab)
    assert ps.src_mass >= ps.gamma / 8
    assert ps.snk_mass >= ps.gamma / 8


def _random_relation_case(rng: random.Random, dim: int):
    budget = tuple(rng.randint(2, 8) for _ in range(dim))
    pairs = set()
    for _ in range(rng.randint(1, 14)):
        i_lab = tuple(rng.randint(0, b) for b in budget)
        j_lab = tuple(rng.randint(0, budget[c] - i_lab[c]) for c in range(dim))
        pairs.add((i_lab, j_lab))
    pairs = sorted(pairs)
    weights = [Fraction(rng.randint(1, 9)) for _ in pairs]
    total = sum(weights)
    y = {p: w / total for p, w in zip(pairs, weights)}
    return budget, pairs, y


def test_prune_lemma_random_relations():
    rng = random.Random(424242)
    for _case in range(60):
        dim = rng.randint(1, 3)
        budget, pairs, y = _random_relation_case(rng, dim)
        ps = prune(pairs, y, budget, dim)
        # survivors' pairwise sums stay within budget, exhaustively
        for i_lab in ps.src_alive:
            for j_lab in ps.snk_alive:
                assert relation_holds(budget, i_lab, j_lab)
        # survivor-mass bound, exact rationals
        bound = ps.gamma / 2**dim
        assert ps.src_mass >= bound
        assert ps.snk_mass >= bound


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_prune_cross_product_always_safe(data):
    dim = data.draw(st.integers(1, 3))
    budget = tuple(data.draw(st.integers(1, 6)) for _ in range(dim))
    n_pairs = data.draw(st.integers(1, 8))
    pairs = set()
    for _ in range(n_pairs):
        i_lab = tuple(data.draw(st.integers(0, b)) for b in budget)
        j_lab = tuple(
            data.draw(st.integers(0, budget[c] - i_lab[c])) for c in range(dim)
        )
        pairs.add((i_lab, j_lab))
    pairs = sorted(pairs)
    y = {p: Fraction(data.draw(st.integers(1, 5))) for p in pairs}
    total = sum(y.values())
    y = {p: v / total for p, v in y.items()}
    ps = prune(pairs, y, budget, dim)
    # the cross-product guarantee holds unconditionally, fallback or not
    assert ps.src_alive and ps.snk_alive
    for i_lab in ps.src_alive:
        for j_lab in ps.snk_alive:
            assert relation_holds(budget, i_lab, j_lab)
    # the survivor bound holds whenever any threshold box can achieve it
    if not ps.used_fallback:
        assert ps.src_mass >= ps.gamma / 2**dim
        assert ps.snk_mass >= ps.gamma / 2**dim


def test_bucket_single_demand():
    choice = bucket_and_scale({0: Fraction(1)}, dim=2)
    assert choice.i_star == 0 and choice.demands == (0,)
    assert choice.scale == 4 * 2  # 2^(m+1) * 2^(i*+1) with m+1 = 2


def test_bucket_equal_demands_share_one_bucket():
    k = 4
    gammas = {i: Fraction(1, k) for i in range(k)}
    choice = bucket_and_scale(gammas, dim=1)
    assert choice.demands == (0, 1, 2, 3)
    assert choice.bucket_mass == 1


def test_bucket_tie_breaks_toward_smaller_index():
    gammas = {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
    choice = bucket_and_scale(gammas, dim=1)
    # gamma 1/2 lands in bucket 1 and the two 1/4s in bucket 2, both with
    # mass 1/2: the tie resolves toward the smaller index
    assert choice.i_star == 1
    assert choice.demands == (0,)
    assert choice.bucket_mass == Fraction(1, 2)


def test_bucket_requires_normalized_gammas():
    with pytest.raises(ContractError):
        bucket_and_scale({0: Fraction(1, 3)}, dim=1)


def test_weighted_paths_clamp_scaled_flow():
    # state 5 has a path of flow 1/16 and one of flow 0; state 2 one of
    # flow 1; state 7 and the down side are not asked for
    paths = {5: [(5, 0), (5, 1, 0)], 2: [(2, 0)], 7: [(7, 0)]}
    flow = {
        ("up", 5, 0): Fraction(1, 16),
        ("up", 5, 1): Fraction(0),
        ("up", 2, 0): Fraction(1),
        ("up", 7, 0): Fraction(1),
        ("down", 2, 0): Fraction(1),
    }
    values = LpValues(y={}, flow=flow, objective=Fraction(0))
    weighted = _weighted_paths(values, paths, {5, 2}, "up", Fraction(8))
    assert weighted == [((2, 0), Fraction(1)), ((5, 0), Fraction(1, 2))]


def tri_rounding_inputs(tri_instance):
    """The LP, its values, the pruned sets and the bucket that rounding
    takes on `tri_instance` at root 1."""
    cover = tri_cover(tri_instance)
    values = solve_lp(cover)
    masses = label_masses(cover.bundle, values, 0)
    pruned = {0: prune(list(masses), masses, cover.bundle.pg.budget_units(0), tri_instance.dim)}
    bucket = bucket_and_scale({0: Fraction(1)}, tri_instance.dim)
    return cover, values, pruned, bucket


def test_gst_round_integral_solution_returns_path(tri_instance):
    cover, values, pruned, bucket = tri_rounding_inputs(tri_instance)
    rounded = gst_round(cover, values, pruned, bucket, random.Random(5))
    assert rounded.connected == (0,)
    tree = assemble_junction_tree(cover.bundle, rounded)
    assert tree.edges == frozenset({0, 1})
    assert tree.density == 2
    assert is_feasible(tree.resolved[0], tri_instance.demands[0], tri_instance)


def test_gst_round_monte_carlo_connects_bucket():
    # every one of 200 seeded runs connects all of D_{i*} in its one pass
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 1, (1, 0)),
            (1, 2, 1, (1, 0)),
            (1, 3, 1, (1, 0)),
            (3, 1, 1, (1, 0)),
        ],
        demands=[(0, 2, (2, 1)), (0, 3, (2, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    bundle = label_cover(inst, 1)
    cover = build_lp(bundle)
    values = solve_lp(cover)
    gammas = lp_masses(values)
    pruned = {}
    for di in bundle.relations:
        masses = label_masses(bundle, values, di)
        if sum(masses.values()) > 0:
            pruned[di] = prune(list(masses), masses, bundle.pg.budget_units(di), inst.dim)
    bucket = bucket_and_scale(gammas, inst.dim)
    for seed in range(200):
        rounded = gst_round(cover, values, pruned, bucket, random.Random(seed))
        assert rounded.connected == bucket.demands
        assert rounded.rounds_used == 1
        assert set(rounded.up_chains) == set(rounded.down_chains) == set(bucket.demands)


def test_gst_round_without_positive_flow_is_an_invariant_violation(tri_instance):
    # the terminal rows make this unreachable from a solved LP, so zero the
    # up-side flows by hand
    cover, values, pruned, bucket = tri_rounding_inputs(tri_instance)
    for key in values.flow:
        if key[0] == "up":
            values.flow[key] = Fraction(0)
    with pytest.raises(InternalInvariantError):
        gst_round(cover, values, pruned, bucket, random.Random(0))


def test_assemble_two_demands_sharing_edges_halves_density():
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 2, (1, 0)),
            (1, 2, 2, (1, 0)),
            (2, 1, 0, (1, 0)),
            (1, 3, 0, (1, 0)),
        ],
        demands=[(0, 2, (2, 1)), (0, 2, (4, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    bundle = label_cover(inst, 1)
    cover = build_lp(bundle)
    values = solve_lp(cover)
    gammas = lp_masses(values)
    pruned = {}
    for di in bundle.relations:
        masses = label_masses(bundle, values, di)
        if sum(masses.values()) > 0:
            pruned[di] = prune(list(masses), masses, bundle.pg.budget_units(di), inst.dim)
    bucket = bucket_and_scale(gammas, inst.dim)
    rounded = gst_round(cover, values, pruned, bucket, random.Random(0))
    tree = assemble_junction_tree(cover.bundle, rounded)
    if len(tree.resolved) == 2:
        assert tree.density == tree.cost / 2


def test_fallback_tree_valid(tri_instance):
    cover = tri_cover(tri_instance)
    values = solve_lp(cover)
    tree = fallback_tree(cover.bundle, lp_masses(values))
    assert tree.resolved
    assert tree.density >= 2  # cannot beat the optimum


def test_assemble_density_at_least_oracle_minimum(tri_instance):
    cover = tri_cover(tri_instance)
    values = solve_lp(cover)
    tree = fallback_tree(cover.bundle, lp_masses(values))
    _r, density, _e, _m = brute_force_min_density_junction(tri_instance)
    assert tree.density >= density


def test_tree_order_prefers_fewer_edges_at_equal_density():
    # by the sorted edge list alone, [1, 2, 3] would come before [1, 4]
    walk = {0: Walk((1, 4))}
    more = JunctionTree(0, frozenset({1, 2, 3}), walk, Fraction(2), Fraction(2))
    fewer = JunctionTree(0, frozenset({1, 4}), walk, Fraction(2), Fraction(2))
    assert tree_order(fewer) < tree_order(more)
    assert min([more, fewer], key=tree_order) is fewer


def two_walk_instance():
    """From root 0 the demand reaches 2 over edges 0, 1 (length 2) or over
    edge 2 (length 3), both at cost 1; the sorted edge list alone would
    take [0, 1]."""
    return make_instance(
        n=3,
        edges=[(0, 1, 0, (1, 0)), (1, 2, 1, (1, 0)), (0, 2, 1, (3, 0))],
        demands=[(0, 2, (3, 1))],
        tau=1,
        packing=1,
        covering=0,
    )


def test_single_pair_tree_takes_the_walk_with_fewer_edges_at_equal_cost():
    inst = two_walk_instance()
    bundle = label_cover(inst, 0)
    assert len(bundle.relations[0]) == 2
    tree = union_pair_tree(bundle, [0])
    assert tree.edges == frozenset({2})
    assert tree.density == 1


def test_oracle_breaks_density_ties_like_tree_order():
    inst = two_walk_instance()
    root, density, edges, _members = brute_force_min_density_junction(inst)
    tree = min_density_junction_tree(product_graph_for(inst))
    assert (root, density, edges) == (0, 1, {2})
    assert (tree.root, tree.density, set(tree.edges)) == (root, density, edges)
