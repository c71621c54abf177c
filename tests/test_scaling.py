from fractions import Fraction

import pytest

from pcspan.errors import ContractError
from pcspan.generate import gen_pcs
from pcspan.model import (
    ResourceVector,
    Walk,
    condition_numbers,
    is_theta_feasible,
    walk_resource,
)
from pcspan.oracle import enumerate_feasible_walks
from pcspan.rcsp import feasible_witness
from pcspan.scaling import ScaledInstance, compute_delta, scale_instance

from conftest import make_instance


def scaled_walk_resource(walk: Walk, scaled: ScaledInstance) -> ResourceVector:
    total_units = sum(scaled.units[eid] for eid in walk.edges)
    rest = walk_resource(walk, scaled.base).entries[1:]
    return ResourceVector((total_units * scaled.delta,) + tuple(rest))


def check_scaling_claims(instance, scaled: ScaledInstance, walks) -> list:
    """Exact per-walk checks: RES <= ScaledRes componentwise, and the total
    rounding slack stays below theta * Bdgt_min.  Returns violations."""
    numbers = condition_numbers(instance)
    violations = []
    for walk in walks:
        if len(walk) >= scaled.hop_bound_value:
            raise ContractError("scaling claims only cover walks shorter than the hop bound")
        res = walk_resource(walk, instance)
        sres = scaled_walk_resource(walk, scaled)
        if not res.dominated_by(sres):
            violations.append((walk, "scaled consumption fails to dominate"))
        if sres[0] > res[0] + scaled.theta * numbers.bdgt_min:
            violations.append((walk, "rounding slack exceeds theta * Bdgt_min"))
    return violations


def chain_instance(budget0, lengths, tau=0):
    edges = [(i, i + 1, 1, (l, 0)) for i, l in enumerate(lengths)]
    return make_instance(
        n=len(lengths) + 1,
        edges=edges,
        demands=[(0, len(lengths), (budget0, 0))],
        tau=tau,
        packing=1,
        covering=0,
    )


def test_compute_delta_formula():
    # theta=1, Bdgt_min=6, Hop-bound=3 (two-edge witness) -> Delta=2
    inst = chain_instance(6, [Fraction(3), Fraction(3)])
    assert compute_delta(inst, 1) == 2


def test_compute_delta_linear_in_theta():
    inst = chain_instance(6, [Fraction(3), Fraction(3)])
    assert compute_delta(inst, Fraction(1, 2)) * 2 == compute_delta(inst, 1)


def test_scaling_rounds_up_to_delta_multiples():
    # Delta = 2 cases: 3 -> 4, -3 -> -2, 1 -> 2
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 1, (3, 0)),
            (1, 2, 1, (-3, 0)),
            (2, 3, 1, (1, 0)),
        ],
        demands=[(0, 3, (4, 0))],
        tau=0,
        packing=1,
        covering=0,
    )
    # hop bound: the only witness is the 3-edge chain -> Hop-bound = 4
    delta = compute_delta(inst, 2)  # 2 * 4 / 4 = 2
    assert delta == 2
    scaled = scale_instance(inst, 2)
    assert [scaled.scaled_res(e)[0] for e in range(3)] == [4, -2, 2]


def test_scaled_values_are_delta_multiples():
    for seed in range(6):
        inst = gen_pcs(n=5, k=2, m=1, tau=1, regime="rational", seed=seed)
        scaled = scale_instance(inst, Fraction(1, 2))
        for eid, e in enumerate(inst.edges):
            s0 = scaled.scaled_res(eid)[0]
            d = scaled.units[eid]
            assert s0 == d * scaled.delta
            assert (d - 1) * scaled.delta < e.res[0] <= d * scaled.delta


def test_check_scaling_claims_single_edge_residue():
    inst = chain_instance(10, [Fraction(7, 3), Fraction(1, 2)])
    scaled = scale_instance(inst, Fraction(1, 2))
    walk = Walk((0,))
    assert check_scaling_claims(inst, scaled, [walk]) == []
    res = walk_resource(walk, inst)
    sres = scaled_walk_resource(walk, scaled)
    assert sres[0] - res[0] < scaled.delta


def test_check_scaling_claims_rejects_long_walks():
    inst = chain_instance(10, [Fraction(1), Fraction(1)])
    scaled = scale_instance(inst, Fraction(1, 2))
    too_long = Walk(tuple([0, 1] * scaled.hop_bound_value))
    with pytest.raises(ContractError):
        check_scaling_claims(inst, scaled, [too_long])


def test_check_scaling_claims_random_instances():
    for seed in range(10):
        inst = gen_pcs(n=5, k=2, m=1, tau=1, regime="rational-negative", seed=seed)
        scaled = scale_instance(inst, Fraction(1, 2))
        walks = []
        for d in inst.demands:
            cat = enumerate_feasible_walks(inst, d, cap=min(5, scaled.hop_bound_value - 1))
            walks.extend(cat.walks[:4])
        assert check_scaling_claims(inst, scaled, walks) == []


def test_scaled_unit_sums_within_layer_bounds():
    from pcspan.product import layer_bounds

    for seed in range(6):
        inst = gen_pcs(n=4, k=2, m=1, tau=1, regime="rational-negative", seed=seed + 90)
        scaled = scale_instance(inst, Fraction(1, 2))
        bounds = layer_bounds(scaled)
        cap = min(5, scaled.hop_bound_value - 1)
        for d in inst.demands:
            cat = enumerate_feasible_walks(inst, d, cap=max(cap, 1))
            for walk in cat.walks:
                units = sum(scaled.units[eid] for eid in walk.edges)
                assert bounds.lower[0] <= units <= bounds.upper[0]


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1, 10)])
def test_round_trip_soundness(theta):
    # round-trip soundness both directions, oracle-checked on small instances
    for seed in range(8):
        inst = gen_pcs(n=4, k=2, m=1, tau=1, regime="rational-negative", seed=seed + 50)
        scaled = scale_instance(inst, theta)
        scaled_inst = scaled.as_instance()
        cap = scaled.hop_bound_value - 1
        for di, d in enumerate(inst.demands):
            cat = enumerate_feasible_walks(inst, d, cap=max(cap, 1))
            for walk in cat.walks[:6]:
                if len(walk.edges) >= scaled.hop_bound_value:
                    continue
                # base-feasible -> theta-feasible in the scaled instance
                assert is_theta_feasible(walk, scaled_inst.demands[di], scaled_inst, theta)
        # scaled theta-feasible -> base theta-feasible
        for di, d in enumerate(scaled_inst.demands):
            witness = feasible_witness(scaled_inst, d, theta=theta)
            if witness is not None:
                assert is_theta_feasible(witness, inst.demands[di], inst, theta)
