from fractions import Fraction

from pcspan.config import SolverConfig
from pcspan.generate import gen_pcs
from pcspan.greedy import solve_pcs
from pcspan.model import is_feasible
from pcspan.oracle import brute_force_opt
from pcspan.rcsp import feasible_witness

from conftest import density_lemma_check, make_instance


def test_single_demand_single_iteration(tri_instance):
    report = solve_pcs(tri_instance, "integer")
    assert len(report.iterations) == 1
    assert report.cost == 2
    assert report.verified


def test_tri_instance_matches_brute_force(tri_instance):
    report = solve_pcs(tri_instance, "integer")
    opt_cost, _ = brute_force_opt(tri_instance)
    assert report.cost == opt_cost == 2
    assert report.edges == (0, 1)


def test_two_disjoint_demands_cost_bound():
    inst = make_instance(
        n=4,
        edges=[(0, 1, 2, (1, 0)), (2, 3, 3, (1, 0))],
        demands=[(0, 1, (1, 1)), (2, 3, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    report = solve_pcs(inst, "integer")
    per_demand_minima = Fraction(0)
    for d in inst.demands:
        w = feasible_witness(inst, d)
        per_demand_minima += inst.total_cost(w.edges)
    assert report.cost <= per_demand_minima
    assert report.verified


def test_residual_strictly_decreases_and_no_double_count():
    for seed in (3, 9):
        inst = gen_pcs(n=5, k=3, m=1, tau=1, regime="integer", seed=seed)
        report = solve_pcs(inst, "integer")
        covered = []
        for it in report.iterations:
            assert it.resolved  # every round makes progress
            covered.extend(it.resolved)
        assert sorted(covered) == list(range(len(inst.demands)))
        assert len(set(covered)) == len(covered)
        # cost counts distinct edges once
        assert report.cost == inst.total_cost(report.edges)


def test_marginal_costs_charge_each_edge_once():
    # later rounds see the edges already selected at zero cost, so the
    # rounds' marginal costs add up to the cost of the union
    for seed in (1, 2, 6):
        inst = gen_pcs(n=5, k=3, m=1, tau=1, regime="integer", seed=seed)
        report = solve_pcs(inst, "integer")
        assert len(report.iterations) > 1
        assert sum(it.marginal_cost for it in report.iterations) == report.cost


def test_output_verifies_every_demand():
    for seed in (1, 5):
        inst = gen_pcs(n=5, k=2, m=2, tau=1, regime="integer", seed=seed)
        report = solve_pcs(inst, "integer")
        assert report.verified
        for di, d in enumerate(inst.demands):
            assert is_feasible(report.witnesses[di], d, inst)
            assert set(report.witnesses[di].edges) <= set(report.edges)


def test_density_lemma_k1(tri_instance):
    out = density_lemma_check(tri_instance)
    assert out["holds"]  # sqrt(1) = 1: min density <= OPT trivially
    assert out["min_density"] <= out["opt"]


def test_density_lemma_hub_k4():
    # four demands through a shared hub: density <= OPT / 2
    k = 4
    edges, demands = [], []
    for i in range(k):
        s, t = 1 + 2 * i, 2 + 2 * i
        edges.append((s, 0, 1, (1, 0)))
        edges.append((0, t, 1, (1, 0)))
        demands.append((s, t, (2, 1)))
    inst = make_instance(n=1 + 2 * k, edges=edges, demands=demands, tau=1, packing=1, covering=0)
    out = density_lemma_check(inst)
    assert out["holds"]
    assert out["min_density"] * 2 <= out["opt"]


def test_density_lemma_random_sweep():
    for seed in range(10):
        inst = gen_pcs(n=5, k=2, m=1, tau=1, regime="integer", seed=seed + 31)
        out = density_lemma_check(inst, cap=7)
        assert out["holds"], (seed, out)


def test_theta_mode_end_to_end():
    inst = gen_pcs(n=4, k=2, m=1, tau=1, regime="rational-negative", seed=77)
    config = SolverConfig(theta=Fraction(1, 10))
    report = solve_pcs(inst, "theta", config)
    assert report.verified
    assert report.theta == Fraction(1, 10)
    from pcspan.model import is_theta_feasible

    for di, d in enumerate(inst.demands):
        assert is_theta_feasible(report.witnesses[di], d, inst, config.theta)
