from fractions import Fraction

import pytest

import pcspan.greedy
from pcspan.config import SolverConfig
from pcspan.density_lp import build_lp
from pcspan.errors import InfeasibleDemandError
from pcspan.generate import gen_pcs
from pcspan.greedy import solve_pcs
from pcspan.junction import build_label_cover, greedy_round, product_graph_for
from pcspan.model import Edge, PcsInstance, is_feasible
from pcspan.oracle import brute_force_opt
from pcspan.product import build_product_graph
from pcspan.rcsp import feasible_witness

from conftest import density_lemma_check, make_instance


def test_single_demand_single_iteration(tri_instance):
    report = solve_pcs(tri_instance, "integer")
    assert len(report.iterations) == 1
    assert report.cost == 2
    assert report.verified


def test_an_infeasible_demand_is_rejected_before_any_round(monkeypatch):
    # demand (0,1) is feasible and demand (1,2) is not: edge 1 -> 2 is too long
    inst = make_instance(
        n=3,
        edges=[(0, 1, 1, (1, 0)), (1, 2, 1, (5, 0))],
        demands=[(0, 1, (1, 1)), (1, 2, (2, 1))],
        tau=1,
        packing=1,
        covering=0,
    )

    def no_round(*args, **kwargs):
        raise AssertionError("a greedy round ran")

    monkeypatch.setattr(pcspan.greedy, "min_density_junction_tree", no_round)
    with pytest.raises(InfeasibleDemandError) as exc:
        solve_pcs(inst, "integer")
    assert str(exc.value) == "demand (1,2) admits no feasible walk"


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


def _residual(instance: PcsInstance, free_edges, demand_indices) -> PcsInstance:
    """Round k as an instance of its own: the edges in `free_edges` repriced
    to zero and only the demands `demand_indices` left."""
    edges = tuple(
        Edge(e.tail, e.head, Fraction(0), e.res) if eid in free_edges else e
        for eid, e in enumerate(instance.edges)
    )
    return PcsInstance(
        n=instance.n,
        edges=edges,
        demands=tuple(instance.demands[i] for i in demand_indices),
        tau=instance.tau,
        packing=instance.packing,
        covering=instance.covering,
    )


def _lp_arrays(pg, rnd, root):
    bundle = build_label_cover(pg, rnd, root)
    if bundle is None:
        return None
    lp = build_lp(bundle).lp
    return lp.columns, lp.objective, lp.eq_rows, lp.ub_rows, lp.cost_scale


def _parallel_edges_bought_dear():
    # demand 0 needs the covering unit only edge 0 carries, so round 1 buys
    # it; demand 1 is covered on 2 -> 0 already, so from there edges 0 and 1
    # are parallel arcs, and round 2 must take edge 0 at its new price 0.
    # Edge 0 alone has a cost denominator, so the cost scale drops to 1.
    return make_instance(
        n=3,
        edges=[(0, 1, Fraction(5, 2), (1, -1)), (0, 1, 1, (1, 0)), (2, 0, 10, (1, -1))],
        demands=[(0, 1, (1, -1)), (2, 1, (2, -1))],
        tau=1,
        packing=0,
        covering=1,
    )


@pytest.mark.parametrize(
    "inst",
    [
        _parallel_edges_bought_dear(),
        gen_pcs(n=5, k=3, m=1, tau=1, regime="integer", seed=1),
        gen_pcs(n=5, k=3, m=1, tau=1, regime="integer", seed=6),
    ],
    ids=["parallel-bought-dear", "seed-1", "seed-6"],
)
def test_repriced_round_matches_a_fresh_build_of_its_residual(inst):
    report = solve_pcs(inst, "integer")
    assert len(report.iterations) > 1
    pg = product_graph_for(inst)
    free = set()
    remaining = list(range(len(inst.demands)))
    for it in report.iterations:
        rnd = greedy_round(pg, free, remaining)
        residual = _residual(inst, free, remaining)
        fresh = build_product_graph(residual)
        for root in range(inst.n):
            expected = _lp_arrays(fresh, greedy_round(fresh), root)
            assert _lp_arrays(pg, rnd, root) == expected, (it.root, root)
        free |= set(it.tree_edges)
        remaining = [di for di in remaining if di not in it.resolved]


def test_parallel_instance_buys_the_dearer_edge_first():
    report = solve_pcs(_parallel_edges_bought_dear(), "integer")
    assert [it.tree_edges for it in report.iterations] == [(0,), (0, 2)]
    assert [it.marginal_cost for it in report.iterations] == [Fraction(5, 2), 10]
    assert report.edges == (0, 2)
