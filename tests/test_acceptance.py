"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -s` (or scripts/run_acceptance.py) to see
the per-criterion lines.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

import pytest

from pcspan.density_lp import prune
from pcspan.generate import gen_hopset, gen_pcs, gen_rcs
from pcspan.greedy import solve_pcs
from pcspan.model import Demand, ResourceVector, Walk, is_feasible, theta_relaxed_bound
from pcspan.oracle import brute_force_opt, enumerate_feasible_walks
from pcspan.product import build_product_graph, relation_holds
from pcspan.rcsp import feasible_witness
from pcspan.reductions import (
    is_routing_feasible,
    rcs_to_pcs,
    solve_rcs,
    solve_hopset,
    verify_hopset,
    weighted_transitive_closure,
)
from pcspan.scaling import round_lengths_to_delta, scale_instance
from pcspan.cli import main as cli_main

from conftest import (
    density_lemma_check,
    equivalence_check,
    make_instance,
    routing_feasible_exists,
    scaled_as_instance,
    scaled_res,
)

# criterion 6 medians recorded on the frozen suite before the main build;
# any median above BASELINE_MEDIAN * 1.1 is a regression
BASELINE_MEDIAN = Fraction(1)


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_scaling_example():
    # 5 vertices a,b,c,d,r = 0..4; the eight lengths in display order
    lengths = [2, 3, 1, 2, 1, 2, 4, -3]
    arcs = [(0, 1), (1, 4), (2, 0), (2, 3), (3, 1), (3, 4), (4, 0), (4, 2)]
    inst = make_instance(
        n=5,
        edges=[(u, v, 1, (l, 0)) for (u, v), l in zip(arcs, lengths)],
        demands=[(2, 1, (6, 0))],  # c ~> b in two hops: Hop-bound 3
        tau=0,
        packing=1,
        covering=0,
    )
    scaled = scale_instance(inst, 1)
    assert scaled.delta == 2
    started = time.perf_counter()
    units = round_lengths_to_delta(lengths, Fraction(2))
    scaled_values = [u * 2 for u in units]
    elapsed = time.perf_counter() - started
    ok = scaled_values == [2, 4, 2, 2, 2, 2, 4, -2]
    ok = ok and [scaled_res(scaled, e)[0] for e in range(8)] == scaled_values
    ok = ok and elapsed < 0.001
    _report(1, ok, f"eight lengths scale exactly at delta=2 in {elapsed*1e6:.0f} us")


def test_criterion_2_walk_semantics(double_loop_rcs, double_loop_pcs):
    started = time.perf_counter()
    catalog = enumerate_feasible_walks(double_loop_pcs, double_loop_pcs.demands[0], cap=12)
    revisiting = False
    for w in catalog.walks:
        verts = [double_loop_pcs.edges[w.edges[0]].tail] + [
            double_loop_pcs.edges[e].head for e in w.edges
        ]
        if verts.count(2) >= 3:  # visited, then revisited at least twice
            revisiting = True
    # exhaustive simple a->e paths, none routing-feasible
    adj = {}
    for eid, e in enumerate(double_loop_rcs.edges):
        adj.setdefault(e.tail, []).append((eid, e.head))
    simple_feasible = []

    def dfs(v, visited, edges):
        if v == 4:
            if is_routing_feasible(Walk(tuple(edges)), double_loop_rcs.demands[0], double_loop_rcs):
                simple_feasible.append(tuple(edges))
            return
        for eid, h in adj.get(v, ()):
            if h not in visited:
                dfs(h, visited | {h}, edges + [eid])

    dfs(0, {0}, [])
    elapsed = time.perf_counter() - started
    ok = bool(catalog.walks) and revisiting and not simple_feasible and elapsed < 1.0
    _report(
        2,
        ok,
        f"{len(catalog.walks)} feasible walks, c revisited, no simple feasible path "
        f"({elapsed:.2f}s)",
    )


def test_criterion_3_pruning_lemma_randomized():
    import random

    started = time.perf_counter()
    rng = random.Random(20240901)
    cases = 0
    for _case in range(220):
        m = rng.choice([0, 1, 2])
        dim = m + 1
        budget = tuple(rng.randint(1, 9) for _ in range(dim))
        pairs = set()
        for _ in range(rng.randint(1, 16)):
            i_lab = tuple(rng.randint(0, b) for b in budget)
            j_lab = tuple(rng.randint(0, budget[c] - i_lab[c]) for c in range(dim))
            pairs.add((i_lab, j_lab))
        pairs = sorted(pairs)
        weights = [Fraction(rng.randint(1, 9)) for _ in pairs]
        total = sum(weights)
        y = {p: w / total for p, w in zip(pairs, weights)}
        ps = prune(pairs, y, budget, dim)
        for i_lab in ps.src_alive:
            for j_lab in ps.snk_alive:
                assert relation_holds(budget, i_lab, j_lab)
        bound = ps.gamma / 2**dim
        # survivor z-mass with the minimal dominating z (full-relation sums)
        assert ps.src_mass >= bound
        assert ps.snk_mass >= bound
        cases += 1
    elapsed = time.perf_counter() - started
    ok = cases >= 200 and elapsed < 30
    _report(3, ok, f"{cases} randomized LP solutions pruned cleanly ({elapsed:.1f}s)")


def test_criterion_4_product_graph_equivalence():
    started = time.perf_counter()
    mismatches = 0
    instances = 0
    for seed in range(30):
        n = 4 + seed % 4  # up to 7
        k = 1 + seed % 3
        m = 1 + seed % 2
        tau = 1 + seed % 2
        inst = gen_pcs(
            n=n, k=k, m=m, tau=tau, regime="integer", seed=1000 + seed, budget_slack=1
        )
        instances += 1
        for root in range(inst.n):
            mismatches += equivalence_check(inst, root)["mismatches"]
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and instances == 30 and elapsed < 120
    _report(4, ok, f"30 instances, all roots, {mismatches} mismatches ({elapsed:.1f}s)")


def test_criterion_5_density_lemma_witness():
    started = time.perf_counter()
    violations = 0
    for seed in range(30):
        n = 4 + seed % 2
        k = 1 + seed % 3
        inst = gen_pcs(
            n=n, k=k, m=1, tau=1, regime="integer", seed=2000 + seed, budget_slack=1
        )
        out = density_lemma_check(inst, cap=7)
        if not out["holds"]:
            violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 300
    _report(5, ok, f"min density <= OPT/sqrt(k) on 30 instances ({elapsed:.1f}s)")


def test_criterion_6_end_to_end_quality():
    started = time.perf_counter()
    ratios = []
    worst_ok = True
    for seed in range(15):
        n = 4 + seed % 3
        k = 1 + seed % 3
        m = 1 + seed % 2
        inst = gen_pcs(
            n=n, k=k, m=m, tau=1, regime="integer", seed=seed, budget_slack=1
        )
        report = solve_pcs(inst, "integer")
        assert report.verified  # 100% of demands verified
        opt, _ = brute_force_opt(inst, cap=8)
        ratio = report.cost / opt if opt > 0 else Fraction(1)
        ratios.append(ratio)
        pg_size = len(build_product_graph(inst).vertex_keys)
        slack = 4 * math.sqrt(k) * 2 ** (m + 1) * math.log2(pg_size) ** 3
        if float(ratio) > slack:
            worst_ok = False
    ratios.sort()
    mid = len(ratios) // 2
    median = ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2
    elapsed = time.perf_counter() - started
    ok = (
        worst_ok
        and median <= 2
        and median <= BASELINE_MEDIAN * Fraction(11, 10)
        and elapsed < 600
    )
    _report(
        6,
        ok,
        f"all verified, median cost/OPT = {float(median):.3f} "
        f"(baseline {float(BASELINE_MEDIAN):.2f}), worst within slack ({elapsed:.1f}s)",
    )


def test_criterion_7_theta_regime_soundness():
    started = time.perf_counter()
    violations = 0
    checked = 0
    for seed in range(15):
        inst = gen_pcs(
            n=4 + seed % 2, k=2, m=1, tau=1, regime="rational-negative",
            seed=4000 + seed, budget_slack=1,
        )
        for theta in (Fraction(1, 2), Fraction(1, 10)):
            scaled = scale_instance(inst, theta)
            scaled_inst = scaled_as_instance(scaled)
            cap = min(6, scaled.hop_bound_value - 1)
            for di, d in enumerate(inst.demands):
                # base-feasible (short) walks stay theta-feasible when scaled
                cat = enumerate_feasible_walks(inst, d, cap=max(cap, 1))
                for walk in cat.walks:
                    checked += 1
                    if not is_feasible(walk, scaled_inst.demands[di], scaled_inst, theta):
                        violations += 1
                # scaled theta-feasible walks stay theta-feasible in the base
                relaxed = Demand(
                    d.source,
                    d.target,
                    ResourceVector(
                        (theta_relaxed_bound(d.budget[0], theta),)
                        + d.budget.entries[1:]
                    ),
                )
                scat = enumerate_feasible_walks(scaled_inst, relaxed, cap=max(cap, 1))
                for walk in scat.walks:
                    checked += 1
                    if not is_feasible(walk, d, inst, theta):
                        violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and checked > 0 and elapsed < 120
    _report(
        7,
        ok,
        f"{checked} walks across 30 instance/theta combinations, "
        f"{violations} violations ({elapsed:.1f}s)",
    )


def _exhaustive_min_hopset(hs):
    closure = weighted_transitive_closure(hs.n, hs.edges)
    extras = [(e.tail, e.head, e.weight) for e in closure.edges if e.cost == 1]
    for size in range(len(extras) + 1):
        for subset in combinations(extras, size):
            report = verify_hopset(hs, subset)
            if all(entry["feasible"] for entry in report.values()):
                return size
    return len(extras)


def test_criterion_8_hopset_reduction():
    started = time.perf_counter()
    ok = True
    details = []
    cases = [
        gen_hopset(n=4, k=3, beta=2, style="path", seed=1),
        gen_hopset(n=5, k=2, beta=2, style="path", seed=2),
        gen_hopset(n=5, k=2, beta=2, style="cycle", seed=3),
        gen_hopset(n=6, k=2, beta=3, style="cycle", seed=4),
        gen_hopset(n=6, k=2, beta=2, style="random", seed=5),
        gen_hopset(n=7, k=3, beta=3, style="random", seed=6),
    ]
    for hs in cases:
        out = solve_hopset(hs)
        if not all(entry["feasible"] for entry in out["verification"].values()):
            ok = False
            continue
        if hs.n <= 5:  # exhaustively searchable
            best = _exhaustive_min_hopset(hs)
            k = len(hs.demands)
            m = 1
            inst, _ = __import__("pcspan.reductions", fromlist=["hopset_to_pcs"]).hopset_to_pcs(hs)
            pg_size = len(build_product_graph(inst).vertex_keys)
            slack = 4 * math.sqrt(k) * 2 ** (m + 1) * math.log2(pg_size) ** 3
            if best == 0:
                if out["hopset_size"] != 0:
                    ok = False
            elif out["hopset_size"] > slack * best:
                ok = False
            details.append(f"{out['hopset_size']}/{best}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300
    _report(8, ok, f"hopsets verified; size vs exact minimum: {details} ({elapsed:.1f}s)")


def test_criterion_9_rcs_reduction():
    started = time.perf_counter()
    mismatches = 0
    solve_failures = 0
    for seed in range(50):
        must = 1 + seed % 2
        avoid = 2 if (must == 1 and seed % 3 == 0) else 1
        rcs = gen_rcs(
            n=5, k=2, must_visit=must, avoid=avoid, seed=3000 + seed, max_group_size=3
        )
        assert rcs.m <= 3
        inst, _ = rcs_to_pcs(rcs)
        for di, d in enumerate(rcs.demands):
            routing = routing_feasible_exists(rcs, d)
            reduced = feasible_witness(inst, inst.demands[di]) is not None
            if routing != reduced:
                mismatches += 1
        report = solve_rcs(rcs)
        for di, d in enumerate(rcs.demands):
            if not is_routing_feasible(report.witnesses[di], d, rcs):
                solve_failures += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and solve_failures == 0 and elapsed < 300
    _report(
        9,
        ok,
        f"50 instances: {mismatches} equivalence mismatches, "
        f"{solve_failures} solve verification failures ({elapsed:.1f}s)",
    )


def test_criterion_10_determinism(tmp_path):
    inst_path = tmp_path / "det.json"
    assert (
        cli_main(
            ["--mode", "gen", "--kind", "pcs", "--n", "5", "--k", "2", "--m", "1",
             "--tau", "1", "--seed", "13", "--out", str(inst_path)]
        )
        == 0
    )
    out = []
    for run in (1, 2):
        rp = tmp_path / f"run{run}.json"
        code = cli_main(
            ["--mode", "pcs-int", str(inst_path), "--seed", "99", "--out", str(rp)]
        )
        assert code == 0
        out.append(rp.read_bytes())
    ok = out[0] == out[1]
    _report(10, ok, "identical master seeds give byte-identical reports")
