import random
from fractions import Fraction

import pytest

from pcspan.density_lp import build_lp
from pcspan.errors import InternalInvariantError
from pcspan.generate import gen_pcs
from pcspan.junction import build_label_cover
from pcspan.lpsolve import (
    LinearProgram,
    LpSolution,
    residuals,
    solve_exact,
    solve_lp,
)


def reference_simplex(lp: LinearProgram) -> LpSolution:
    """Dense two-phase primal simplex over Fractions with Bland's rule: the
    independent reference the basis-certified solver is checked against."""
    n = lp.num_vars
    rows = []
    rhs = []
    slack_count = len(lp.ub_rows)
    total = n + slack_count
    for i, (row, b) in enumerate(lp.ub_rows):
        dense = [Fraction(0)] * total
        for j, v in row.items():
            dense[j] = Fraction(v)
        dense[n + i] = Fraction(1)
        rows.append(dense)
        rhs.append(Fraction(b))
    for row, b in lp.eq_rows:
        dense = [Fraction(0)] * total
        for j, v in row.items():
            dense[j] = Fraction(v)
        rows.append(dense)
        rhs.append(Fraction(b))
    # normalize to nonnegative rhs
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    m = len(rows)
    # artificial variables for every row (phase 1)
    width = total + m
    tableau = []
    for i in range(m):
        tableau.append(rows[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [rhs[i]])
    basis = [total + i for i in range(m)]

    def pivot(tab, basis, row_i, col_j):
        piv = tab[row_i][col_j]
        tab[row_i] = [v / piv for v in tab[row_i]]
        for r in range(len(tab)):
            if r != row_i and tab[r][col_j] != 0:
                factor = tab[r][col_j]
                tab[r] = [a - factor * b for a, b in zip(tab[r], tab[row_i])]
        basis[row_i] = col_j

    def run_simplex(tab, basis, cost, allowed):
        while True:
            # reduced costs: c_j - z_j where z_j = sum_i cb_i * a_ij
            z = [Fraction(0)] * len(cost)
            for r, bj in enumerate(basis):
                cb = cost[bj]
                if cb == 0:
                    continue
                rowr = tab[r]
                for j in range(len(cost)):
                    if rowr[j] != 0:
                        z[j] += cb * rowr[j]
            enter = None
            for j in range(len(cost)):
                if j not in allowed:
                    continue
                if cost[j] - z[j] < 0:
                    enter = j  # Bland: smallest index
                    break
            if enter is None:
                return True
            leave = None
            best = None
            for r in range(len(tab)):
                a = tab[r][enter]
                if a > 0:
                    ratio = tab[r][-1] / a
                    key = (ratio, basis[r])
                    if best is None or key < best:
                        best = key
                        leave = r
            if leave is None:
                raise InternalInvariantError("LP is unbounded")
            pivot(tab, basis, leave, enter)

    phase1_cost = [Fraction(0)] * total + [Fraction(1)] * m
    allowed = set(range(width))
    run_simplex(tableau, basis, phase1_cost, allowed)
    value1 = sum(
        (phase1_cost[basis[r]] * tableau[r][-1] for r in range(m)), Fraction(0)
    )
    if value1 != 0:
        raise InternalInvariantError("LP infeasible (phase-1 optimum nonzero)")
    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= total:
            for j in range(total):
                if tableau[r][j] != 0:
                    pivot(tableau, basis, r, j)
                    break
    phase2_cost = [Fraction(0)] * width
    for j, v in lp.objective.items():
        phase2_cost[j] = Fraction(v)
    allowed = set(range(total))
    run_simplex(tableau, basis, phase2_cost, allowed)
    values = [Fraction(0)] * lp.num_vars
    for r, bj in enumerate(basis):
        if bj < lp.num_vars:
            values[bj] = tableau[r][-1]
    assert residuals(lp, values) == (0, 0)
    return LpSolution(values=values, objective=sum(
        (Fraction(c) * values[j] for j, c in lp.objective.items()), Fraction(0)
    ))


def assert_exact_optimum(lp: LinearProgram) -> LpSolution:
    sol = solve_lp(lp)
    assert all(isinstance(v, Fraction) for v in sol.values)
    assert residuals(lp, sol.values) == (0, 0)
    assert sol.objective == reference_simplex(lp).objective
    return sol


def test_exact_forced_assignment():
    lp = LinearProgram(num_vars=2, objective={0: 1, 1: 3})
    lp.add_eq({0: 1, 1: 1}, 1)
    sol = assert_exact_optimum(lp)
    assert sol.values == [Fraction(1), Fraction(0)]
    assert sol.objective == 1


def test_integer_coefficients_give_exact_fractions():
    lp = LinearProgram(num_vars=1, objective={0: 1})
    lp.add_eq({0: 3}, 1)
    sol = assert_exact_optimum(lp)
    assert sol.values == [Fraction(1, 3)]
    assert type(sol.values[0]) is Fraction


def test_exact_detects_infeasibility():
    lp = LinearProgram(num_vars=1, objective={0: 1})
    lp.add_eq({0: 1}, 1)
    lp.add_ub({0: 1}, Fraction(1, 2))
    with pytest.raises(InternalInvariantError):
        solve_lp(lp)
    with pytest.raises(InternalInvariantError):
        reference_simplex(lp)


def test_exact_unbounded():
    lp = LinearProgram(num_vars=2, objective={0: -1})
    lp.add_ub({1: 1}, 1)
    with pytest.raises(InternalInvariantError):
        solve_lp(lp)
    with pytest.raises(InternalInvariantError):
        reference_simplex(lp)


def test_duplicate_zero_cost_columns_do_not_change_objective():
    lp1 = LinearProgram(num_vars=2, objective={0: 2})
    lp1.add_eq({0: 1, 1: 1}, 1)
    lp2 = LinearProgram(num_vars=3, objective={0: 2})
    lp2.add_eq({0: 1, 1: 1, 2: 1}, 1)
    assert assert_exact_optimum(lp1).objective == assert_exact_optimum(lp2).objective == 0


def _random_lp(rng: random.Random) -> LinearProgram:
    nv = rng.randint(2, 7)
    lp = LinearProgram(
        num_vars=nv, objective={j: Fraction(rng.randint(0, 6)) for j in range(nv)}
    )
    lp.add_eq({j: 1 for j in range(nv)}, 1)
    for _ in range(rng.randint(1, 4)):
        support = rng.sample(range(nv), k=min(nv, rng.randint(1, 3)))
        row = {j: Fraction(rng.randint(1, 3)) for j in support}
        # rhs at least the max coefficient keeps the simplex point feasible
        lp.add_ub(row, Fraction(rng.randint(3, 7)))
    return lp


def test_dual_solver_cross_check_random():
    rng = random.Random(2024)
    for _ in range(60):
        assert_exact_optimum(_random_lp(rng))


def test_density_lp_above_48_rows_matches_reference():
    inst = gen_pcs(n=6, k=3, m=1, tau=1, regime="integer", seed=8, budget_slack=1)
    lp = build_lp(build_label_cover(inst, 0)).lp
    assert len(lp.eq_rows) + len(lp.ub_rows) > 48
    assert_exact_optimum(lp)


def test_exact_rejects_a_basis_it_cannot_certify():
    lp = LinearProgram(num_vars=2, objective={0: 1, 1: Fraction(3, 2)})
    lp.add_eq({0: 1, 1: 1}, 1)
    with pytest.raises(InternalInvariantError, match="reduced cost"):
        solve_exact(lp, ([1], [0]))
    lp.add_ub({0: 1}, Fraction(1, 2))
    with pytest.raises(InternalInvariantError, match="primal feasible"):
        solve_exact(lp, ([0], [0]))
    lp = LinearProgram(num_vars=2, objective={0: -1})
    lp.add_eq({0: 1, 1: 1}, 1)
    lp.add_ub({1: 1}, Fraction(1, 2))
    with pytest.raises(InternalInvariantError, match="positive dual"):
        solve_exact(lp, ([0, 1], [0, 1]))
    with pytest.raises(InternalInvariantError, match="not square"):
        solve_exact(lp, ([0], [0, 1]))


def test_residuals_exact():
    lp = LinearProgram(num_vars=2, objective={})
    lp.add_eq({0: 1, 1: 1}, 1)
    lp.add_ub({0: 2}, 1)
    eq, ub = residuals(lp, [Fraction(1, 2), Fraction(1, 2)])
    assert eq == 0 and ub == 0
    eq, ub = residuals(lp, [Fraction(1), Fraction(0)])
    assert eq == 0 and ub == 1


def to_lp_text(lp: LinearProgram, names) -> str:
    """CPLEX-LP-format export for differential testing with external solvers."""

    def term(j, v):
        v = Fraction(v)
        sign = "+" if v >= 0 else "-"
        mag = abs(v)
        coef = f"{mag.numerator}" if mag.denominator == 1 else f"{float(mag):.12g}"
        return f"{sign} {coef} {names[j]}"

    def row_text(row):
        return " ".join(term(j, v) for j, v in sorted(row.items()))

    lines = ["Minimize", " obj: " + row_text(lp.objective), "Subject To"]
    lines += [f" e{i}: {row_text(row)} = {float(b):.12g}" for i, (row, b) in enumerate(lp.eq_rows)]
    lines += [f" u{i}: {row_text(row)} <= {float(b):.12g}" for i, (row, b) in enumerate(lp.ub_rows)]
    lines.append("Bounds")
    lines += [f" 0 <= {names[j]}" for j in range(lp.num_vars)]
    lines.append("End")
    return "\n".join(lines) + "\n"


def test_lp_text_export():
    lp = LinearProgram(num_vars=2, objective={0: 1, 1: Fraction(1, 2)})
    lp.add_eq({0: 1, 1: 1}, 1)
    lp.add_ub({1: 1}, Fraction(1, 3))
    text = to_lp_text(lp, ["a", "b"])
    assert "Minimize" in text and "Subject To" in text and "End" in text
    assert "a" in text and "b" in text
