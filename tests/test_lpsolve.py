import logging
import random
from fractions import Fraction

import pytest

from pcspan.density_lp import build_lp
from pcspan.errors import InternalInvariantError
from pcspan.generate import gen_pcs
from pcspan.junction import build_label_cover
from pcspan.lpsolve import (
    RECONSTRUCT_LIMIT,
    LinearProgram,
    LpSolution,
    _certify,
    solve_exact,
    solve_highs,
    solve_lp,
)


def _row_value(row: dict, values) -> Fraction:
    return sum((c * values[j] for j, c in row.items() if values[j]), Fraction(0))


def residuals(lp: LinearProgram, values) -> tuple:
    """(max |eq residual|, max positive ub violation), exact arithmetic."""
    eq = max((abs(_row_value(row, values) - rhs) for row, rhs in lp.eq_rows), default=0)
    ub = max((_row_value(row, values) - rhs for row, rhs in lp.ub_rows), default=0)
    return Fraction(eq), Fraction(max(ub, -min(values, default=0), 0))


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


def _fallbacks(caplog) -> list:
    return [r for r in caplog.records if "elimination" in r.getMessage()]


def test_highs_solution_is_certified_without_elimination(caplog):
    caplog.set_level(logging.DEBUG, logger="pcspan.lpsolve")
    inst = gen_pcs(n=6, k=3, m=1, tau=1, regime="integer", seed=8, budget_slack=1)
    lp = build_lp(build_label_cover(inst, 0)).lp
    basis, guess = solve_highs(lp)
    assert solve_exact(lp, basis, guess) == solve_exact(lp, basis)
    assert len(_fallbacks(caplog)) == 1  # only the call without a guess
    assert "no float solution" in _fallbacks(caplog)[0].getMessage()


def test_denominator_above_the_limit_falls_back_to_elimination(caplog):
    caplog.set_level(logging.DEBUG, logger="pcspan.lpsolve")
    big = 1000003
    assert big > RECONSTRUCT_LIMIT
    lp = LinearProgram(num_vars=2, objective={1: 1})
    lp.add_eq({0: big, 1: 1}, 1)  # column 1 is a costly slack
    sol = solve_lp(lp)
    assert sol.values == [Fraction(1, big), Fraction(0)]
    [record] = _fallbacks(caplog)
    assert "1 rows and 2 columns" in record.getMessage()
    assert "not primal feasible" in record.getMessage()
    assert solve_exact(lp, ([0], [0])).values == sol.values


def test_corrupted_guess_falls_back_to_the_same_values(caplog):
    caplog.set_level(logging.DEBUG, logger="pcspan.lpsolve")
    rng = random.Random(7)
    for _ in range(10):
        lp = _random_lp(rng)
        basis, (col_value, row_dual) = solve_highs(lp)
        expected = solve_exact(lp, basis, (col_value, row_dual))
        assert not _fallbacks(caplog)
        corrupted = list(col_value)
        corrupted[basis[0][0]] += 1 / 7
        assert solve_exact(lp, basis, (corrupted, row_dual)) == expected
        assert len(_fallbacks(caplog)) == 1
        caplog.clear()


def _one_condition_violations():
    """(lp, basis, primal, dual, message): certificates that break exactly
    one `_certify` condition, the one the message names."""
    lp = LinearProgram(num_vars=2, objective={})
    lp.add_eq({0: 1, 1: 1}, 0)
    yield lp, ([0, 1], [0]), {0: -1, 1: 1}, {0: 0}, "value is negative"

    lp = LinearProgram(num_vars=1, objective={})
    lp.add_eq({0: 1}, 1)
    yield lp, ([0], [0]), {0: Fraction(1, 2)}, {0: 0}, "equality or tight"

    lp = LinearProgram(num_vars=1, objective={})
    lp.add_ub({0: 1}, 1)
    yield lp, ([0], [0]), {0: Fraction(1, 2)}, {0: 0}, "equality or tight"

    lp = LinearProgram(num_vars=1, objective={})
    lp.add_eq({0: 1}, 2)
    lp.add_ub({0: 1}, 1)
    yield lp, ([0], [0]), {0: 2}, {0: 0}, "<= row is violated"

    lp = LinearProgram(num_vars=1, objective={})
    lp.add_eq({0: 1}, 1)
    lp.add_ub({0: 1}, 1)
    yield lp, ([0], [0, 1]), {0: 1}, {0: -1, 1: 1}, "positive dual"

    lp = LinearProgram(num_vars=2, objective={0: -1})
    lp.add_eq({0: 1, 1: 1}, 1)
    yield lp, ([1], [0]), {1: 1}, {0: 0}, "negative reduced cost"

    lp = LinearProgram(num_vars=1, objective={0: Fraction(3, 2)})
    lp.add_eq({0: 2}, 1)
    yield lp, ([0], [0]), {0: Fraction(1, 2)}, {0: 0}, "basic column"


def test_certificate_rejects_each_violated_condition():
    for lp, basis, primal, dual, message in _one_condition_violations():
        primal = {j: Fraction(v) for j, v in primal.items()}
        dual = {i: Fraction(y) for i, y in dual.items()}
        with pytest.raises(InternalInvariantError, match=message):
            _certify(lp, basis, primal, dual)


def test_certificate_accepts_an_optimum_with_fractional_values():
    lp = LinearProgram(num_vars=2, objective={0: Fraction(3, 2), 1: 1})
    lp.add_eq({0: 2, 1: 1}, 1)
    lp.add_ub({0: 1}, 1)
    _certify(lp, ([0], [0]), {0: Fraction(1, 2)}, {0: Fraction(3, 4)})
    assert solve_lp(lp).values == [Fraction(1, 2), Fraction(0)]


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
