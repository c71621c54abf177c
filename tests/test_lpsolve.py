import random
from fractions import Fraction

import pytest

from pcspan.errors import InternalInvariantError
from pcspan.lpsolve import (
    LinearProgram,
    residuals,
    solve_exact,
    solve_highs,
    solve_lp,
)

TOL = Fraction(1, 10**9)


def test_exact_forced_assignment():
    lp = LinearProgram(num_vars=2, objective={0: 1, 1: 3})
    lp.add_eq({0: 1, 1: 1}, 1)
    sol = solve_exact(lp)
    assert sol.values == [Fraction(1), Fraction(0)]
    assert sol.objective == 1


def test_exact_detects_infeasibility():
    lp = LinearProgram(num_vars=1, objective={0: 1})
    lp.add_eq({0: 1}, 1)
    lp.add_ub({0: 1}, Fraction(1, 2))
    with pytest.raises(InternalInvariantError):
        solve_exact(lp)


def test_exact_unbounded():
    lp = LinearProgram(num_vars=2, objective={0: -1})
    lp.add_ub({1: 1}, 1)
    with pytest.raises(InternalInvariantError):
        solve_exact(lp)


def test_duplicate_zero_cost_columns_do_not_change_objective():
    lp1 = LinearProgram(num_vars=2, objective={0: 2})
    lp1.add_eq({0: 1, 1: 1}, 1)
    lp2 = LinearProgram(num_vars=3, objective={0: 2})
    lp2.add_eq({0: 1, 1: 1, 2: 1}, 1)
    assert solve_exact(lp1).objective == solve_exact(lp2).objective == 0


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
        lp = _random_lp(rng)
        exact = solve_exact(lp)
        approx = solve_highs(lp)
        assert abs(exact.objective - approx.objective) <= TOL
        assert approx.max_eq_residual <= TOL
        assert approx.max_ub_violation <= TOL
        if approx.duality_gap is not None:
            assert approx.duality_gap <= Fraction(1, 10**6)


def test_solve_lp_dispatch_threshold():
    lp = LinearProgram(num_vars=2, objective={0: 1})
    lp.add_eq({0: 1, 1: 1}, 1)
    assert solve_lp(lp, exact_threshold=10).method == "exact"
    assert solve_lp(lp, exact_threshold=1).method == "highs"


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
