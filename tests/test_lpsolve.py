import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcspan import lpsolve
from pcspan.density_lp import build_lp
from pcspan.errors import InternalInvariantError
from pcspan.generate import gen_pcs
from pcspan.lpsolve import (
    RECONSTRUCT_LIMIT,
    LinearProgram,
    LpSolution,
    _certify,
    _reconstruct,
    _reduced_costs,
    highs,
    highs_model,
    highs_solver,
    solve_exact,
    solve_highs,
    solve_lp,
)
from pcspan.rational import common_scale, to_units

from conftest import label_cover


def make_lp(num_vars: int, objective: dict, eq=(), ub=()) -> LinearProgram:
    """A LinearProgram from rows: `eq` and `ub` list (row, rhs) pairs, a row
    mapping a column to its coefficient; rhs and costs may be fractional
    (the costs become ints over their common scale)."""
    columns = [[] for _ in range(num_vars)]
    for i, (row, _rhs) in enumerate([*eq, *ub]):
        for j, a in row.items():
            columns[j].append((i, a))
    scale = common_scale(Fraction(c) for c in objective.values())
    return LinearProgram(
        columns=columns,
        objective={j: to_units(Fraction(c), scale) for j, c in objective.items()},
        eq_rows=[rhs for _row, rhs in eq],
        ub_rows=[rhs for _row, rhs in ub],
        cost_scale=scale,
    )


def residuals(lp: LinearProgram, values) -> tuple:
    """(max |eq residual|, max positive ub violation), exact arithmetic."""
    activity = [Fraction(0)] * (len(lp.eq_rows) + len(lp.ub_rows))
    for j, column in enumerate(lp.columns):
        for i, a in column:
            activity[i] += a * values[j]
    num_eq = len(lp.eq_rows)
    eq = max((abs(activity[i] - b) for i, b in enumerate(lp.eq_rows)), default=0)
    ub = max((activity[num_eq + i] - b for i, b in enumerate(lp.ub_rows)), default=0)
    return Fraction(eq), Fraction(max(ub, -min(values, default=0), 0))


def fractions_of(sol: LpSolution) -> list:
    """Every column's value of `sol` as a Fraction."""
    return [Fraction(v, sol.denominator) for v in sol.values]


def reference_simplex(lp: LinearProgram) -> Fraction:
    """The optimal objective value by dense two-phase primal simplex over
    Fractions with Bland's rule: the independent reference the
    basis-certified solver is checked against."""
    n = lp.num_vars
    num_eq = len(lp.eq_rows)
    slack_count = len(lp.ub_rows)
    total = n + slack_count
    # eq rows first, then ub rows with one slack column each
    rows = [[Fraction(0)] * total for _ in range(num_eq + slack_count)]
    for j, column in enumerate(lp.columns):
        for i, a in column:
            rows[i][j] = Fraction(a)
    for i in range(slack_count):
        rows[num_eq + i][n + i] = Fraction(1)
    rhs = [Fraction(b) for b in lp.eq_rows + lp.ub_rows]
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
        phase2_cost[j] = Fraction(v, lp.cost_scale)
    allowed = set(range(total))
    run_simplex(tableau, basis, phase2_cost, allowed)
    values = [Fraction(0)] * lp.num_vars
    for r, bj in enumerate(basis):
        if bj < lp.num_vars:
            values[bj] = tableau[r][-1]
    assert residuals(lp, values) == (0, 0)
    return sum(
        (Fraction(c, lp.cost_scale) * values[j] for j, c in lp.objective.items()), Fraction(0)
    )


def assert_exact_optimum(lp: LinearProgram) -> LpSolution:
    sol = solve_lp(lp)
    assert all(type(v) is int for v in sol.values)
    assert type(sol.denominator) is int and sol.denominator > 0
    assert residuals(lp, fractions_of(sol)) == (0, 0)
    assert sol.objective == reference_simplex(lp)
    return sol


def test_exact_forced_assignment():
    lp = make_lp(2, {0: 1, 1: 3}, eq=[({0: 1, 1: 1}, 1)])
    sol = assert_exact_optimum(lp)
    assert fractions_of(sol) == [Fraction(1), Fraction(0)]
    assert sol.objective == 1


def test_integer_coefficients_give_exact_fractions():
    lp = make_lp(1, {0: 1}, eq=[({0: 3}, 1)])
    sol = assert_exact_optimum(lp)
    assert fractions_of(sol) == [Fraction(1, 3)]
    assert (sol.values, sol.denominator) == ([1], 3)


def test_exact_detects_infeasibility():
    lp = make_lp(1, {0: 1}, eq=[({0: 1}, 1)], ub=[({0: 1}, Fraction(1, 2))])
    with pytest.raises(InternalInvariantError):
        solve_lp(lp)
    with pytest.raises(InternalInvariantError):
        reference_simplex(lp)


def test_exact_unbounded():
    lp = make_lp(2, {0: -1}, ub=[({1: 1}, 1)])
    with pytest.raises(InternalInvariantError):
        solve_lp(lp)
    with pytest.raises(InternalInvariantError):
        reference_simplex(lp)


def test_duplicate_zero_cost_columns_do_not_change_objective():
    lp1 = make_lp(2, {0: 2}, eq=[({0: 1, 1: 1}, 1)])
    lp2 = make_lp(3, {0: 2}, eq=[({0: 1, 1: 1, 2: 1}, 1)])
    assert assert_exact_optimum(lp1).objective == assert_exact_optimum(lp2).objective == 0


def _random_lp(rng: random.Random) -> LinearProgram:
    nv = rng.randint(2, 7)
    objective = {j: Fraction(rng.randint(0, 6)) for j in range(nv)}
    ub = []
    for _ in range(rng.randint(1, 4)):
        support = rng.sample(range(nv), k=min(nv, rng.randint(1, 3)))
        row = {j: rng.randint(1, 3) for j in support}
        # rhs at least the max coefficient keeps the simplex point feasible
        ub.append((row, Fraction(rng.randint(3, 7))))
    return make_lp(nv, objective, eq=[({j: 1 for j in range(nv)}, 1)], ub=ub)


def test_dual_solver_cross_check_random():
    rng = random.Random(2024)
    for _ in range(60):
        assert_exact_optimum(_random_lp(rng))


def test_density_lp_above_48_rows_matches_reference():
    inst = gen_pcs(n=6, k=3, m=1, tau=1, regime="integer", seed=2, budget_slack=1)
    lp = build_lp(*label_cover(inst, 0)).lp
    assert len(lp.eq_rows) + len(lp.ub_rows) > 48
    assert assert_exact_optimum(lp).objective == Fraction(13, 2)


def test_exact_rejects_a_basis_it_cannot_certify():
    objective = {0: 1, 1: Fraction(3, 2)}
    eq = [({0: 1, 1: 1}, 1)]
    with pytest.raises(InternalInvariantError, match="reduced cost"):
        solve_exact(make_lp(2, objective, eq), ([1], [0]))
    lp = make_lp(2, objective, eq, ub=[({0: 1}, Fraction(1, 2))])
    with pytest.raises(InternalInvariantError, match="primal feasible"):
        solve_exact(lp, ([0], [0]))
    lp = make_lp(2, {0: -1}, eq, ub=[({1: 1}, Fraction(1, 2))])
    with pytest.raises(InternalInvariantError, match="positive dual"):
        solve_exact(lp, ([0, 1], [0, 1]))
    with pytest.raises(InternalInvariantError, match="not square"):
        solve_exact(lp, ([0], [0, 1]))


def _non_integral(v: float) -> bool:
    return abs(v - round(v)) > 1e-9


@given(
    st.one_of(
        st.floats(min_value=-1e6, max_value=1e6),
        # the floats of small-denominator rationals, as HiGHS reports them
        st.builds(lambda p, q: p / q, st.integers(-10**7, 10**7), st.integers(1, 10**7)),
    ).filter(_non_integral)
)
def test_reconstruction_is_the_fraction_limit_denominator(v):
    num, den = _reconstruct(v)
    assert type(num) is int and type(den) is int and 0 < den <= RECONSTRUCT_LIMIT
    assert Fraction(num, den) == Fraction(v).limit_denominator(RECONSTRUCT_LIMIT)
    assert Fraction(num, den).denominator == den


def test_reconstruction_keeps_an_integer_within_tolerance():
    assert _reconstruct(3.0) == (3, 1)
    assert _reconstruct(-2 + 1e-12) == (-2, 1)


def _fallbacks(caplog) -> list:
    return [r for r in caplog.records if "elimination" in r.getMessage()]


def test_highs_solution_is_certified_without_elimination(caplog):
    caplog.set_level(logging.DEBUG, logger="pcspan.lpsolve")
    inst = gen_pcs(n=6, k=3, m=1, tau=1, regime="integer", seed=8, budget_slack=1)
    lp = build_lp(*label_cover(inst, 0)).lp
    basis, guess = solve_highs(lp)
    assert solve_exact(lp, basis, guess) == solve_exact(lp, basis)
    assert len(_fallbacks(caplog)) == 1  # only the call without a guess
    assert "no float solution" in _fallbacks(caplog)[0].getMessage()


def test_denominator_above_the_limit_falls_back_to_elimination(caplog):
    caplog.set_level(logging.DEBUG, logger="pcspan.lpsolve")
    big = 1000003
    assert big > RECONSTRUCT_LIMIT
    lp = make_lp(2, {1: 1}, eq=[({0: big, 1: 1}, 1)])  # column 1 is a costly slack
    sol = solve_lp(lp)
    assert fractions_of(sol) == [Fraction(1, big), Fraction(0)]
    [record] = _fallbacks(caplog)
    assert "1 rows and 2 columns" in record.getMessage()
    assert "not primal feasible" in record.getMessage()
    assert solve_exact(lp, ([0], [0])) == sol


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
    lp = make_lp(2, {}, eq=[({0: 1, 1: 1}, 0)])
    yield lp, ([0, 1], [0]), {0: -1, 1: 1}, {0: 0}, "value is negative"

    lp = make_lp(1, {}, eq=[({0: 1}, 1)])
    yield lp, ([0], [0]), {0: Fraction(1, 2)}, {0: 0}, "equality or tight"

    lp = make_lp(1, {}, ub=[({0: 1}, 1)])
    yield lp, ([0], [0]), {0: Fraction(1, 2)}, {0: 0}, "equality or tight"

    lp = make_lp(1, {}, eq=[({0: 1}, 2)], ub=[({0: 1}, 1)])
    yield lp, ([0], [0]), {0: 2}, {0: 0}, "<= row is violated"

    lp = make_lp(1, {}, eq=[({0: 1}, 1)], ub=[({0: 1}, 1)])
    yield lp, ([0], [0, 1]), {0: 1}, {0: -1, 1: 1}, "positive dual"

    lp = make_lp(2, {0: -1}, eq=[({0: 1, 1: 1}, 1)])
    yield lp, ([1], [0]), {1: 1}, {0: 0}, "negative reduced cost"

    lp = make_lp(1, {0: Fraction(3, 2)}, eq=[({0: 2}, 1)])
    yield lp, ([0], [0]), {0: Fraction(1, 2)}, {0: 0}, "basic column"


def _ratios(values: dict) -> dict:
    """`values` as the (numerator, denominator) pairs `_certify` takes."""
    return {k: Fraction(v).as_integer_ratio() for k, v in values.items()}


def test_certificate_rejects_each_violated_condition():
    for lp, basis, primal, dual, message in _one_condition_violations():
        with pytest.raises(InternalInvariantError, match=message):
            _certify(lp, basis, _ratios(primal), _ratios(dual))


def test_certificate_accepts_an_optimum_with_fractional_values():
    lp = make_lp(2, {0: Fraction(3, 2), 1: 1}, eq=[({0: 2, 1: 1}, 1)], ub=[({0: 1}, 1)])
    primal = _ratios({0: Fraction(1, 2)})
    # the certified primal, scaled by the lcm of its denominators
    assert _certify(lp, ([0], [0]), primal, _ratios({0: Fraction(3, 4)})) == ({0: 1}, 2)
    assert fractions_of(solve_lp(lp)) == [Fraction(1, 2), Fraction(0)]


def _generated_lps():
    rng = random.Random(11)
    yield from (_random_lp(rng) for _ in range(20))
    for seed in (8, 9):
        inst = gen_pcs(n=6, k=3, m=1, tau=1, regime="integer", seed=seed, budget_slack=1)
        for root in range(inst.n):
            rooted = label_cover(inst, root)
            if rooted is not None:
                yield build_lp(*rooted).lp


def _basis_by_status(lp: LinearProgram) -> tuple:
    """(basic columns, tight rows) split from HiGHS's per-variable statuses."""
    solver = highs_solver()
    solver.passModel(highs_model(lp))
    solver.run()
    basis = solver.getBasis()
    basic = highs.HighsBasisStatus.kBasic
    return (
        [j for j, s in enumerate(basis.col_status) if s == basic],
        [i for i, s in enumerate(basis.row_status) if s != basic],
    )


def test_basis_indices_equal_the_basis_status_split():
    count = 0
    for lp in _generated_lps():
        (basic, tight), _guess = solve_highs(lp)
        assert (basic, tight) == _basis_by_status(lp)
        assert all(type(j) is int for j in basic + tight)
        assert len(basic) == len(tight)
        count += 1
    assert count > 25


def test_reduced_costs_equal_the_per_column_sums():
    # the reduced costs `_certify` judges equal the per-column sums over
    # every entry, for dual certificates that pass and ones that fail
    rng = random.Random(5)
    verdicts = set()
    for lp in _generated_lps():
        (basic, tight), (_col_value, row_dual) = solve_highs(lp)
        cost = {j: Fraction(c, lp.cost_scale) for j, c in lp.objective.items()}
        dual = {i: Fraction(*_reconstruct(row_dual[i])) for i in tight}
        shifted = dict(dual)
        shifted[rng.choice(tight)] += rng.choice((-1, 1)) * Fraction(1, 3)
        for y in (dual, shifted):
            y = {i: v for i, v in y.items() if v}
            reduced = _reduced_costs(lp, cost, y)
            assert reduced == [
                cost.get(j, 0) - sum(a * y[i] for i, a in column if i in y)
                for j, column in enumerate(lp.columns)
            ]
            verdicts.add(min(reduced) >= 0 and not any(reduced[j] for j in basic))
    assert verdicts == {True, False}


def _fresh_solve(lp: LinearProgram) -> tuple:
    """`solve_highs(lp)` in a solver made for this LP alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lpsolve, "_SOLVER", highs_solver())
        return solve_highs(lp)


def _alternating_density_lps():
    """Density LPs of two instances of different size, interleaved, so each
    LP follows one of another shape."""
    small, large = (
        [
            build_lp(*rooted).lp
            for rooted in (label_cover(inst, root) for root in range(inst.n))
            if rooted is not None
        ]
        for inst in (
            gen_pcs(n=5, k=2, m=1, tau=1, regime="integer", seed=3, budget_slack=1),
            gen_pcs(n=7, k=3, m=1, tau=1, regime="integer", seed=9, budget_slack=1),
        )
    )
    for pair in zip(small, large):
        yield from pair


def _same_solve(lp: LinearProgram) -> bool:
    basis, (col_value, row_dual) = solve_highs(lp)
    fresh_basis, (fresh_col, fresh_dual) = _fresh_solve(lp)
    return (basis, list(col_value), list(row_dual)) == (
        fresh_basis, list(fresh_col), list(fresh_dual)
    )


def test_shared_solver_matches_a_fresh_one():
    shapes = []
    for lp in _alternating_density_lps():
        assert _same_solve(lp)
        shapes.append((len(lp.eq_rows) + len(lp.ub_rows), lp.num_vars))
    assert len(shapes) >= 6
    assert all(a != b for a, b in zip(shapes, shapes[1:]))


def test_an_lp_that_raises_leaves_the_shared_solver_clean():
    infeasible = make_lp(1, {0: 1}, eq=[({0: 1}, 1)], ub=[({0: 1}, Fraction(1, 2))])
    lps = list(_alternating_density_lps())[:4]
    for lp in lps:
        with pytest.raises(InternalInvariantError, match="LP solve failed"):
            solve_highs(infeasible)
        assert (lpsolve._SOLVER.getNumRow(), lpsolve._SOLVER.getNumCol()) == (0, 0)
        assert _same_solve(lp)


def test_shared_solver_keeps_its_options():
    solve_lp(make_lp(2, {0: 1, 1: 3}, eq=[({0: 1, 1: 1}, 1)]))
    ok = highs.HighsStatus.kOk
    assert lpsolve._SOLVER.getOptionValue("presolve") == (ok, "off")
    assert lpsolve._SOLVER.getOptionValue("output_flag") == (ok, False)


def test_highs_costs_are_the_floats_of_the_rational_costs():
    # float(k) / float(L) would round the last cost down; k / L does not
    costs = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 6), Fraction(38344278408619747, 9)]
    assert float(costs[3].numerator) / costs[3].denominator != float(costs[3])
    lp = make_lp(4, dict(enumerate(costs)), eq=[({j: 1 for j in range(4)}, 1)])
    assert lp.cost_scale == 126
    assert all(type(k) is int for k in lp.objective.values())
    assert list(highs_model(lp).col_cost_) == [float(c) for c in costs]
    assert solve_lp(lp).objective == Fraction(2, 7)


def test_residuals_exact():
    lp = make_lp(2, {}, eq=[({0: 1, 1: 1}, 1)], ub=[({0: 2}, 1)])
    eq, ub = residuals(lp, [Fraction(1, 2), Fraction(1, 2)])
    assert eq == 0 and ub == 0
    eq, ub = residuals(lp, [Fraction(1), Fraction(0)])
    assert eq == 0 and ub == 1
