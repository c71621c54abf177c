import logging
import random
from fractions import Fraction

import pytest
from scipy.optimize._highspy import _core as highs

from pcspan.density_lp import build_lp
from pcspan.errors import InternalInvariantError
from pcspan.generate import gen_pcs
from pcspan.junction import build_label_cover
from pcspan.lpsolve import (
    RECONSTRUCT_LIMIT,
    LinearProgram,
    LpSolution,
    _certify,
    highs_model,
    solve_exact,
    solve_highs,
    solve_lp,
)
from pcspan.rational import common_scale, to_units


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


def reference_simplex(lp: LinearProgram) -> LpSolution:
    """Dense two-phase primal simplex over Fractions with Bland's rule: the
    independent reference the basis-certified solver is checked against."""
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
    return LpSolution(values=values, objective=sum(
        (Fraction(c, lp.cost_scale) * values[j] for j, c in lp.objective.items()), Fraction(0)
    ))


def assert_exact_optimum(lp: LinearProgram) -> LpSolution:
    sol = solve_lp(lp)
    assert all(isinstance(v, Fraction) for v in sol.values)
    assert residuals(lp, sol.values) == (0, 0)
    assert sol.objective == reference_simplex(lp).objective
    return sol


def test_exact_forced_assignment():
    lp = make_lp(2, {0: 1, 1: 3}, eq=[({0: 1, 1: 1}, 1)])
    sol = assert_exact_optimum(lp)
    assert sol.values == [Fraction(1), Fraction(0)]
    assert sol.objective == 1


def test_integer_coefficients_give_exact_fractions():
    lp = make_lp(1, {0: 1}, eq=[({0: 3}, 1)])
    sol = assert_exact_optimum(lp)
    assert sol.values == [Fraction(1, 3)]
    assert type(sol.values[0]) is Fraction


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
    inst = gen_pcs(n=6, k=3, m=1, tau=1, regime="integer", seed=8, budget_slack=1)
    lp = build_lp(build_label_cover(inst, 0)).lp
    assert len(lp.eq_rows) + len(lp.ub_rows) > 48
    assert_exact_optimum(lp)


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
    lp = make_lp(2, {1: 1}, eq=[({0: big, 1: 1}, 1)])  # column 1 is a costly slack
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


def test_certificate_rejects_each_violated_condition():
    for lp, basis, primal, dual, message in _one_condition_violations():
        primal = {j: Fraction(v) for j, v in primal.items()}
        dual = {i: Fraction(y) for i, y in dual.items()}
        with pytest.raises(InternalInvariantError, match=message):
            _certify(lp, basis, primal, dual)


def test_certificate_accepts_an_optimum_with_fractional_values():
    lp = make_lp(2, {0: Fraction(3, 2), 1: 1}, eq=[({0: 2, 1: 1}, 1)], ub=[({0: 1}, 1)])
    _certify(lp, ([0], [0]), {0: Fraction(1, 2)}, {0: Fraction(3, 4)})
    assert solve_lp(lp).values == [Fraction(1, 2), Fraction(0)]


def _generated_lps():
    rng = random.Random(11)
    yield from (_random_lp(rng) for _ in range(20))
    for seed in (8, 9):
        inst = gen_pcs(n=6, k=3, m=1, tau=1, regime="integer", seed=seed, budget_slack=1)
        for root in range(inst.n):
            bundle = build_label_cover(inst, root)
            if bundle is not None:
                yield build_lp(bundle).lp


def _basis_by_status(lp: LinearProgram) -> tuple:
    """(basic columns, tight rows) split from HiGHS's per-variable statuses."""
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
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
