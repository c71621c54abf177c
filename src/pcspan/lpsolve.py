"""Linear-program solving: exact rational simplex and a HiGHS wrapper.

Small LPs go through the exact two-phase simplex over Fractions (Bland's
rule, cycle-free).  Larger LPs use scipy's HiGHS backend; its answers are
converted to exact rationals and certified post hoc (feasibility residuals
and the primal/dual gap) so downstream pruning never consumes an unchecked
float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .errors import InternalInvariantError

FEAS_TOL = Fraction(1, 10**9)


@dataclass
class LinearProgram:
    """min c.x  s.t.  A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

    Rows are sparse dicts var_index -> coefficient (ints/Fractions).
    """

    num_vars: int
    objective: dict
    eq_rows: list = field(default_factory=list)  # (row dict, rhs)
    ub_rows: list = field(default_factory=list)  # (row dict, rhs)

    def add_eq(self, row: dict, rhs):
        self.eq_rows.append((dict(row), Fraction(rhs)))

    def add_ub(self, row: dict, rhs):
        self.ub_rows.append((dict(row), Fraction(rhs)))


@dataclass
class LpSolution:
    values: list  # Fractions, one per variable
    objective: Fraction
    method: str
    max_eq_residual: Fraction
    max_ub_violation: Fraction
    duality_gap: Fraction | None


def _row_value(row: dict, values) -> Fraction:
    return sum((Fraction(c) * values[j] for j, c in row.items()), Fraction(0))


def residuals(lp: LinearProgram, values) -> tuple:
    """(max |eq residual|, max positive ub violation), exact arithmetic."""
    eq = Fraction(0)
    for row, rhs in lp.eq_rows:
        eq = max(eq, abs(_row_value(row, values) - rhs))
    ub = Fraction(0)
    for row, rhs in lp.ub_rows:
        ub = max(ub, _row_value(row, values) - rhs)
    neg = Fraction(0)
    for v in values:
        neg = max(neg, -v)
    return eq, max(ub, neg)


def solve_lp(lp: LinearProgram, exact_threshold: int = 48) -> LpSolution:
    """Exact simplex for small LPs, certified HiGHS otherwise."""
    if lp.num_vars <= exact_threshold and len(lp.eq_rows) + len(lp.ub_rows) <= exact_threshold:
        return solve_exact(lp)
    return solve_highs(lp)


def solve_highs(lp: LinearProgram) -> LpSolution:
    c = np.zeros(lp.num_vars)
    for j, v in lp.objective.items():
        c[j] = float(v)

    def build(rows):
        data, indices, indptr, rhs = [], [], [0], []
        for row, b in rows:
            for j, v in sorted(row.items()):
                indices.append(j)
                data.append(float(v))
            indptr.append(len(indices))
            rhs.append(float(b))
        mat = csr_matrix(
            (data, indices, indptr), shape=(len(rows), lp.num_vars)
        )
        return mat, np.array(rhs)

    a_eq, b_eq = build(lp.eq_rows) if lp.eq_rows else (None, None)
    a_ub, b_ub = build(lp.ub_rows) if lp.ub_rows else (None, None)
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        raise InternalInvariantError(f"LP solve failed: {res.message}")
    values = [Fraction(float(x)) for x in res.x]
    values = [v if v > 0 else Fraction(0) for v in values]
    eq_res, ub_res = residuals(lp, values)
    if eq_res > FEAS_TOL or ub_res > FEAS_TOL:
        raise InternalInvariantError(
            f"HiGHS solution violates residual bounds: eq={float(eq_res)}, ub={float(ub_res)}"
        )
    gap = _duality_gap(lp, res)
    objective = _row_value(lp.objective, values)
    return LpSolution(
        values=values,
        objective=objective,
        method="highs",
        max_eq_residual=eq_res,
        max_ub_violation=ub_res,
        duality_gap=gap,
    )


def _duality_gap(lp: LinearProgram, res) -> Fraction | None:
    """|primal - dual| from HiGHS marginals, exact over the float data."""
    try:
        dual = Fraction(0)
        if lp.eq_rows and res.eqlin is not None:
            for (row, rhs), lam in zip(lp.eq_rows, res.eqlin.marginals):
                dual += Fraction(float(lam)) * rhs
        if lp.ub_rows and res.ineqlin is not None:
            for (row, rhs), lam in zip(lp.ub_rows, res.ineqlin.marginals):
                dual += Fraction(float(lam)) * rhs
        primal = Fraction(float(res.fun))
        return abs(primal - dual)
    except (AttributeError, TypeError):
        return None


def solve_exact(lp: LinearProgram) -> LpSolution:
    """Two-phase primal simplex over Fractions with Bland's rule."""
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
    eq_res, ub_res = residuals(lp, values)
    if eq_res != 0 or ub_res > 0:
        raise InternalInvariantError("exact simplex produced an infeasible point")
    return LpSolution(
        values=values,
        objective=_row_value(lp.objective, values),
        method="exact",
        max_eq_residual=eq_res,
        max_ub_violation=ub_res,
        duality_gap=Fraction(0),
    )

