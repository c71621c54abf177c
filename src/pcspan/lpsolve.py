"""Linear-program solving: HiGHS finds an optimal basis, Fractions certify it.

`solve_highs` runs scipy's bundled HiGHS and returns only its optimal basis.
`solve_exact` solves that basis's primal and dual systems in exact rationals
and checks primal feasibility, dual feasibility and complementary slackness
exactly (Applegate, Cook, Dash & Espinoza, "Exact solutions to linear
programming problems", 2007), so downstream pruning never consumes an
uncertified float.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from scipy.optimize._highspy import _core as highs

from .errors import InternalInvariantError


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


def _row_value(row: dict, values) -> Fraction:
    return sum((c * values[j] for j, c in row.items() if values[j]), Fraction(0))


def residuals(lp: LinearProgram, values) -> tuple:
    """(max |eq residual|, max positive ub violation), exact arithmetic."""
    eq = max((abs(_row_value(row, values) - rhs) for row, rhs in lp.eq_rows), default=0)
    ub = max((_row_value(row, values) - rhs for row, rhs in lp.ub_rows), default=0)
    return Fraction(eq), Fraction(max(ub, -min(values, default=0), 0))


def solve_lp(lp: LinearProgram) -> LpSolution:
    """The exact optimum at the optimal basis HiGHS reports."""
    return solve_exact(lp, solve_highs(lp))


def solve_highs(lp: LinearProgram) -> tuple:
    """(basic columns, tight rows) of HiGHS's optimal basis; rows are
    numbered eq rows first, then ub rows."""
    rows = lp.eq_rows + lp.ub_rows
    columns = [[] for _ in range(lp.num_vars)]
    for i, (row, _rhs) in enumerate(rows):
        for j, v in row.items():
            columns[j].append((i, float(v)))
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.num_vars
    model.num_row_ = model.a_matrix_.num_row_ = len(rows)
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = [0, *accumulate(len(col) for col in columns)]
    model.a_matrix_.index_ = [i for col in columns for i, _v in col]
    model.a_matrix_.value_ = [v for col in columns for _i, v in col]
    inf = highs.kHighsInf
    model.col_cost_ = [float(lp.objective.get(j, 0)) for j in range(lp.num_vars)]
    model.col_lower_ = [0.0] * lp.num_vars
    model.col_upper_ = [inf] * lp.num_vars
    model.row_lower_ = [float(b) for _row, b in lp.eq_rows] + [-inf] * len(lp.ub_rows)
    model.row_upper_ = [float(b) for _row, b in rows]
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.passModel(model)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise InternalInvariantError(f"LP solve failed: {solver.modelStatusToString(status)}")
    basis = solver.getBasis()
    basic = highs.HighsBasisStatus.kBasic
    return (
        [j for j, s in enumerate(basis.col_status) if s == basic],
        [i for i, s in enumerate(basis.row_status) if s != basic],
    )


def solve_exact(lp: LinearProgram, basis: tuple) -> LpSolution:
    """Exact primal and dual solutions at `basis`, certified optimal."""
    basic, tight = basis
    rows = lp.eq_rows + lp.ub_rows
    coef = {i: {j: Fraction(v) for j, v in rows[i][0].items()} for i in tight}
    basic_set = set(basic)
    primal = _solve_square(
        [{j: v for j, v in coef[i].items() if j in basic_set} for i in tight],
        [rows[i][1] for i in tight],
        basic,
    )
    values = [Fraction(0)] * lp.num_vars
    for j, v in primal.items():
        values[j] = v
    if residuals(lp, values) != (0, 0):
        raise InternalInvariantError("LP basis solution is not primal feasible")
    transposed = {j: {} for j in basic}
    for i in tight:
        for j, v in coef[i].items():
            if j in basic_set:
                transposed[j][i] = v
    dual = _solve_square(
        [transposed[j] for j in basic],
        [Fraction(lp.objective.get(j, 0)) for j in basic],
        tight,
    )
    num_eq = len(lp.eq_rows)
    if any(y > 0 for i, y in dual.items() if i >= num_eq):
        raise InternalInvariantError("LP basis has a positive dual on a <= row")
    reduced = {j: Fraction(c) for j, c in lp.objective.items()}
    for i, y in dual.items():
        if y:
            for j, v in coef[i].items():
                reduced[j] = reduced.get(j, Fraction(0)) - y * v
    if any(r < 0 for r in reduced.values()):
        raise InternalInvariantError("LP basis has a negative reduced cost")
    return LpSolution(values=values, objective=_row_value(lp.objective, values))


def _solve_square(rows: list, rhs: list, unknowns: list) -> dict:
    """Solve the square sparse system rows[k] . x = rhs[k] over `unknowns`
    in Fractions: Gaussian elimination taking the sparsest remaining row as
    the next pivot row, then back substitution."""
    if len(rows) != len(unknowns):
        raise InternalInvariantError("LP basis is not square")
    rows = [dict(row) for row in rows]
    rhs = list(rhs)
    holders = {j: set() for j in unknowns}  # unknown -> open rows holding it
    for k, row in enumerate(rows):
        for j in row:
            holders[j].add(k)
    heap = [(len(row), k) for k, row in enumerate(rows)]
    heapq.heapify(heap)
    done = set()
    order = []  # (row, pivot unknown), in elimination order
    while heap:
        size, k = heapq.heappop(heap)
        if k in done or size != len(rows[k]):
            continue
        if not rows[k]:
            raise InternalInvariantError("LP basis matrix is singular")
        done.add(k)
        pivot_row = rows[k]
        p = min(pivot_row, key=lambda j: (len(holders[j]), j))
        for j in pivot_row:
            holders[j].discard(k)
        for other in holders.pop(p):
            row = rows[other]
            factor = row[p] / pivot_row[p]
            for j, v in pivot_row.items():
                new = row.get(j, 0) - factor * v
                if new:
                    if j not in row:
                        holders[j].add(other)
                    row[j] = new
                elif j in row:
                    del row[j]
                    if j != p:
                        holders[j].discard(other)
            rhs[other] -= factor * rhs[k]
            heapq.heappush(heap, (len(row), other))
        order.append((k, p))
    if len(order) != len(unknowns):
        raise InternalInvariantError("LP basis matrix is singular")
    x = {}
    for k, p in reversed(order):
        row = rows[k]
        x[p] = (rhs[k] - sum((v * x[j] for j, v in row.items() if j != p), Fraction(0))) / row[p]
    return x
