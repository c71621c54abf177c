"""Linear-program solving: HiGHS solves in floats, integers certify.

An LP is one column-wise integer matrix, the CSC input HiGHS takes (Huangfu
& Hall, Math. Prog. Comp. 2018); every density-LP coefficient is +1 or -1.
`solve_highs` hands it to HiGHS untransposed and returns the optimal basis
with its float primal values and row duals.  `solve_exact` reconstructs the
basic primal values and the tight-row duals as small-denominator rationals
(continued fractions, as in Gleixner, Steffy & Wolter, "Iterative refinement
for linear programming", INFORMS JoC 2016) and certifies primal feasibility,
dual feasibility and complementary slackness exactly in integer arithmetic
(Applegate, Cook, Dash & Espinoza, "Exact solutions to linear programming
problems", 2007), with row activities and reduced costs read off the same
columns.  Only when that certificate fails does it solve the basis's
primal and dual systems by `Fraction` elimination, and it puts that result
through the same check, so downstream pruning never consumes an uncertified
float.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from scipy.optimize._highspy import _core as highs

from .errors import InternalInvariantError

log = logging.getLogger("pcspan.lpsolve")

# largest denominator rational reconstruction tries for a HiGHS value
RECONSTRUCT_LIMIT = 10**6

_ZERO = Fraction(0)


@dataclass
class LinearProgram:
    """min c.x  s.t.  A x = b on the eq rows, A x <= b on the ub rows, x >= 0.

    `columns[j]` lists column j's (row, int coefficient) pairs by ascending
    row; the eq rows are numbered first.  `eq_rows` and `ub_rows` hold the
    right-hand sides (ints or Fractions), `objective` the nonzero costs.
    """

    columns: list
    objective: dict
    eq_rows: list
    ub_rows: list

    @property
    def num_vars(self) -> int:
        return len(self.columns)


@dataclass
class LpSolution:
    values: list  # Fractions, one per variable
    objective: Fraction


def solve_lp(lp: LinearProgram) -> LpSolution:
    """The exact optimum at the optimal basis HiGHS reports."""
    basis, guess = solve_highs(lp)
    return solve_exact(lp, basis, guess)


def solve_highs(lp: LinearProgram) -> tuple:
    """((basic columns, tight rows), (column values, row duals)) of HiGHS's
    optimal solution; rows are numbered eq rows first, then ub rows, and the
    values are floats.  `lp.columns` is passed to HiGHS as it stands."""
    columns = lp.columns
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.num_vars
    model.num_row_ = model.a_matrix_.num_row_ = len(lp.eq_rows) + len(lp.ub_rows)
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = [0, *accumulate(len(col) for col in columns)]
    model.a_matrix_.index_ = [i for col in columns for i, _a in col]
    # HiGHS converts the int coefficients to doubles itself
    model.a_matrix_.value_ = [a for col in columns for _i, a in col]
    inf = highs.kHighsInf
    model.col_cost_ = [float(lp.objective.get(j, 0)) for j in range(lp.num_vars)]
    model.col_lower_ = [0.0] * lp.num_vars
    model.col_upper_ = [inf] * lp.num_vars
    upper = [float(b) for b in lp.eq_rows + lp.ub_rows]
    model.row_lower_ = upper[: len(lp.eq_rows)] + [-inf] * len(lp.ub_rows)
    model.row_upper_ = upper
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.passModel(model)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise InternalInvariantError(f"LP solve failed: {solver.modelStatusToString(status)}")
    basis = solver.getBasis()
    solution = solver.getSolution()
    # getBasis and getSolution return copies.  Freeing HiGHS's model and
    # factorization before any Python list is built keeps the benchmark's
    # peak RSS on pcs-int flat; left to the destructor, it rose by about 1 MB.
    solver.clear()
    basic = highs.HighsBasisStatus.kBasic
    return (
        (
            [j for j, s in enumerate(basis.col_status) if s == basic],
            [i for i, s in enumerate(basis.row_status) if s != basic],
        ),
        (solution.col_value, solution.row_dual),
    )


def solve_exact(lp: LinearProgram, basis: tuple, guess: tuple | None = None) -> LpSolution:
    """The exact solution at `basis`, certified optimal.

    `guess` is HiGHS's (column values, row duals); its basic values and
    tight-row duals are reconstructed as rationals and certified.  Without
    a guess, or when its certificate fails, the basis's primal and dual
    systems are solved by elimination and certified the same way.
    """
    basic, tight = basis
    if guess is None:
        failed = "no float solution given"
    else:
        col_value, row_dual = guess
        primal = {j: _reconstruct(col_value[j]) for j in basic}
        dual = {i: _reconstruct(row_dual[i]) for i in tight}
        try:
            _certify(lp, basis, primal, dual)
        except InternalInvariantError as exc:
            failed = str(exc)
        else:
            return _solution(lp, primal)
    log.debug(
        "LP with %d rows and %d columns: %s; solving the basis by elimination",
        len(lp.eq_rows) + len(lp.ub_rows),
        lp.num_vars,
        failed,
    )
    primal, dual = _eliminate(lp, basic, tight)
    _certify(lp, basis, primal, dual)
    return _solution(lp, primal)


def _reconstruct(v: float) -> Fraction:
    """The rational a float solution value stands for: the nearest integer
    within 1e-9, else the best approximation with denominator at most
    RECONSTRUCT_LIMIT (a continued-fraction convergent)."""
    r = round(v)
    if abs(v - r) <= 1e-9:
        return Fraction(r) if r else _ZERO
    return Fraction(v).limit_denominator(RECONSTRUCT_LIMIT)


def _solution(lp: LinearProgram, primal: dict) -> LpSolution:
    values = [_ZERO] * lp.num_vars
    objective = _ZERO
    for j, v in primal.items():
        values[j] = v
        if v and j in lp.objective:
            objective += lp.objective[j] * v
    return LpSolution(values=values, objective=objective)


def _certify(lp: LinearProgram, basis: tuple, primal: dict, dual: dict) -> None:
    """Raise InternalInvariantError unless `primal` (basic column -> value,
    every other column 0) and `dual` (tight row -> value, every other row 0)
    prove each other optimal.

    The primal is scaled by the lcm of its denominators, and the reduced
    costs by the lcm of the dual and objective denominators, so with the
    int constraint coefficients every sum below is over integers.  Row
    activities come from scattering the nonzero basic columns, reduced costs
    from one pass over the columns.  A pass means
    primal feasibility, dual feasibility and complementary slackness: the
    primal is nonzero only on basic columns, whose reduced costs are 0, and
    the dual only on tight rows, which hold with equality.
    """
    basic, tight = basis
    num_eq = len(lp.eq_rows)
    bounds = lp.eq_rows + lp.ub_rows
    scale = math.lcm(*(v.denominator for v in primal.values()))
    x = {j: v.numerator * (scale // v.denominator) for j, v in primal.items() if v}
    if any(v < 0 for v in x.values()):
        raise InternalInvariantError("LP solution is not primal feasible: a value is negative")
    activity = [0] * len(bounds)
    for j, v in x.items():
        for i, a in lp.columns[j]:
            activity[i] += a * v
    tight = set(tight)
    for i, (lhs, b) in enumerate(zip(activity, bounds)):
        lhs *= b.denominator
        bound = b.numerator * scale
        if i < num_eq or i in tight:
            if lhs != bound:
                raise InternalInvariantError(
                    "LP solution is not primal feasible: an equality or tight row is not met"
                )
        elif lhs > bound:
            raise InternalInvariantError("LP solution is not primal feasible: a <= row is violated")
    dscale = math.lcm(
        *(y.denominator for y in dual.values()),
        *(c.denominator for c in lp.objective.values()),
    )
    y = {i: v.numerator * (dscale // v.denominator) for i, v in dual.items() if v}
    if any(v > 0 for i, v in y.items() if i >= num_eq):
        raise InternalInvariantError("LP solution has a positive dual on a <= row")
    cost = {j: c.numerator * (dscale // c.denominator) for j, c in lp.objective.items()}
    reduced = [
        cost.get(j, 0) - sum(a * y[i] for i, a in column if i in y)
        for j, column in enumerate(lp.columns)
    ]
    if any(r < 0 for r in reduced):
        raise InternalInvariantError("LP solution has a negative reduced cost")
    if any(reduced[j] for j in basic):
        raise InternalInvariantError("LP solution has a nonzero reduced cost on a basic column")


def _eliminate(lp: LinearProgram, basic: list, tight: list) -> tuple:
    """(primal, dual) at the basis: B x = b over the tight rows and
    B^T y = c over the basic columns, solved in Fractions (an int / int
    quotient would be a float)."""
    rhs = lp.eq_rows + lp.ub_rows
    coef = {i: {} for i in tight}  # the basis matrix B, row-wise
    for j in basic:
        for i, a in lp.columns[j]:
            if i in coef:
                coef[i][j] = Fraction(a)
    primal = _solve_square([coef[i] for i in tight], [Fraction(rhs[i]) for i in tight], basic)
    dual = _solve_square(
        [{i: Fraction(a) for i, a in lp.columns[j] if i in coef} for j in basic],
        [Fraction(lp.objective.get(j, 0)) for j in basic],
        tight,
    )
    return primal, dual


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
