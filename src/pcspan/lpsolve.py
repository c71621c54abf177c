"""Linear-program solving: HiGHS solves in floats, integers certify.

An LP is one column-wise integer matrix, the CSC input HiGHS takes (Huangfu
& Hall, Math. Prog. Comp. 2018); every density-LP coefficient is +1 or -1.
The objective is ints too, over one positive scale (the instance's cost
scale); HiGHS receives `k / scale`, the correctly rounded float of the true
cost.  `solve_highs` hands the matrix to HiGHS untransposed and returns the
optimal basis with its float primal values and row duals.  `solve_exact`
reconstructs the basic primal values and the tight-row duals as
small-denominator rationals, each an int pair (continued fractions, as in
Gleixner, Steffy & Wolter, "Iterative refinement for linear programming",
INFORMS JoC 2016), and certifies primal feasibility, dual feasibility and
complementary slackness exactly in integer arithmetic (Applegate, Cook, Dash
& Espinoza, "Exact solutions to linear programming problems", 2007), with
row activities and reduced costs read off the same columns.  The certificate
scales the primal by the lcm D of its denominators, and that scaled primal
is the solution: every value an int over the one denominator D, so the
stages downstream compare masses by cross-multiplying and build no
`Fraction`.  Only when the certificate fails does `solve_exact` solve the
basis's primal and dual systems by `Fraction` elimination, and it puts that
result through the same check, so downstream pruning never consumes an
uncertified float.
"""

from __future__ import annotations

import heapq
import logging
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from itertools import accumulate
from pathlib import Path

import numpy

from .errors import InternalInvariantError

log = logging.getLogger("pcspan.lpsolve")


def _load_highs():
    """scipy's HiGHS extension, `scipy.optimize._highspy._core`, loaded on
    its own and registered under its name.  `import scipy.optimize` would
    also load linprog, scipy.linalg, scipy.fft and f2py, which no solve here
    uses and which take about half of a solve process's start-up time and
    memory; a later import of scipy.optimize finds this same module."""
    name = "scipy.optimize._highspy._core"
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed; its HiGHS extension is needed", name=name)
    directory = Path(scipy.origin).parent / "optimize" / "_highspy"
    finder = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no HiGHS extension _core in {directory}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


highs = _load_highs()

# largest denominator rational reconstruction tries for a HiGHS value
RECONSTRUCT_LIMIT = 10**6


@dataclass
class LinearProgram:
    """min c.x  s.t.  A x = b on the eq rows, A x <= b on the ub rows, x >= 0.

    `columns[j]` lists column j's (row, int coefficient) pairs by ascending
    row; the eq rows are numbered first.  `eq_rows` and `ub_rows` hold the
    right-hand sides (ints or Fractions).  `objective` maps columns to
    nonzero int costs; column j's true cost is `objective[j] / cost_scale`.
    """

    columns: list
    objective: dict
    eq_rows: list
    ub_rows: list
    cost_scale: int = 1

    @property
    def num_vars(self) -> int:
        return len(self.columns)


@dataclass
class LpSolution:
    """An exact solution over one denominator: column j's value is
    values[j] / denominator, and the objective value is
    cost / (denominator * cost_scale)."""

    values: list  # ints, one per variable
    denominator: int
    cost: int
    cost_scale: int

    @property
    def objective(self) -> Fraction:
        return Fraction(self.cost, self.denominator * self.cost_scale)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """The exact optimum at the optimal basis HiGHS reports."""
    basis, guess = solve_highs(lp)
    return solve_exact(lp, basis, guess)


def highs_model(lp: LinearProgram):
    """The HighsLp of `lp`: `lp.columns` as they stand, rows numbered eq rows
    first, then ub rows."""
    columns = lp.columns
    num_vars = lp.num_vars
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = num_vars
    model.num_row_ = model.a_matrix_.num_row_ = len(lp.eq_rows) + len(lp.ub_rows)
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = [0, *accumulate(len(col) for col in columns)]
    model.a_matrix_.index_ = [i for col in columns for i, _a in col]
    # HiGHS converts the int coefficients to doubles itself
    model.a_matrix_.value_ = [a for col in columns for _i, a in col]
    inf = highs.kHighsInf
    # int / int is correctly rounded, so k / scale is the float of the
    # rational cost whatever its scale
    cost = [0.0] * num_vars
    scale = lp.cost_scale
    for j, k in lp.objective.items():
        cost[j] = k / scale
    model.col_cost_ = cost
    model.col_lower_ = [0.0] * num_vars
    model.col_upper_ = [inf] * num_vars
    upper = [float(b) for b in lp.eq_rows + lp.ub_rows]
    model.row_lower_ = upper[: len(lp.eq_rows)] + [-inf] * len(lp.ub_rows)
    model.row_upper_ = upper
    return model


def highs_solver():
    """A HiGHS instance as every solve here runs it: silent, and without
    presolve, which finds nothing left to strip in the density LPs
    `density_lp.build_lp` makes."""
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("presolve", "off")
    return solver


# the one solver every LP runs in; `solve_highs` clears its model after each
# LP and keeps its options (`clear()` would reset them)
_SOLVER = highs_solver()


def solve_highs(lp: LinearProgram) -> tuple:
    """((basic columns, tight rows), (column values, row duals)) of HiGHS's
    optimal solution for `highs_model(lp)`; both index lists ascend, and the
    values are floats."""
    try:
        _SOLVER.passModel(highs_model(lp))
        _SOLVER.run()
        status = _SOLVER.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            raise InternalInvariantError(f"LP solve failed: {_SOLVER.modelStatusToString(status)}")
        # one basic variable per row: column j as j, row i as -1 - i
        status, basic_vars = _SOLVER.getBasicVariables()
        if status != highs.HighsStatus.kOk:
            raise InternalInvariantError("HiGHS reports no basis for its optimal solution")
        solution = _SOLVER.getSolution()
    finally:
        # getBasicVariables and getSolution return copies.  Freeing HiGHS's
        # model and factorization before any Python list is built keeps the
        # benchmark's peak RSS on pcs-int flat, and an LP that raises leaves
        # nothing behind for the next one.
        _SOLVER.clearModel()
    tight = numpy.ones(len(lp.eq_rows) + len(lp.ub_rows), dtype=bool)
    tight[-1 - basic_vars[basic_vars < 0]] = False
    return (
        (
            numpy.sort(basic_vars[basic_vars >= 0]).tolist(),
            numpy.flatnonzero(tight).tolist(),
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
            return _solution(lp, *_certify(lp, basis, primal, dual))
        except InternalInvariantError as exc:
            failed = str(exc)
    log.debug(
        "LP with %d rows and %d columns: %s; solving the basis by elimination",
        len(lp.eq_rows) + len(lp.ub_rows),
        lp.num_vars,
        failed,
    )
    primal, dual = _eliminate(lp, basic, tight)
    return _solution(lp, *_certify(lp, basis, primal, dual))


def _reconstruct(v: float) -> tuple:
    """The rational a float solution value stands for, as (numerator,
    denominator): the nearest integer within 1e-9, else the best
    approximation with denominator at most RECONSTRUCT_LIMIT, the one
    `Fraction(v).limit_denominator(RECONSTRUCT_LIMIT)` finds (a continued-
    fraction convergent or semiconvergent of v's exact binary value, the
    one nearer v; on a tie the convergent), computed in ints."""
    r = round(v)
    if abs(v - r) <= 1e-9:
        return r, 1
    num, den = v.as_integer_ratio()
    if den <= RECONSTRUCT_LIMIT:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > RECONSTRUCT_LIMIT:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (RECONSTRUCT_LIMIT - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - v| <= |p2/q2 - v|, both sides times q1 * q2 * den
    if abs(p1 * den - num * q1) * q2 <= abs(p2 * den - num * q2) * q1:
        return p1, q1
    return p2, q2


def _solution(lp: LinearProgram, x: dict, scale: int) -> LpSolution:
    """The LpSolution of a certified primal, `x` its nonzero values as ints
    over `scale`."""
    values = [0] * lp.num_vars
    cost = 0
    for j, v in x.items():
        values[j] = v
        if j in lp.objective:
            cost += lp.objective[j] * v
    return LpSolution(values=values, denominator=scale, cost=cost, cost_scale=lp.cost_scale)


def _certify(lp: LinearProgram, basis: tuple, primal: dict, dual: dict) -> tuple:
    """(x, D): the primal scaled by the lcm D of its denominators, as ints,
    its nonzero columns only.  Raise InternalInvariantError unless `primal`
    (basic column -> value, every other column 0) and `dual` (tight row ->
    value, every other row 0) prove each other optimal.

    Values are (numerator, denominator) int pairs, denominators positive.
    The reduced costs are scaled by the cost scale times the lcm of the dual
    denominators, so with the int constraint coefficients and the int
    objective every sum below is over integers.  Row activities come from
    scattering the nonzero basic columns, reduced costs from the cost vector
    less the entries of the rows with a nonzero dual.  A pass means primal
    feasibility, dual feasibility and complementary slackness: the primal
    is nonzero only on basic columns, whose reduced costs are 0, and the
    dual only on tight rows, which hold with equality.
    """
    basic, tight = basis
    num_eq = len(lp.eq_rows)
    bounds = lp.eq_rows + lp.ub_rows
    scale = math.lcm(*(d for _n, d in primal.values()))
    x = {j: n * (scale // d) for j, (n, d) in primal.items() if n}
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
    dscale = math.lcm(*(d for _n, d in dual.values()))
    # the true reduced cost objective[j] / L - a . dual, times L * dscale
    yscale = dscale * lp.cost_scale
    y = {i: n * (yscale // d) for i, (n, d) in dual.items() if n}
    if any(v > 0 for i, v in y.items() if i >= num_eq):
        raise InternalInvariantError("LP solution has a positive dual on a <= row")
    cost = {j: c * dscale for j, c in lp.objective.items()}
    reduced = _reduced_costs(lp, cost, y)
    if min(reduced, default=0) < 0:
        raise InternalInvariantError("LP solution has a negative reduced cost")
    if any(reduced[j] for j in basic):
        raise InternalInvariantError("LP solution has a nonzero reduced cost on a basic column")
    return x, scale


def _reduced_costs(lp: LinearProgram, cost: dict, y: dict) -> list:
    """cost[j] - (column j) . y for every column j, where `cost` and `y` map
    columns and rows to their nonzero values: the cost vector, then only
    the entries of the rows in `y` subtracted."""
    reduced = [0] * lp.num_vars
    for j, c in cost.items():
        reduced[j] = c
    for j, column in enumerate(lp.columns):
        for i, a in column:
            if i in y:
                reduced[j] -= a * y[i]
    return reduced


def _eliminate(lp: LinearProgram, basic: list, tight: list) -> tuple:
    """(primal, dual) at the basis, each value a (numerator, denominator)
    pair: B x = b over the tight rows and B^T y = c over the basic columns,
    solved in Fractions (an int / int quotient would be a float)."""
    rhs = lp.eq_rows + lp.ub_rows
    coef = {i: {} for i in tight}  # the basis matrix B, row-wise
    for j in basic:
        for i, a in lp.columns[j]:
            if i in coef:
                coef[i][j] = Fraction(a)
    primal = _solve_square([coef[i] for i in tight], [Fraction(rhs[i]) for i in tight], basic)
    dual = _solve_square(
        [{i: Fraction(a) for i, a in lp.columns[j] if i in coef} for j in basic],
        [Fraction(lp.objective.get(j, 0), lp.cost_scale) for j in basic],
        tight,
    )
    return (
        {j: v.as_integer_ratio() for j, v in primal.items()},
        {i: v.as_integer_ratio() for i, v in dual.items()},
    )


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
