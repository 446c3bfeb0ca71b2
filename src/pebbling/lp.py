"""Fraction-free integer simplex with an exact dual certificate.

Maximizes c.x subject to Ax <= b, x >= 0 with b >= 0, so the slack basis is
feasible from the start and no phase-one is needed.  make_linear_program
scales each row and its right-hand side to integers once, by the LCM of
their denominators, so for fractional input constraints holds the scaled
rows and the dual has one multiplier per scaled row.

The tableau is condensed (the dictionary form; Chvatal, Linear Programming,
1983): one row per constraint over the nonbasic columns and the rhs, plus
the cost row, with one variable label per column and per row.  It is
pivoted fraction-free (Bareiss/Edmonds): the true tableau is the integer
one divided by a running divisor D, the previous pivot, and every division
in a pivot is exact.  A pivot on (r, s) with p = T[r][s] turns every other
row i, the cost row included, into (p*T[i][j] - T[i][s]*T[r][j]) / D for
j != s and -T[i][s] in column s; the pivot row keeps its entries except
T[r][s], which becomes D; then D = p and the two variables swap labels.
The full tableau's basic columns are D times unit vectors, so leaving them
out changes no entry.

Pivot rule: greatest improvement.  Each column with a positive reduced
cost takes its leaving row from Bland's ratio test (least rhs/a over a > 0,
ties to the smallest basic variable); the column whose step raises the
objective most, cost * rhs / a, enters, ties to the smallest variable.  It
cannot cycle.  A cycle keeps the objective constant, so all its pivots are
degenerate; a degenerate pivot was the best step, so every step then gains
0 and the tie rule picks the least improving variable, which is Bland's
choice.  A cycle would thus consist of Bland pivots only, and Bland's rule
never cycles.  Row scaling leaves the pivot sequence unchanged.

An optimal solution carries the dual multipliers read off the cost entries
of the nonbasic slack columns (a basic slack's multiplier is 0).
check_certificate verifies, in integers and without trusting the pivoting,
that they prove the value optimal: y >= 0, y.A >= c column by column,
y.b = c.x, and the point is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul


class CertificateError(ValueError):
    """An LP solution whose primal point or dual multipliers fail the exact check."""


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[int, ...], int], ...]  # integer rows and rhs


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" or "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None
    pivot_count: int
    dual: tuple[Fraction, ...] | None = None  # one multiplier per stored row


def make_linear_program(objective, constraints) -> LinearProgram:
    """Validate shapes and signs; scale each row and its rhs to integers.

    A row of ints, rhs included, is stored as given.
    """
    obj = tuple(Fraction(c) for c in objective)
    rows = []
    for i, (coeffs, given) in enumerate(constraints):
        row = tuple(coeffs)
        if type(given) is int and all(type(c) is int for c in row):
            rhs = given
        else:
            values = [c if isinstance(c, int) else Fraction(c) for c in (*row, given)]
            *row, rhs = _integer_row(values)[0]
            row = tuple(row)
        if len(row) != len(obj):
            raise ValueError(f"constraint {i} has {len(row)} coefficients, expected {len(obj)}")
        if rhs < 0:
            raise ValueError(f"constraint {i} has negative right-hand side {Fraction(given)}")
        rows.append((row, rhs))
    return LinearProgram(len(obj), obj, tuple(rows))


def fraction_text(x: Fraction) -> str:
    """The "p/q" form the JSON outputs use for exact values."""
    return f"{x.numerator}/{x.denominator}"


def _integer_row(values) -> tuple[list[int], int]:
    """The ints or Fractions times the LCM of their denominators, and that LCM."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def solve_max(lp: LinearProgram, on_pivot=None) -> LpSolution:
    """Primal simplex on a condensed integer tableau; exact arithmetic throughout.

    on_pivot, when given, is called after each pivot with the pivot count,
    the entering variable, the leaving row and the objective value so far.
    """
    n = lp.num_vars
    m = len(lp.constraints)
    # rows[i] = integer coefficients over the nonbasic variables, then the
    # rhs; the true tableau is every entry divided by the running divisor
    rows = [[*coeffs, rhs] for coeffs, rhs in lp.constraints]
    objective, obj_scale = _integer_row(lp.objective)
    cost = objective + [0]  # reduced costs, then minus the value
    nonbasic = list(range(n))  # the variable of each column
    basis = list(range(n, n + m))  # the variable of each row
    divisor = 1
    pivots = 0
    while True:
        column = leaving = None
        for j in range(n):
            c = cost[j]
            if c <= 0:
                continue
            r = _ratio_test(rows, basis, j)
            if r is None:
                return LpSolution("unbounded", None, None, pivots)
            if column is not None:
                # gain c * rhs / a against the best one's, cross-multiplied
                gain = c * rows[r][-1] * rows[leaving][column]
                best = cost[column] * rows[leaving][-1] * rows[r][j]
                if gain < best or (gain == best and nonbasic[j] > nonbasic[column]):
                    continue
            column, leaving = j, r
        if column is None:
            break
        entering = nonbasic[column]
        divisor = _pivot(rows, cost, leaving, column, divisor)
        nonbasic[column], basis[leaving] = basis[leaving], entering
        pivots += 1
        if on_pivot is not None:
            on_pivot(pivots, entering, leaving, Fraction(-cost[-1], divisor * obj_scale))
    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(rows[i][-1], divisor)
    # a nonbasic slack's reduced cost is minus its row's multiplier, and a
    # basic slack's multiplier is 0
    dual = [Fraction(0)] * m
    for j, v in enumerate(nonbasic):
        if v >= n:
            dual[v - n] = Fraction(-cost[j], divisor * obj_scale)
    return LpSolution("optimal", Fraction(-cost[-1], divisor * obj_scale),
                      tuple(point), pivots, tuple(dual))


def _ratio_test(rows, basis, column) -> int | None:
    """Bland's leaving row: least rhs/a over a > 0, ties to the smallest basic index."""
    leaving = None
    for i, row in enumerate(rows):
        a = row[column]
        if a > 0:
            if leaving is None:
                leaving = i
                continue
            # ratio rhs/a against the best one's, cross-multiplied
            ratio = row[-1] * rows[leaving][column]
            best = rows[leaving][-1] * a
            if ratio < best or (ratio == best and basis[i] < basis[leaving]):
                leaving = i
    return leaving


def _pivot(rows, cost, leaving, column, divisor) -> int:
    """Condensed fraction-free pivot on rows[leaving][column]; the new divisor.

    Every other row, the cost row included, becomes
    (p * row - row[column] * pivot_row) / divisor, an exact division, except
    that its column entry becomes -row[column]; the pivot row keeps its
    entries except the column one, which becomes the old divisor.
    """
    pivot_row = rows[leaving]
    p = pivot_row[column]
    for i, row in enumerate(rows):
        if i != leaving:
            rows[i] = _eliminate(row, pivot_row, p, column, divisor)
    cost[:] = _eliminate(cost, pivot_row, p, column, divisor)
    pivot_row[column] = divisor
    return p


def _eliminate(row, pivot_row, pivot, column, divisor):
    """(pivot * row - row[column] * pivot_row) / divisor, with -row[column] in the column."""
    factor = row[column]
    new = [(pivot * x - factor * y) // divisor for x, y in zip(row, pivot_row)]
    new[column] = -factor
    return new


def check_certificate(lp: LinearProgram, solution: LpSolution) -> None:
    """Prove an optimal solution exactly, independently of how it was found.

    Checks that the point is feasible, that its objective equals the value,
    and that the dual multipliers y satisfy y >= 0, y.A >= c column by
    column and y.b = value: weak duality then bounds every feasible point's
    objective by the value.  The stored rows are integers and the point and
    dual are scaled to integers here, so the sums are integer arithmetic.
    Raises CertificateError on any failure.
    """
    if solution.status != "optimal":
        raise CertificateError(f"no certificate for a {solution.status} solution")
    n, m = lp.num_vars, len(lp.constraints)
    z, x, y = solution.value, solution.point, solution.dual
    if x is None or len(x) != n:
        raise CertificateError(f"point has {0 if x is None else len(x)} entries, expected {n}")
    if y is None or len(y) != m:
        raise CertificateError(f"dual has {0 if y is None else len(y)} entries, expected {m}")
    if any(v < 0 for v in x):
        raise CertificateError("point has a negative coordinate")
    if any(v < 0 for v in y):
        raise CertificateError("dual has a negative multiplier")
    # x = xs / x_den and y = ys / y_den, in integers
    xs, x_den = _integer_row(x)
    ys, y_den = _integer_row(y)
    for i, (row, b) in enumerate(lp.constraints):
        if sum(map(mul, row, xs)) > b * x_den:
            raise CertificateError(f"point violates constraint {i}")
    objective, obj_scale = _integer_row(lp.objective)
    if sum(map(mul, objective, xs)) * z.denominator != z.numerator * x_den * obj_scale:
        raise CertificateError(f"point's objective is not the value {z}")
    used = [(u, row, b) for u, (row, b) in zip(ys, lp.constraints) if u]  # zeros add nothing
    for j, c in enumerate(lp.objective):
        column = sum(u * row[j] for u, row, _ in used)
        if column * c.denominator < c.numerator * y_den:
            raise CertificateError(f"dual falls short of the objective in column {j}")
    if sum(u * b for u, _, b in used) * z.denominator != z.numerator * y_den:
        raise CertificateError(f"dual objective is not the value {z}")
