"""Fraction-free integer simplex with an exact dual certificate, plus the
strategy relaxation.

Maximizes c.x subject to Ax <= b, x >= 0 with b >= 0, so the slack basis is
feasible from the start and no phase-one is needed.  make_linear_program
scales each row and its right-hand side to integers once, by the LCM of
their denominators, so for fractional input constraints holds the scaled
rows and the dual has one multiplier per scaled row.  The tableau over
them is pivoted fraction-free (Bareiss/Edmonds): the true tableau is
the integer one divided by a running divisor D, the previous pivot, and
every division in a pivot is exact.  Bland's smallest-index rule picks both
the entering and leaving variables, which rules out cycling and makes the
pivot sequence reproducible; row scaling leaves it unchanged.

An optimal solution carries the dual multipliers read off the final slack
costs.  check_certificate verifies, in integers and without trusting the
pivoting, that they prove the value optimal: y >= 0, y.A >= c column by
column, y.b = c.x, and the point is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphError
from .strategy import StrategySet, unit_weight


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
    """Validate shapes and signs; scale each row and its rhs to integers."""
    obj = tuple(Fraction(c) for c in objective)
    rows = []
    for i, (coeffs, rhs) in enumerate(constraints):
        values = [c if isinstance(c, int) else Fraction(c) for c in (*coeffs, rhs)]
        *row, rhs = _integer_row(values)[0]
        if len(row) != len(obj):
            raise ValueError(f"constraint {i} has {len(row)} coefficients, expected {len(obj)}")
        if rhs < 0:
            raise ValueError(f"constraint {i} has negative right-hand side {values[-1]}")
        rows.append((tuple(row), rhs))
    return LinearProgram(len(obj), obj, tuple(rows))


def fraction_text(x: Fraction) -> str:
    """The "p/q" form the JSON outputs use for exact values."""
    return f"{x.numerator}/{x.denominator}"


def _integer_row(values) -> tuple[list[int], int]:
    """The ints or Fractions times the LCM of their denominators, and that LCM."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def solve_max(lp: LinearProgram, on_pivot=None) -> LpSolution:
    """Primal simplex on an integer tableau; exact arithmetic throughout.

    on_pivot, when given, is called after each pivot with the pivot count,
    the entering variable, the leaving row and the objective value so far.
    """
    n = lp.num_vars
    m = len(lp.constraints)
    # rows[i] = integer coefficients over structurals + slacks, then the rhs;
    # the true tableau is every entry divided by the running divisor
    rows = []
    for i, (coeffs, rhs) in enumerate(lp.constraints):
        slack = [0] * m
        slack[i] = 1
        rows.append([*coeffs, *slack, rhs])
    objective, obj_scale = _integer_row(lp.objective)
    cost = objective + [0] * (m + 1)  # reduced costs, then minus the value
    basis = list(range(n, n + m))
    divisor = 1
    pivots = 0
    while True:
        entering = next((j for j in range(n + m) if cost[j] > 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                # ratio rhs/a against the best one's, cross-multiplied
                ratio = rows[i][-1] * rows[leaving][entering]
                best = rows[leaving][-1] * a
                if ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            return LpSolution("unbounded", None, None, pivots)
        pivot_row = rows[leaving]
        pivot = pivot_row[entering]
        for i in range(m):
            if i != leaving:
                rows[i] = _eliminate(rows[i], pivot_row, pivot, entering, divisor)
        cost = _eliminate(cost, pivot_row, pivot, entering, divisor)
        divisor = pivot
        basis[leaving] = entering
        pivots += 1
        if on_pivot is not None:
            on_pivot(pivots, entering, leaving, Fraction(-cost[-1], divisor * obj_scale))
    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(rows[i][-1], divisor)
    # slack i's reduced cost is minus row i's multiplier
    dual = tuple(Fraction(-cost[n + i], divisor * obj_scale) for i in range(m))
    return LpSolution("optimal", Fraction(-cost[-1], divisor * obj_scale),
                      tuple(point), pivots, dual)


def _eliminate(row, pivot_row, pivot, entering, divisor):
    """(pivot * row - row[entering] * pivot_row) / divisor; the division is exact."""
    factor = row[entering]
    return [(pivot * x - factor * y) // divisor for x, y in zip(row, pivot_row)]


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
        if sum(a * v for a, v in zip(row, xs)) > b * x_den:
            raise CertificateError(f"point violates constraint {i}")
    objective, obj_scale = _integer_row(lp.objective)
    if sum(c * v for c, v in zip(objective, xs)) * z.denominator \
            != z.numerator * x_den * obj_scale:
        raise CertificateError(f"point's objective is not the value {z}")
    for j, c in enumerate(lp.objective):
        column = sum(u * row[j] for u, (row, _) in zip(ys, lp.constraints))
        if column * c.denominator < c.numerator * y_den:
            raise CertificateError(f"dual falls short of the objective in column {j}")
    if sum(u * b for u, (_, b) in zip(ys, lp.constraints)) * z.denominator \
            != z.numerator * y_den:
        raise CertificateError(f"dual objective is not the value {z}")


def build_relaxation(g: Graph, ss: StrategySet) -> LinearProgram:
    """LP whose optimum bounds every unsolvable configuration's size at ss.root.

    One variable per non-root vertex in ascending order, objective all ones,
    and one constraint per strategy: the weighted count of a configuration
    may not exceed the strategy's unit weight.
    """
    if not 0 <= ss.root < g.n:
        raise GraphError(f"root {ss.root} outside 0..{g.n - 1}")
    variables = [v for v in range(g.n) if v != ss.root]
    position = {v: i for i, v in enumerate(variables)}
    objective = [1] * len(variables)
    constraints = []
    for s in ss.strategies:
        row = [0] * len(variables)
        for v, w in s.weight.items():
            row[position[v]] = w
        constraints.append((row, unit_weight(s)))
    return make_linear_program(objective, constraints)
