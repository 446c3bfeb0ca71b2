"""Dense tableau simplex over exact rationals, plus the strategy relaxation.

Maximizes c.x subject to Ax <= b, x >= 0 with b >= 0, so the slack basis is
feasible from the start and no phase-one is needed.  Bland's smallest-index
rule picks both the entering and leaving variables, which rules out cycling
and makes the pivot sequence reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphError
from .strategy import StrategySet, unit_weight


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" or "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None
    pivot_count: int


def make_linear_program(objective, constraints) -> LinearProgram:
    """Normalize coefficients to Fractions and validate shapes and signs."""
    obj = tuple(Fraction(c) for c in objective)
    rows = []
    for i, (coeffs, rhs) in enumerate(constraints):
        row = tuple(Fraction(c) for c in coeffs)
        if len(row) != len(obj):
            raise ValueError(f"constraint {i} has {len(row)} coefficients, expected {len(obj)}")
        rhs = Fraction(rhs)
        if rhs < 0:
            raise ValueError(f"constraint {i} has negative right-hand side {rhs}")
        rows.append((row, rhs))
    return LinearProgram(len(obj), obj, tuple(rows))


def solve_max(lp: LinearProgram, on_pivot=None) -> LpSolution:
    """Primal simplex; exact arithmetic throughout.

    on_pivot, when given, is called after each pivot with the pivot count,
    the entering variable, the leaving row and the objective value so far.
    """
    n = lp.num_vars
    m = len(lp.constraints)
    # rows[i] = coefficients over structurals + slacks, then the rhs
    rows = []
    for i, (coeffs, rhs) in enumerate(lp.constraints):
        slack = [Fraction(0)] * m
        slack[i] = Fraction(1)
        rows.append(list(coeffs) + slack + [rhs])
    cost = list(lp.objective) + [Fraction(0)] * (m + 1)  # reduced costs, then value
    basis = list(range(n, n + m))
    pivots = 0
    while True:
        entering = next((j for j in range(n + m) if cost[j] > 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return LpSolution("unbounded", None, None, pivots)
        pivot = rows[leaving][entering]
        rows[leaving] = [x / pivot for x in rows[leaving]]
        for i in range(m):
            if i != leaving and rows[i][entering] != 0:
                factor = rows[i][entering]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[leaving])]
        factor = cost[entering]
        cost = [x - factor * y for x, y in zip(cost, rows[leaving])]
        basis[leaving] = entering
        pivots += 1
        if on_pivot is not None:
            on_pivot(pivots, entering, leaving, -cost[-1])
    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = rows[i][-1]
    return LpSolution("optimal", -cost[-1], tuple(point), pivots)


def build_relaxation(g: Graph, root: int, ss: StrategySet) -> LinearProgram:
    """LP whose optimum bounds every unsolvable configuration's size.

    One variable per non-root vertex in ascending order, objective all ones,
    and one constraint per strategy: the weighted count of a configuration
    may not exceed the strategy's unit weight.
    """
    if ss.root != root:
        raise GraphError(f"strategy set rooted at {ss.root} does not match root {root}")
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} outside 0..{g.n - 1}")
    variables = [v for v in range(g.n) if v != root]
    position = {v: i for i, v in enumerate(variables)}
    objective = [Fraction(1)] * len(variables)
    constraints = []
    for s in ss.strategies:
        row = [Fraction(0)] * len(variables)
        for v, w in s.weight.items():
            row[position[v]] = Fraction(w)
        constraints.append((row, Fraction(unit_weight(s))))
    return make_linear_program(objective, constraints)
