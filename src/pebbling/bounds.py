"""Upper bounds on pebbling numbers from covering strategy sets.

Summing every strategy's constraint shows an unsolvable configuration holds
fewer than (total unit weight) / (minimum coverage) pebbles, so the floor of
that ratio plus one bounds the rooted pebbling number.  The LP relaxation
optimizes the same constraints exactly and is never looser; every LP value
reported here has passed the exact dual-certificate check in certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .graph import Graph, check_vertex, root_orbits
from .lp import (LinearProgram, LpSolution, check_certificate, fraction_text,
                 make_linear_program, solve_max)
from .strategy import (DEFAULT_GENERATION_METHOD, CoverageError, Strategy, StrategyError,
                       StrategySet, check_generation_options, coverage, generate_strategies,
                       unit_weight, validate_strategy)


@dataclass(frozen=True, slots=True)  # compact: bound_graph returns one per root
class BoundReport:
    root: int
    min_coverage: int
    total_unit_weight: int
    ratio_bound: int
    lp_value: Fraction | None = None
    lp_bound: int | None = None
    lp_dual: tuple[Fraction, ...] | None = None  # one multiplier per strategy

    def to_json_dict(self) -> dict:
        payload = {
            "root": self.root,
            "kappa": self.min_coverage,
            "chi": self.total_unit_weight,
            "ratio_bound": self.ratio_bound,
        }
        if self.lp_value is not None:
            payload["lp_value"] = fraction_text(self.lp_value)
            payload["lp_bound"] = self.lp_bound
            payload["dual"] = [fraction_text(y) for y in self.lp_dual]
        return payload


@dataclass(frozen=True)
class GraphBounds:
    per_root: dict[int, BoundReport]
    failures: dict[int, str]
    overall_bound: int | None

    def to_json_dict(self, g: Graph) -> dict:
        return {
            "graph": {"n": g.n, "m": g.num_edges},
            "per_root": [self.per_root[r].to_json_dict() for r in sorted(self.per_root)],
            "failures": {str(r): msg for r, msg in sorted(self.failures.items())},
            "overall_bound": self.overall_bound,
        }


def min_coverage(g: Graph, ss: StrategySet) -> int:
    """Least summed strategy weight over the vertices other than ss.root.

    Every vertex must be reached by some strategy; otherwise the aggregation
    says nothing about configurations concentrated on the uncovered vertex.
    """
    cover = coverage(g.n, ss.root, ss.strategies)
    return min(cover[v] for v in range(g.n) if v != ss.root)


def total_unit_weight(ss: StrategySet) -> int:
    return sum(unit_weight(s) for s in ss.strategies)


def aggregate_bound(coverage: int, total: int) -> int:
    """floor(total / coverage) + 1; the arithmetic core of the ratio bound."""
    if coverage <= 0:
        raise ValueError(f"coverage must be positive, got {coverage}")
    return total // coverage + 1


def ratio_report(g: Graph, ss: StrategySet) -> BoundReport:
    """The report at ss.root without LP fields: coverage, total weight, ratio bound."""
    check_vertex(g, ss.root)
    kappa = min_coverage(g, ss)
    chi = total_unit_weight(ss)
    return BoundReport(ss.root, kappa, chi, aggregate_bound(kappa, chi))


def build_relaxation(g: Graph, ss: StrategySet) -> LinearProgram:
    """LP whose optimum bounds every unsolvable configuration's size at ss.root.

    One variable per non-root vertex in ascending order, objective all ones,
    and one constraint per strategy: the weighted count of a configuration
    may not exceed the strategy's unit weight.
    """
    check_vertex(g, ss.root)
    variables = [v for v in range(g.n) if v != ss.root]
    position = {v: i for i, v in enumerate(variables)}
    constraints = []
    for s in ss.strategies:
        row = [0] * len(variables)
        for v, w in s.weight.items():
            row[position[v]] = w
        constraints.append((row, unit_weight(s)))
    return make_linear_program([1] * len(variables), constraints)


def certify(g: Graph, ss: StrategySet, solution: LpSolution | None = None,
            on_pivot=None) -> tuple[BoundReport, LpSolution]:
    """The ratio report at ss.root with its LP fields, and the optimum behind them.

    Builds the relaxation of ss and solves it (on_pivot goes to solve_max)
    unless an optimum found elsewhere is given, then checks the optimum's
    dual certificate against it: CertificateError if that fails.  An
    uncovering set raises CoverageError first, so the LP is never unbounded.
    """
    report = ratio_report(g, ss)
    lp = build_relaxation(g, ss)
    if solution is None:
        solution = solve_max(lp, on_pivot)
    check_certificate(lp, solution)
    z = solution.value
    return replace(report, lp_value=z, lp_bound=math.floor(z) + 1,
                   lp_dual=solution.dual), solution


def lp_bound(g: Graph, ss: StrategySet) -> BoundReport:
    """The ratio report extended with the certified LP optimum, floored + 1."""
    return certify(g, ss)[0]


def _mapped_strategies(g: Graph, ss: StrategySet, sigma) -> StrategySet:
    """The strategy set carried along the vertex map sigma, every strategy validated."""
    mapped = []
    for i, s in enumerate(ss.strategies):
        image = Strategy(sigma[s.root], {sigma[v]: sigma[p] for v, p in s.parent.items()},
                         {sigma[v]: w for v, w in s.weight.items()})
        try:
            validate_strategy(g, image)
        except StrategyError as exc:
            raise StrategyError(f"strategy {i} mapped from root {ss.root}: {exc}") from exc
        mapped.append(image)
    return StrategySet(sigma[ss.root], tuple(mapped))


def _mapped_solution(n: int, rep: int, root: int, solution: LpSolution, sigma) -> LpSolution:
    """The representative's optimum in the member root's variables; the dual is unchanged.

    The relaxation's variables are the non-root vertices in ascending
    order, so the point is re-indexed through sigma, while the strategies,
    and with them the dual's multipliers, keep their order.
    """
    at = {sigma[v]: x for v, x in zip((v for v in range(n) if v != rep), solution.point)}
    return replace(solution, point=tuple(at[u] for u in range(n) if u != root))


def _mapped_error(exc: ValueError, sigma) -> str:
    """The representative's failure as it reads at the member root: uncovered vertices mapped."""
    if isinstance(exc, CoverageError):
        return str(CoverageError(sorted(sigma[v] for v in exc.vertices)))
    return str(exc)


def bound_graph(g: Graph, method: str = "lp", *, gen: str = DEFAULT_GENERATION_METHOD,
                maxlen: int | None = None, budget: int | None = None,
                threads: int = 1) -> GraphBounds:
    """Bound the pebbling number of the whole graph: one report per root.

    Roots are grouped into automorphism orbits.  For each orbit, strategies
    are generated and the LP solved at its least root only, then carried to
    the other roots, where every mapped strategy is validated and the mapped
    optimum passes its certificate against that root's own relaxation.  On
    a vertex-transitive graph one LP is solved and every other root is
    certificate-checked.  Every root of an orbit thus reports the least
    root's strategy set, mapped; greedy-search breaks ties by vertex number,
    so generating at that root itself (as lp_bound on
    generate_strategies(g, root, gen) does) may give another, equally sound,
    bound.  If the least root fails, its whole orbit fails with the same
    error, a CoverageError's vertices mapped to each member root.

    The overall bound is the maximum over roots of the tightest per-root
    bound; it is only reported when every root produced one.  Raises
    ValueError for an unknown method, StrategyError for generation options
    that check_generation_options rejects, and GraphError for a disconnected
    graph, each once before any root is bounded.  All work runs in the
    calling process: threads is accepted and ignored.
    """
    if method not in ("ratio", "lp"):
        raise ValueError(f"unknown bound method {method!r}")
    check_generation_options(gen, maxlen, budget)
    per_root: dict[int, BoundReport] = {}
    failures: dict[int, str] = {}
    for orbit in root_orbits(g):
        rep = orbit.rep
        try:
            ss = generate_strategies(g, rep, gen, maxlen=maxlen, budget=budget)
            if method == "lp":
                report, solution = certify(g, ss)
            else:
                report, solution = ratio_report(g, ss), None
        except ValueError as exc:
            failures[rep] = str(exc)
            failures.update((root, _mapped_error(exc, sigma)) for root, sigma in orbit.members)
            continue
        per_root[rep] = report
        for root, sigma in orbit.members:
            try:
                mapped = _mapped_strategies(g, ss, sigma)
                per_root[root] = ratio_report(g, mapped) if solution is None else \
                    certify(g, mapped, _mapped_solution(g.n, rep, root, solution, sigma))[0]
            except ValueError as exc:
                failures[root] = str(exc)
    overall = None
    if not failures and per_root:
        overall = max(r.lp_bound if r.lp_bound is not None else r.ratio_bound
                      for r in per_root.values())
    return GraphBounds(dict(sorted(per_root.items())), dict(sorted(failures.items())), overall)
