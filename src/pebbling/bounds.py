"""Upper bounds on pebbling numbers from covering strategy sets.

Summing every strategy's constraint shows an unsolvable configuration holds
fewer than (total unit weight) / (minimum coverage) pebbles, so the floor of
that ratio plus one bounds the rooted pebbling number.  The LP relaxation
optimizes the same constraints exactly and is never looser; every LP value
reported here has passed the exact dual-certificate check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .graph import Graph
from .lp import build_relaxation, check_certificate, fraction_text, solve_max
from .solver import map_roots
from .strategy import StrategySet, coverage, generate_strategies, unit_weight


@dataclass(frozen=True)
class BoundReport:
    root: int
    min_coverage: int
    total_unit_weight: int
    ratio_bound: int
    strategy_count: int
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


def min_coverage(g: Graph, root: int, ss: StrategySet) -> int:
    """Least summed strategy weight over the non-root vertices.

    Every vertex must be reached by some strategy; otherwise the aggregation
    says nothing about configurations concentrated on the uncovered vertex.
    """
    if ss.root != root:
        raise ValueError(f"strategy set rooted at {ss.root} does not match root {root}")
    cover = coverage(g.n, root, ss.strategies)
    return min(cover[v] for v in range(g.n) if v != root)


def total_unit_weight(ss: StrategySet) -> int:
    return sum(unit_weight(s) for s in ss.strategies)


def aggregate_bound(coverage: int, total: int) -> int:
    """floor(total / coverage) + 1; the arithmetic core of the ratio bound."""
    if coverage <= 0:
        raise ValueError(f"coverage must be positive, got {coverage}")
    return total // coverage + 1


def ratio_report(g: Graph, root: int, ss: StrategySet) -> BoundReport:
    """One root's report without LP fields: coverage, total weight, ratio bound."""
    kappa = min_coverage(g, root, ss)
    chi = total_unit_weight(ss)
    return BoundReport(root, kappa, chi, aggregate_bound(kappa, chi), len(ss.strategies))


def ratio_bound(g: Graph, root: int, ss: StrategySet) -> int:
    return ratio_report(g, root, ss).ratio_bound


def lp_bound(g: Graph, root: int, ss: StrategySet) -> BoundReport:
    """The ratio report extended with the exact LP optimum, floored + 1.

    The optimum's dual certificate is checked before it is reported, and a
    failed check raises CertificateError.  Covering sets give every column a
    positive entry, so the relaxation is never unbounded; the check would
    reject an unbounded result too.
    """
    report = ratio_report(g, root, ss)
    lp = build_relaxation(g, root, ss)
    solution = solve_max(lp)
    check_certificate(lp, solution)
    z = solution.value
    return replace(report, lp_value=z, lp_bound=math.floor(z) + 1, lp_dual=solution.dual)


def _bound_one_root(g, method, gen, maxlen, budget, seed, root):
    try:
        ss = generate_strategies(g, root, gen, maxlen=maxlen, budget=budget, seed=seed)
        report = lp_bound(g, root, ss) if method == "lp" else ratio_report(g, root, ss)
        return root, report, None
    except ValueError as exc:
        return root, None, str(exc)


def bound_graph(g: Graph, method: str = "lp", *, gen: str = "greedy-search",
                maxlen: int | None = None, budget: int | None = None,
                seed: int = 0, threads: int = 1) -> GraphBounds:
    """Bound the pebbling number of the whole graph: one report per root.

    The overall bound is the maximum over roots of the tightest per-root
    bound; it is only reported when every root produced one.
    """
    if method not in ("ratio", "lp"):
        raise ValueError(f"unknown bound method {method!r}")
    bound_root = functools.partial(_bound_one_root, g, method, gen, maxlen, budget, seed)
    outcomes = map_roots(bound_root, range(g.n), threads)
    per_root: dict[int, BoundReport] = {}
    failures: dict[int, str] = {}
    for root, report, error in outcomes:
        if report is None:
            failures[root] = error
        else:
            per_root[root] = report
    overall = None
    if not failures and per_root:
        overall = max(r.lp_bound if r.lp_bound is not None else r.ratio_bound
                      for r in per_root.values())
    return GraphBounds(per_root, failures, overall)
