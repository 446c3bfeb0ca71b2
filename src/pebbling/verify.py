"""Self-verification: recompute the classical values this package reproduces.

Each check recomputes a published pebbling fact from scratch (exact solver,
strategy search, LP bounds, tree formula) and compares against the frozen
expected value.  The registry drives both the `verify` CLI verb and the
acceptance test suite; checks tagged slow only run at the full level.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations, product
from typing import Callable

from . import bounds, families, treepi
from .graph import Graph
from .lp import CertificateError, LinearProgram, check_certificate, make_linear_program, solve_max
from .solver import is_solvable, pebbling_number, pebbling_number_max
from .strategy import (
    GENERATION_METHODS,
    generate_strategies,
    max_unsolvable_weight_check,
    strategy_set_from_json,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    elapsed: float


@dataclass(frozen=True)
class Check:
    name: str
    slow: bool
    run: Callable[[], tuple[bool, str]]


# ---------------------------------------------------------------------------
# shared fixtures

def star_tree() -> Graph:
    """Star with three leaves."""
    return families.tree_from_parents([-1, 0, 0, 0])


def binary_tree_7() -> Graph:
    """Complete binary tree on 7 vertices."""
    return families.tree_from_parents([-1, 0, 0, 1, 1, 2, 2])


def sweep_catalog() -> list[tuple[str, Graph]]:
    """Small graphs with exactly computable pebbling numbers."""
    entries = []
    for n in range(2, 6):
        entries.append((f"path({n})", families.path(n)))
    for n in range(3, 7):
        entries.append((f"cycle({n})", families.cycle(n)))
    for n in range(2, 6):
        entries.append((f"complete({n})", families.complete(n)))
    entries.append(("star-3", star_tree()))
    entries.append(("binary-7", binary_tree_7()))
    entries.append(("hypercube(2)", families.hypercube(2)))
    entries.append(("hypercube(3)", families.hypercube(3)))
    return entries


_pi_cache: dict[tuple[str, int], int] = {}


def _pi(name: str, g: Graph, root: int) -> int:
    key = (name, root)
    if key not in _pi_cache:
        _pi_cache[key] = pebbling_number(g, root).value
    return _pi_cache[key]


# ---------------------------------------------------------------------------
# LP enumeration oracle

def _solve_square(rows, rhs):
    """Exact solution of a square linear system, or None if singular."""
    k = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = mat[col][col]
        mat[col] = [x / inv for x in mat[col]]
        for r in range(k):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][k] for r in range(k)]


def basic_feasible_maximum(lp: LinearProgram) -> Fraction | None:
    """Best objective value over all basic feasible points, by enumeration.

    Intersects every choice of num_vars hyperplanes taken from the
    constraints and the coordinate planes, keeps the feasible intersections,
    and maximizes.  Exponential, so only fit for tiny instances; None means
    no feasible basic point exists (never the case when rhs >= 0).
    """
    k = lp.num_vars
    planes = [(row, rhs) for row, rhs in lp.constraints]
    for i in range(k):
        axis = [Fraction(0)] * k
        axis[i] = Fraction(1)
        planes.append((axis, Fraction(0)))
    best: Fraction | None = None
    for chosen in combinations(planes, k):
        point = _solve_square([row for row, _ in chosen], [rhs for _, rhs in chosen])
        if point is None:
            continue
        if any(x < 0 for x in point):
            continue
        if any(sum(c * x for c, x in zip(row, point)) > rhs
               for row, rhs in lp.constraints):
            continue
        value = sum(c * x for c, x in zip(lp.objective, point))
        if best is None or value > best:
            best = value
    return best


# ---------------------------------------------------------------------------
# rooted-tree sweep helpers

def rooted_shape(g: Graph, root: int):
    """Canonical form of a rooted tree: sorted tuple of child shapes."""
    def canon(u, parent):
        return tuple(sorted(canon(v, u) for v in g.adj[u] if v != parent))
    return canon(root, -1)


def labeled_trees(n: int):
    """Every labeled tree on vertices 0..n-1 as a parent array rooted at 0."""
    for parents in product(*[range(i) for i in range(1, n)]):
        yield [-1, *parents]


# ---------------------------------------------------------------------------
# the checks

def _check_paths():
    for n in range(1, 6):
        g = families.path(n)
        for endpoint in {0, n - 1}:
            got = pebbling_number(g, endpoint).value
            if got != 2 ** (n - 1):
                return False, f"path({n}) root {endpoint}: {got} != {2 ** (n - 1)}"
    return True, "path(1..5) endpoints give 1, 2, 4, 8, 16"


def _check_complete():
    for n in range(2, 6):
        got = pebbling_number_max(families.complete(n)).value
        if got != n:
            return False, f"complete({n}): {got} != {n}"
    return True, "complete(2..5) give 2, 3, 4, 5"


def _check_cycles():
    expected = {3: 3, 4: 4, 5: 5, 6: 8}
    for n, want in expected.items():
        got = pebbling_number_max(families.cycle(n)).value
        if got != want:
            return False, f"cycle({n}): {got} != {want}"
    return True, "cycle(3..6) give 3, 4, 5, 8"


def _check_cycle_7():
    want = 2 * (2 ** 4 // 3) + 1
    got = pebbling_number_max(families.cycle(7)).value
    if got != want:
        return False, f"cycle(7): {got} != {want}"
    return True, f"cycle(7) gives {want}"


def _check_hypercubes():
    for d in (2, 3):
        got = pebbling_number_max(families.hypercube(d)).value
        if got != 2 ** d:
            return False, f"hypercube({d}): {got} != {2 ** d}"
    return True, "hypercube(2), hypercube(3) give 4, 8"


def _check_petersen_exact():
    got = pebbling_number_max(families.petersen()).value
    if got != 10:
        return False, f"petersen: {got} != 10"
    return True, "petersen gives 10"


def _check_petersen_bound():
    g = families.petersen()
    for root in range(g.n):
        report = bounds.ratio_report(g, generate_strategies(g, root, "greedy-search"))
        kappa, chi = report.min_coverage, report.total_unit_weight
        if chi > 9 * kappa:
            return False, f"root {root}: chi/kappa = {chi}/{kappa} > 9"
        if report.ratio_bound != 10:
            return False, f"root {root}: ratio bound != 10"
    return True, "greedy search reaches chi/kappa <= 9, bound 10, on all roots"


def _check_bound_arithmetic():
    data = resources.files("pebbling").joinpath("data/petersen_strategies.json")
    g = families.petersen()
    ss = strategy_set_from_json(json.loads(data.read_text()), g)
    kappa = bounds.min_coverage(g, ss)
    chi = bounds.total_unit_weight(ss)
    if (kappa, chi) != (4, 36):
        return False, f"stored set gives kappa={kappa} chi={chi}, want 4/36"
    if bounds.aggregate_bound(4, 36) != 10:
        return False, "aggregate_bound(4, 36) != 10"
    if bounds.aggregate_bound(6, 395) != 66:
        return False, "aggregate_bound(6, 395) != 66"
    return True, "stored set: kappa 4, chi 36 -> 10; and (6, 395) -> 66"


def _check_bruhat_bound():
    g = families.bruhat(4)
    report = bounds.bound_graph(g, method="lp", gen="greedy-search")
    if report.failures:
        return False, f"coverage failures at roots {sorted(report.failures)}"
    b = report.overall_bound
    if b is None or b > 68:
        return False, f"bound {b} misses the target of 68"
    grade = ("matching the best hand-built strategy sets (66)" if b <= 66
             else "the best hand-built strategy sets reach 66")
    return True, f"bound {b} <= 68 on all 24 roots; {grade}"


def _check_soundness_sweep():
    triples = 0
    for name, g in sweep_catalog():
        for root in range(g.n):
            pi = _pi(name, g, root)
            for method in GENERATION_METHODS:
                ss = generate_strategies(g, root, method)
                report = bounds.lp_bound(g, ss)
                if not pi <= report.lp_bound <= report.ratio_bound:
                    return False, (f"{name} root {root} {method}: pi {pi}, "
                                   f"lp {report.lp_bound}, ratio {report.ratio_bound}")
                triples += 1
    return True, f"pi <= lp_bound <= ratio_bound across {triples} strategy sets"


def _check_weight_oracle():
    strategies = 0
    for name, g in sweep_catalog():
        for root in range(g.n):
            budget = _pi(name, g, root) - 1
            seen = set()
            for method in GENERATION_METHODS:
                for s in generate_strategies(g, root, method).strategies:
                    key = tuple(sorted(s.weight.items()))
                    if key in seen:
                        continue
                    seen.add(key)
                    outcome = max_unsolvable_weight_check(g, root, s, budget)
                    if not outcome.ok:
                        return False, (f"{name} root {root}: unsolvable "
                                       f"{outcome.counterexample} beats the unit weight")
                    strategies += 1
    return True, f"no unsolvable configuration outweighs its strategy ({strategies} checked)"


def _check_tree_formula():
    shape_cache: dict = {}
    pairs = 0
    for n in range(1, 9):
        for arr in labeled_trees(n):
            g = families.tree_from_parents(arr)
            for root in range(n):
                partition = treepi.max_path_partition(g, root)
                formula = partition.pebbling_number
                shape = rooted_shape(g, root)
                if shape not in shape_cache:
                    oracle = pebbling_number(g, root).value
                    crit = partition.critical_config
                    crit_ok = sum(crit) == oracle - 1 and (
                        sum(crit) == 0 or not is_solvable(g, crit, root).solvable)
                    shape_cache[shape] = (oracle, crit_ok)
                oracle, crit_ok = shape_cache[shape]
                if formula != oracle or not crit_ok:
                    return False, (f"tree {arr} root {root}: formula {formula}, "
                                   f"solver {oracle}, witness ok {crit_ok}")
                pairs += 1
    return True, (f"formula matches the solver on {pairs} rooted trees "
                  f"({len(shape_cache)} shapes), witnesses unsolvable")


def _simplex_suite() -> list[LinearProgram]:
    return [
        make_linear_program([1], [([2], 12)]),
        make_linear_program([1, 1], [([2, 1], 3)]),
        make_linear_program([1, 1, 1], [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1)]),
        make_linear_program([1, 2], [([1, 1], 4), ([1, 0], 2)]),
        make_linear_program([1, 1], [([1, 1], 5), ([2, 2], 10)]),
        make_linear_program([3, 2, 4], [([1, 1, 2], 4), ([2, 0, 3], 7), ([0, 4, 1], 6)]),
        make_linear_program([Fraction(1, 2), Fraction(1, 3)],
                            [([Fraction(1, 4), 1], Fraction(3, 2)), ([1, 0], 3)]),
        make_linear_program([2, -1], [([1, 1], 6), ([1, 0], 4)]),
        # Beale's example, which cycles under the largest-cost rule with
        # ties to the smallest row: degenerate at the start, optimum 5/4
        make_linear_program([Fraction(3, 4), -20, Fraction(1, 2), -6],
                            [([Fraction(1, 4), -8, -1, 9], 0),
                             ([Fraction(1, 2), -12, Fraction(-1, 2), 3], 0),
                             ([0, 0, 1, 0], 1)]),
    ]


def _check_simplex_oracle():
    for i, lp in enumerate(_simplex_suite()):
        solution = solve_max(lp)
        want = basic_feasible_maximum(lp)
        if solution.status != "optimal" or solution.value != want:
            return False, f"suite LP {i}: simplex {solution.value}, oracle {want}"
        try:
            check_certificate(lp, solution)
        except CertificateError as exc:
            return False, f"suite LP {i}: {exc}"
    pete = families.petersen()
    try:
        report, _ = bounds.certify(pete, generate_strategies(pete, 0, "greedy-search"))
    except CertificateError as exc:
        return False, f"petersen relaxation: {exc}"
    if report.lp_value != 9:
        return False, f"petersen relaxation optimum {report.lp_value} != 9"
    return True, "simplex equals the basic-feasible-point oracle on the whole suite"


CHECKS: tuple[Check, ...] = (
    Check("paths", False, _check_paths),
    Check("complete-graphs", False, _check_complete),
    Check("cycles", False, _check_cycles),
    Check("cycles-c7", False, _check_cycle_7),
    Check("hypercubes", False, _check_hypercubes),
    Check("petersen-exact", False, _check_petersen_exact),
    Check("petersen-bound", False, _check_petersen_bound),
    Check("bound-arithmetic", False, _check_bound_arithmetic),
    Check("bruhat-bound", True, _check_bruhat_bound),
    Check("soundness-sweep", False, _check_soundness_sweep),
    Check("weight-oracle", True, _check_weight_oracle),
    Check("tree-formula", True, _check_tree_formula),
    Check("simplex-oracle", False, _check_simplex_oracle),
)


def run_check(check: Check) -> CheckResult:
    start = time.perf_counter()
    try:
        ok, detail = check.run()
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(check.name, ok, detail, time.perf_counter() - start)


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run the registry at the given level; full includes the slow tier."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verify level {level!r}")
    return [run_check(c) for c in CHECKS if level == "full" or not c.slow]
