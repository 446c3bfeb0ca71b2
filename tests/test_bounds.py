"""Ratio and LP bounds built from covering strategy sets."""

import json
import re
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest

from conftest import small_catalog
from pebbling import families, graph
from pebbling.bounds import (BoundReport, aggregate_bound, bound_graph,
                             build_relaxation, lp_bound, min_coverage, ratio_report,
                             total_unit_weight)
from pebbling import bounds
from pebbling.graph import GraphError, Orbit, distance, new_graph, root_orbits
from pebbling.lp import CertificateError, check_certificate, solve_max
from pebbling.solver import is_solvable, pebbling_number, pebbling_number_max
from pebbling.strategy import (GENERATION_METHODS, CoverageError, Strategy, StrategyError,
                               StrategySet, generate_strategies, max_unsolvable_weight_check,
                               strategy_from_path, strategy_set_from_json, validate_strategy)
from pebbling.treepi import max_path_partition, tree_pebbling_number


def stored_petersen_set() -> StrategySet:
    data = resources.files("pebbling").joinpath("data/petersen_strategies.json")
    return strategy_set_from_json(json.loads(data.read_text()), families.petersen())


# -- arithmetic core ---------------------------------------------------------

@pytest.mark.parametrize("coverage,total,expected", [
    (4, 36, 10),
    (6, 395, 66),
    (1, 1, 2),
    (2, 8, 5),    # exact division still adds one
    (5, 4, 1),    # total below coverage
])
def test_aggregate_bound_values(coverage, total, expected):
    assert aggregate_bound(coverage, total) == expected


@pytest.mark.parametrize("coverage", [0, -1])
def test_aggregate_bound_rejects_nonpositive_coverage(coverage):
    with pytest.raises(ValueError):
        aggregate_bound(coverage, 10)


# -- stored Petersen strategy set -------------------------------------------

def test_stored_petersen_set_numbers(petersen):
    ss = stored_petersen_set()
    assert ss.root == 0
    assert len(ss.strategies) == 3
    assert min_coverage(petersen, ss) == 4
    assert total_unit_weight(ss) == 36
    assert ratio_report(petersen, ss).ratio_bound == 10


def test_stored_petersen_set_lp_report(petersen):
    report = lp_bound(petersen, stored_petersen_set())
    assert report.ratio_bound == 10
    assert report.lp_bound is not None
    # the pebbling number is 10, so the relaxation cannot dip below it
    assert 10 <= report.lp_bound <= report.ratio_bound


def test_lp_report_carries_a_checked_dual(petersen):
    ss = stored_petersen_set()
    report = lp_bound(petersen, ss)
    lp = build_relaxation(petersen, ss)
    assert len(report.lp_dual) == len(ss.strategies)
    solution = solve_max(lp)
    assert report.lp_dual == solution.dual
    check_certificate(lp, solution)
    # weak duality: the multipliers' weighted right-hand sides give the value
    assert sum(y * rhs for y, (_, rhs) in zip(report.lp_dual, lp.constraints)) \
        == report.lp_value


def test_lp_bound_rejects_an_uncertified_optimum(petersen, monkeypatch):
    def overstated(lp, on_pivot=None):
        solution = solve_max(lp, on_pivot)
        return replace(solution, value=solution.value + 1)

    monkeypatch.setattr(bounds, "solve_max", overstated)
    with pytest.raises(CertificateError):
        lp_bound(petersen, stored_petersen_set())


# -- a single path strategy is tight on paths --------------------------------

@pytest.mark.parametrize("n", range(2, 11))
def test_full_path_strategy_matches_path_pebbling_number(n):
    g = families.path(n)
    ss = StrategySet(0, (strategy_from_path(g, range(n)),))
    assert ratio_report(g, ss).ratio_bound == 2 ** (n - 1)
    report = lp_bound(g, ss)
    assert report.lp_value == Fraction(2 ** (n - 1) - 1)
    assert report.lp_bound == 2 ** (n - 1)


# -- soundness across the catalog --------------------------------------------

@pytest.mark.parametrize("name,g,pi",
                         [pytest.param(*row, id=row[0]) for row in small_catalog()])
def test_lp_between_truth_and_ratio(name, g, pi):
    worst = 0
    for root in range(g.n):
        rooted = pebbling_number(g, root).value
        ss = generate_strategies(g, root, "greedy-search")
        report = lp_bound(g, ss)
        assert rooted <= report.lp_bound <= report.ratio_bound, (
            f"{name} root {root}: rooted pi={rooted} lp={report.lp_bound} "
            f"ratio={report.ratio_bound}")
        worst = max(worst, report.lp_bound)
    # the worst root's bound caps the graph pebbling number
    assert worst >= pi


# -- coverage failures --------------------------------------------------------

def test_coverage_error_names_missing_vertices():
    g = families.path(3)
    ss = StrategySet(0, (strategy_from_path(g, [0, 1]),))
    with pytest.raises(CoverageError) as err:
        min_coverage(g, ss)
    assert err.value.vertices == (2,)
    assert "2" in str(err.value)


def test_bound_graph_collects_per_root_failures():
    # length-1 paths cover only the neighbors, so end roots of a path
    # cannot cover the far side
    g = families.path(3)
    result = bound_graph(g, method="ratio", gen="all-paths", maxlen=1)
    # roots 0 and 2 are one orbit: root 2 reports root 0's failure, mapped
    assert result.failures == {0: "no strategy covers vertices [2]",
                               2: "no strategy covers vertices [0]"}
    assert sorted(result.per_root) == [1]
    assert result.overall_bound is None


# -- whole-graph reports ------------------------------------------------------

def test_bound_graph_petersen_lp_is_exact(petersen):
    result = bound_graph(petersen, method="lp")
    assert not result.failures
    assert sorted(result.per_root) == list(range(10))
    # ratio 10 on every root and pi = 10 squeeze the LP to exactly 10
    assert result.overall_bound == 10
    for report in result.per_root.values():
        assert report.lp_bound == 10


def test_bound_graph_json_shape(petersen):
    result = bound_graph(petersen, method="lp")
    payload = result.to_json_dict(petersen)
    assert payload["graph"] == {"n": 10, "m": 15}
    assert payload["overall_bound"] == 10
    assert payload["failures"] == {}
    assert len(payload["per_root"]) == 10
    for entry in payload["per_root"]:
        assert set(entry) == {"root", "kappa", "chi", "ratio_bound",
                              "lp_value", "lp_bound", "dual"}
        num, den = entry["lp_value"].split("/")
        assert int(den) >= 1 and int(num) >= 0
        assert len(entry["dual"]) == len(result.per_root[entry["root"]].lp_dual)


def test_bound_graph_ratio_method_has_no_lp_fields(petersen):
    result = bound_graph(petersen, method="ratio")
    for report in result.per_root.values():
        assert report.lp_value is None
        assert report.lp_bound is None
        assert "lp_value" not in report.to_json_dict()
    assert result.overall_bound == 10


def test_bound_graph_rejects_unknown_method(petersen):
    with pytest.raises(ValueError, match="unknown bound method"):
        bound_graph(petersen, method="simplex")


# -- LP behaves like an optimum ----------------------------------------------

def test_added_strategies_never_raise_the_lp_value():
    g = families.cycle(5)
    forward = strategy_from_path(g, [0, 1, 2, 3, 4])
    backward = strategy_from_path(g, [0, 4, 3, 2, 1])
    one = solve_max(build_relaxation(g, StrategySet(0, (forward,))))
    two = solve_max(build_relaxation(g, StrategySet(0, (forward, backward))))
    assert one.status == two.status == "optimal"
    assert two.value <= one.value


def test_reports_ignore_strategy_order(petersen):
    ss = stored_petersen_set()
    flipped = StrategySet(ss.root, tuple(reversed(ss.strategies)))
    a = lp_bound(petersen, ss)
    b = lp_bound(petersen, flipped)
    assert (a.min_coverage, a.total_unit_weight) == (b.min_coverage, b.total_unit_weight)
    assert a.lp_value == b.lp_value


def test_bound_graph_reports_every_root():
    g = families.path(7)
    assert len(root_orbits(g)) > 1
    result = bound_graph(g, method="lp")
    assert sorted(result.per_root) == list(range(g.n))
    assert not result.failures


def test_benchmark_entry_points_accept_an_ignored_threads_keyword():
    # the exact call forms of perfbench/workloads.py; threads and seed change nothing
    g = families.path(7)  # four root orbits
    assert pebbling_number(g, 6, threads=1) == pebbling_number(g, 6)
    assert pebbling_number_max(g, threads=2) == pebbling_number_max(g)
    assert (bound_graph(g, "lp", gen="greedy-search", threads=2)
            == bound_graph(g, "lp", gen="greedy-search"))
    for method in GENERATION_METHODS:
        assert generate_strategies(g, 2, method, seed=5) == generate_strategies(g, 2, method)


# -- one generation and one LP per root orbit ---------------------------------

ORBIT_GRAPHS = [
    ("petersen", families.petersen()),
    ("cycle(6)", families.cycle(6)),
    ("hypercube(3)", families.hypercube(3)),
    ("bruhat(3)", families.bruhat(3)),
    ("path(5)", families.path(5)),
    ("tree", families.tree_from_parents([-1, 0, 0, 0, 1, 2, 4])),
]


@pytest.mark.parametrize("gen", GENERATION_METHODS)
@pytest.mark.parametrize("name,g", [pytest.param(*row, id=row[0]) for row in ORBIT_GRAPHS])
def test_orbit_bounds_equal_a_full_sweep(name, g, gen):
    result = bound_graph(g, method="lp", gen=gen)
    assert not result.failures
    for root in range(g.n):
        alone = lp_bound(g, generate_strategies(g, root, gen))
        got = result.per_root[root]
        assert (got.ratio_bound, got.lp_bound, got.lp_value) \
            == (alone.ratio_bound, alone.lp_bound, alone.lp_value), f"{name} root {root}"


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_vertex_transitive_graph_solves_one_lp_and_checks_every_root(petersen, monkeypatch):
    generated = _counting(monkeypatch, bounds, "generate_strategies")
    solved = _counting(monkeypatch, bounds, "solve_max")
    built = _counting(monkeypatch, bounds, "build_relaxation")
    checked = _counting(monkeypatch, bounds, "check_certificate")
    result = bound_graph(petersen, method="lp")
    assert sorted(result.per_root) == list(range(10))
    assert (len(generated), len(solved)) == (1, 1)
    # every root's relaxation is built from its own strategy set and checked
    assert sorted(args[1].root for args in built) == list(range(10))
    assert len(checked) == 10


def _not_an_automorphism(g):
    # sends path(4)'s end 0 to the other end 3, but keeps 1 and 2 in place
    return (Orbit(0, ((3, (3, 1, 2, 0)),)), Orbit(1, ((2, (3, 2, 1, 0)),)))


@pytest.mark.parametrize("method", ["lp", "ratio"])
def test_a_bad_orbit_map_never_yields_a_bound(monkeypatch, method):
    g = families.path(4)
    monkeypatch.setattr(bounds, "root_orbits", _not_an_automorphism)
    result = bound_graph(g, method=method, gen="all-paths")
    assert set(result.per_root) == {0, 1, 2}
    assert set(result.failures) == {3}
    assert "mapped from root 0" in result.failures[3]
    assert "is not an edge of the graph" in result.failures[3]
    assert result.overall_bound is None


def test_a_mapped_optimum_must_pass_its_own_certificate(monkeypatch):
    # a mapping that forgets to move the point into the member's variables
    monkeypatch.setattr(bounds, "_mapped_solution",
                        lambda n, rep, root, solution, sigma: solution)
    result = bound_graph(families.path(3), method="lp", gen="all-paths")
    assert sorted(result.per_root) == [0, 1]
    assert "violates constraint" in result.failures[2]
    assert result.overall_bound is None


def test_a_failing_representative_fails_its_orbit_with_mapped_vertices():
    # paths of length 2 reach two steps from the root: only the middle covers
    result = bound_graph(families.path(5), method="lp", gen="all-paths", maxlen=2)
    assert result.failures == {0: "no strategy covers vertices [3, 4]",
                               1: "no strategy covers vertices [4]",
                               3: "no strategy covers vertices [0]",
                               4: "no strategy covers vertices [0, 1]"}
    assert sorted(result.per_root) == [2]


def test_a_failing_orbit_generates_once(monkeypatch):
    generated = _counting(monkeypatch, bounds, "generate_strategies")
    # length-1 paths reach only the neighbors of the root
    result = bound_graph(families.bruhat(4), method="lp", gen="all-paths", maxlen=1)
    assert len(generated) == 1
    assert len(result.failures) == 24 and not result.per_root
    assert result.overall_bound is None


def test_a_failing_representative_error_is_copied_to_its_members(monkeypatch):
    def uncertified(lp, on_pivot=None):
        return replace(solve_max(lp, on_pivot), dual=None)

    monkeypatch.setattr(bounds, "solve_max", uncertified)
    result = bound_graph(families.cycle(5), method="lp")
    # one orbit: every root reports the least root's message verbatim
    assert sorted(result.failures) == list(range(5))
    assert len(set(result.failures.values())) == 1
    assert result.failures[4].startswith("dual has 0 entries")


@pytest.mark.parametrize("options,problem", [
    ({"budget": 0}, "budget must be positive, got 0"),
    ({"maxlen": -1}, "maxlen must be positive, got -1"),
    ({"gen": "magic"}, "unknown generation method 'magic'"),
    ({"gen": "bfs-trees", "budget": 3}, "bfs-trees takes no budget"),
])
def test_bad_generation_options_raise_once(options, problem, monkeypatch):
    generated = _counting(monkeypatch, bounds, "generate_strategies")
    with pytest.raises(StrategyError, match=problem):
        bound_graph(families.path(4), **options)
    assert generated == []


def test_bound_graph_rejects_a_disconnected_graph():
    with pytest.raises(GraphError, match="^pebbling numbers need a connected graph$"):
        bound_graph(new_graph(4, [(0, 1), (2, 3)]))


def test_orbit_search_past_its_step_limit_changes_nothing(petersen, monkeypatch):
    def results():
        bounded = [bound_graph(g, method="lp") for g in (petersen, families.path(7))]
        return ([(b.failures, b.overall_bound,
                  {r: (x.ratio_bound, x.lp_bound, x.lp_value) for r, x in b.per_root.items()})
                 for b in bounded],
                pebbling_number_max(petersen), pebbling_number_max(families.cycle(6)))

    with_orbits = results()
    monkeypatch.setattr(graph, "_ORBIT_SEARCH_STEPS", 0)
    assert len(graph.root_orbits(petersen)) == 10
    assert results() == with_orbits


# -- one vertex check for every root ------------------------------------------

BAD_ROOTS = ["1", None, True, 1.0, -1, 4]
BAD_ROOT_IDS = ["str", "None", "True", "1.0", "negative", "n"]


def bad_root_message(root) -> str:
    """What graph.check_vertex says about root on a 4-vertex graph."""
    if type(root) is not int:
        return f"vertex {root!r} is not an int"
    return f"vertex {root} outside 0..3"


def path4_set(root) -> StrategySet:
    """path(4)'s path strategies from vertex 1, relabelled to root: valid when root is 1."""
    return StrategySet(root, (Strategy(root, {0: 1}, {0: 1}),
                              Strategy(root, {2: 1, 3: 2}, {2: 2, 3: 1})))


# True and 1.0 equal 1, and "1" and None do not compare with an int; each
# entry point must say so through check_vertex, never by a bare TypeError
# and never by taking the root for vertex 1
@pytest.mark.parametrize("root", BAD_ROOTS, ids=BAD_ROOT_IDS)
@pytest.mark.parametrize("call", [
    lambda g, root: is_solvable(g, (0, 0, 0, 0), root),
    lambda g, root: pebbling_number(g, root),
    lambda g, root: generate_strategies(g, root),
    lambda g, root: max_path_partition(g, root),
    lambda g, root: tree_pebbling_number(g, root),
    lambda g, root: distance(g, root, 0),
    lambda g, root: distance(g, 0, root),
    lambda g, root: ratio_report(g, path4_set(root)),
    lambda g, root: lp_bound(g, path4_set(root)),
    lambda g, root: bounds.certify(g, path4_set(root)),
    lambda g, root: build_relaxation(g, path4_set(root)),
    lambda g, root: max_unsolvable_weight_check(g, root, strategy_from_path(g, [0, 1, 2, 3]), 7),
], ids=["is_solvable", "pebbling_number", "generate_strategies", "max_path_partition",
        "tree_pebbling_number", "distance-u", "distance-v", "ratio_report", "lp_bound",
        "certify", "build_relaxation", "max_unsolvable_weight_check"])
def test_every_entry_point_reports_a_bad_root_through_check_vertex(call, root):
    g = families.path(4)
    with pytest.raises(GraphError, match=f"^{re.escape(bad_root_message(root))}$"):
        call(g, root)


@pytest.mark.parametrize("root", BAD_ROOTS, ids=BAD_ROOT_IDS)
def test_validate_strategy_reports_a_bad_root_as_a_strategy_error(root):
    g = families.path(4)
    s = path4_set(root).strategies[0]
    with pytest.raises(StrategyError, match=f"^{re.escape(bad_root_message(root))}$"):
        validate_strategy(g, s)
