"""Exact simplex against a basic-feasible-point enumeration oracle, and its
dual certificates."""

import ast
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pebbling import families, lp as lp_module
from pebbling.bounds import build_relaxation
from pebbling.lp import (
    CertificateError,
    check_certificate,
    make_linear_program,
    solve_max,
)
from pebbling.strategy import generate_strategies, strategy_from_path
from pebbling.verify import _simplex_suite, basic_feasible_maximum


def test_one_variable():
    lp = make_linear_program([1], [([2], 12)])
    solution = solve_max(lp)
    assert solution.status == "optimal"
    assert solution.value == 6
    assert solution.point == (Fraction(6),)


def test_path3_relaxation_example():
    lp = make_linear_program([1, 1], [([2, 1], 3)])
    solution = solve_max(lp)
    assert solution.value == 3
    assert solution.point == (Fraction(0), Fraction(3))


def test_unbounded_detected():
    lp = make_linear_program([1], [])
    assert solve_max(lp).status == "unbounded"
    lp = make_linear_program([1, 1], [([1, 0], 4)])
    assert solve_max(lp).status == "unbounded"


def test_construction_guards():
    with pytest.raises(ValueError):
        make_linear_program([1, 1], [([1], 2)])  # row length mismatch
    with pytest.raises(ValueError):
        make_linear_program([1], [([1], -3)])  # negative rhs


def test_point_is_exactly_feasible():
    lp = make_linear_program(
        [3, 2, 4], [([1, 1, 2], 4), ([2, 0, 3], 7), ([0, 4, 1], 6)])
    solution = solve_max(lp)
    assert solution.status == "optimal"
    for row, rhs in lp.constraints:
        assert sum(c * x for c, x in zip(row, solution.point)) <= rhs
    assert all(x >= 0 for x in solution.point)
    assert sum(c * x for c, x in zip(lp.objective, solution.point)) == solution.value


def test_pivots_reproducible():
    lp = make_linear_program([1, 2], [([1, 1], 4), ([1, 0], 2)])
    first = solve_max(lp)
    second = solve_max(lp)
    assert first == second
    assert first.pivot_count >= 1


def test_pivot_callback_and_no_output(capsys):
    lp = make_linear_program([1, 2], [([1, 1], 4), ([1, 0], 2)])
    seen = []
    solution = solve_max(lp, on_pivot=lambda *pivot: seen.append(pivot))
    assert solution == solve_max(lp)
    assert [count for count, *_ in seen] == list(range(1, solution.pivot_count + 1))
    assert seen[-1][3] == solution.value
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("i,lp", list(enumerate(_simplex_suite())))
def test_fixed_suite_matches_oracle(i, lp):
    solution = solve_max(lp)
    assert solution.status == "optimal"
    assert solution.value == basic_feasible_maximum(lp)
    check_certificate(lp, solution)


def _fractions(low, high):
    # small denominators, integers included; unlike denominators in one row
    # exercise the per-row integer scaling
    return st.fractions(low, high, max_denominator=6)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(_fractions(-4, 6), min_size=k, max_size=k),
    st.lists(st.tuples(
        st.lists(_fractions(-3, 5), min_size=k, max_size=k),
        # zero right-hand sides make degenerate vertices
        st.one_of(st.just(0), _fractions(0, 9))), min_size=0, max_size=3))))
def test_random_bounded_lps_match_oracle(data):
    objective, extra_rows = data
    k = len(objective)
    box = ([1] * k, 10)  # keeps every instance bounded
    lp = make_linear_program(objective, [box] + list(extra_rows))
    solution = solve_max(lp)
    assert solution.status == "optimal"
    assert solution.value == basic_feasible_maximum(lp)
    check_certificate(lp, solution)


def test_every_first_step_degenerate_enters_the_least_variable():
    # both improving columns gain 0 at the start: the tie rule is Bland's, so
    # x0 enters, where a largest-cost rule would enter x1
    lp = make_linear_program([1, 2], [([1, -1], 0), ([-1, 1], 0), ([1, 1], 2)])
    seen = []
    solution = solve_max(lp, on_pivot=lambda *pivot: seen.append(pivot))
    assert seen[0][:2] == (1, 0)
    assert solution.value == 3
    check_certificate(lp, solution)


def test_fractional_rows_are_scaled_once_at_construction():
    lp = make_linear_program([1, 1], [([Fraction(1, 4), 1], Fraction(3, 2))])
    assert lp.constraints == (((1, 4), 6),)
    assert all(type(x) is int for x in (*lp.constraints[0][0], lp.constraints[0][1]))
    solution = solve_max(lp)
    assert solution.value == basic_feasible_maximum(lp) == 6
    # the multiplier belongs to the stored row x0 + 4 x1 <= 6
    assert solution.dual == (Fraction(1),)
    check_certificate(lp, solution)


def test_certificate_reads_the_slack_costs():
    # max x0 + x1 with x0 <= 1 and 2 x1 <= 3: multipliers 1 and 1/2
    lp = make_linear_program([1, 1], [([1, 0], 1), ([0, 2], 3)])
    solution = solve_max(lp)
    assert solution.value == Fraction(5, 2)
    assert solution.dual == (Fraction(1), Fraction(1, 2))
    check_certificate(lp, solution)


@pytest.mark.parametrize("dual,problem", [
    ((Fraction(2), Fraction(1, 2)), "dual objective"),  # y.A >= c but y.b = 7/2
    ((Fraction(5, 2), Fraction(0)), "falls short"),     # y.b = 5/2 but column 1 is 0
    ((Fraction(6), Fraction(-7, 6)), "negative"),       # y.b = 5/2, y.A = (6, -7/3)
    ((Fraction(1),), "entries"),
], ids=["objective", "column", "sign", "length"])
def test_tampered_dual_rejected(dual, problem):
    lp = make_linear_program([1, 1], [([1, 0], 1), ([0, 2], 3)])
    solution = solve_max(lp)
    with pytest.raises(CertificateError, match=problem):
        check_certificate(lp, replace(solution, dual=dual))


def test_tampered_value_or_point_rejected():
    lp = make_linear_program([1, 1], [([1, 0], 1), ([0, 2], 3)])
    solution = solve_max(lp)
    for value in (Fraction(2), Fraction(3), Fraction(5, 2) + Fraction(1, 10**9)):
        with pytest.raises(CertificateError, match="not the value"):
            check_certificate(lp, replace(solution, value=value))
    with pytest.raises(CertificateError, match="violates constraint 1"):
        check_certificate(lp, replace(solution, point=(Fraction(1), Fraction(2))))
    with pytest.raises(CertificateError, match="negative"):
        check_certificate(lp, replace(solution, point=(Fraction(-1), Fraction(3, 2))))
    with pytest.raises(CertificateError, match="unbounded"):
        check_certificate(lp, replace(solution, status="unbounded"))


def test_every_changed_dual_entry_rejected_on_petersen():
    g = families.petersen()
    lp = build_relaxation(g, generate_strategies(g, 0, "greedy-search"))
    solution = solve_max(lp)
    check_certificate(lp, solution)
    for i in range(len(solution.dual)):
        for delta in (Fraction(1), Fraction(-1, 7)):
            dual = list(solution.dual)
            dual[i] += delta
            with pytest.raises(CertificateError):
                check_certificate(lp, replace(solution, dual=tuple(dual)))


def test_build_relaxation_shapes():
    g = families.path(3)
    from pebbling.strategy import StrategySet
    ss = StrategySet(0, (strategy_from_path(g, [0, 1, 2]),))
    lp = build_relaxation(g, ss)
    assert lp.num_vars == 2
    assert lp.objective == (1, 1)
    assert lp.constraints == (((Fraction(2), Fraction(1)), Fraction(3)),)
    solution = solve_max(lp)
    assert solution.value == 3


def test_build_relaxation_rows_are_ints():
    # a type check, since Fraction(2) == 2
    g = families.petersen()
    lp = build_relaxation(g, generate_strategies(g, 0, "greedy-search"))
    assert all(type(x) is int for row, rhs in lp.constraints for x in (*row, rhs))
    assert all(type(c) is Fraction for c in lp.objective)


def test_complete4_single_edge_strategies():
    g = families.complete(4)
    from pebbling.strategy import StrategySet
    ss = StrategySet(0, tuple(strategy_from_path(g, [0, v]) for v in (1, 2, 3)))
    solution = solve_max(build_relaxation(g, ss))
    assert solution.value == 3


def test_petersen_relaxation_value():
    g = families.petersen()
    ss = generate_strategies(g, 0, "greedy-search")
    lp = build_relaxation(g, ss)
    solution = solve_max(lp)
    assert solution.value == 9
    # aggregation gives the same 9 as a dual certificate: chi/kappa = 36/4
    assert solution.value <= Fraction(36, 4)


def test_bruhat4_root0_pinned():
    # value and point as the Fraction-tableau engine gave them; the pivot
    # count is the greatest-improvement rule's
    g = families.bruhat(4)
    lp = build_relaxation(g, generate_strategies(g, 0, "greedy-search"))
    solution = solve_max(lp)
    assert (lp.num_vars, len(lp.constraints)) == (23, 47)
    assert solution.value == Fraction(135, 2)
    assert solution.pivot_count == 38
    point = [0] * 23
    point[4], point[13], point[22] = 1, 1, 45
    point[16], point[20], point[21] = Fraction(11, 2), Fraction(19, 2), Fraction(11, 2)
    assert solution.point == tuple(Fraction(x) for x in point)
    check_certificate(lp, solution)


def test_the_simplex_module_imports_nothing_from_the_package():
    # lp.py is a generic exact LP solver; the pebbling relaxation lives in bounds
    tree = ast.parse(Path(lp_module.__file__).read_text(encoding="utf-8"))
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == []
