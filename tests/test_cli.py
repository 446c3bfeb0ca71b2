"""End-to-end tests of the command-line interface via main()."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from conftest import deep_broom
from pebbling import bounds, cli, solver, treepi, verify
from pebbling.cli import main
from pebbling.graph import new_graph, read_edge_list, write_edge_list
from pebbling.bounds import build_relaxation
from pebbling.lp import LpSolution, check_certificate, solve_max
from pebbling.strategy import load_strategy_set
from pebbling.verify import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def path4_file(tmp_path, capsys):
    path = tmp_path / "path4.txt"
    code, _, _ = run(capsys, "family", "--kind", "path", "--size", "4",
                     "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def petersen_file(tmp_path, capsys):
    path = tmp_path / "petersen.txt"
    code, _, _ = run(capsys, "family", "--kind", "petersen", "--out", str(path))
    assert code == 0
    return str(path)


# -- family -------------------------------------------------------------------

def test_family_prints_edge_list(capsys):
    code, out, err = run(capsys, "family", "--kind", "path", "--size", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["3", "2"]
    assert lines[1:] == ["0 1", "1 2"]


def test_family_json(capsys):
    code, out, _ = run(capsys, "family", "--kind", "cycle", "--size", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "cycle"
    assert (payload["n"], payload["m"]) == (4, 4)
    assert [0, 1] in payload["edges"]


def test_family_tree_parents_equals_form(capsys):
    # the leading dash of the sentinel requires --parents=...
    code, out, _ = run(capsys, "family", "--kind", "tree", "--parents=-1,0,0,1,1,2,2",
                       "--json")
    assert code == 0
    assert json.loads(out)["n"] == 7


def test_family_writes_file(path4_file, capsys):
    with open(path4_file, encoding="utf-8") as fh:
        header = fh.readline().split()
    assert header == ["4", "3"]


def test_family_bad_parents(capsys):
    code, _, err = run(capsys, "family", "--kind", "tree", "--parents=-1,zero")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (["--kind", "petersen", "--size", "7"], "petersen takes no size"),
    (["--kind", "petersen", "--parents=-1,0"], "petersen takes no parents"),
    (["--kind", "path", "--size", "3", "--parents=-1,0"], "path takes no parents"),
    (["--kind", "tree", "--parents=-1,0", "--size", "9"], "tree takes no size"),
], ids=["petersen-size", "petersen-parents", "path-parents", "tree-size"])
def test_family_rejects_options_its_kind_ignores(argv, message, capsys):
    assert run(capsys, "family", *argv) == (1, "", f"error: {message}\n")


# -- solve --------------------------------------------------------------------

def test_solve_solvable_with_witness(path4_file, capsys):
    code, out, _ = run(capsys, "solve", "--graph", path4_file, "--root", "0",
                       "--config", "3:8")
    assert code == 0
    assert "solvable in 7 moves" in out


def test_solve_unsolvable_is_still_exit_zero(path4_file, capsys):
    code, out, _ = run(capsys, "solve", "--graph", path4_file, "--root", "0",
                       "--config", "3:7")
    assert code == 0
    assert "unsolvable" in out


def test_solve_json_witness_replays(path4_file, capsys):
    code, out, _ = run(capsys, "solve", "--graph", path4_file, "--root", "0",
                       "--config", "3:8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"] is True
    assert len(payload["witness"]) == 7
    assert all(len(move) == 2 for move in payload["witness"])


def test_solve_config_file(path4_file, tmp_path, capsys):
    cfg = tmp_path / "config.txt"
    cfg.write_text("0:1\n")
    code, out, _ = run(capsys, "solve", "--graph", path4_file, "--root", "0",
                       "--config-file", str(cfg))
    assert code == 0
    assert "no moves" in out


def test_solve_malformed_config(path4_file, capsys):
    code, _, err = run(capsys, "solve", "--graph", path4_file, "--root", "0",
                       "--config", "nonsense")
    assert code == 1
    assert err.startswith("error:")


def test_solve_says_when_no_search_was_needed(path4_file, petersen_file, capsys):
    # on a tree the failed push decides; on petersen the search proves it
    code, out, _ = run(capsys, "solve", "--graph", path4_file, "--root", "0",
                       "--config", "3:7")
    assert code == 0
    assert out == "unsolvable (decided without a search)\n"
    code, out, _ = run(capsys, "solve", "--graph", petersen_file, "--root", "0",
                       "--config", "2:1,3:1,6:1,7:1,8:3,9:1")
    assert code == 0
    assert out == "unsolvable (explored 60 configurations)\n"
    code, out, _ = run(capsys, "solve", "--graph", path4_file, "--root", "0",
                       "--config", "3:7", "--json")
    payload = json.loads(out)
    assert (payload["solvable"], payload["witness"], payload["explored"]) == (False, None, 0)


def test_solve_concentrated_bruhat4_configuration(tmp_path, capsys):
    path = tmp_path / "b4.txt"
    code, _, _ = run(capsys, "family", "--kind", "bruhat", "--size", "4", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--graph", str(path), "--root", "0",
                       "--config", "1:1,23:63", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"] is True and payload["explored"] == 0


@pytest.mark.parametrize("family,verb", [
    (["--kind", "petersen"], ["solve", "--root", "0", "--config", "2:1,3:1,6:1,7:1,8:3,9:1"]),
    # every configuration of Petersen's scan is decided without a search;
    # 3 of the 15 that cycle(7)'s prefix-pruned scan searches at root 0
    # still need one
    (["--kind", "cycle", "--size", "7"], ["pi", "--root", "0"]),
], ids=["solve", "pi"])
def test_search_cap_is_one_error_line(family, verb, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.txt")
    assert run(capsys, "family", *family, "--out", path)[0] == 0
    monkeypatch.setattr(solver, "DEFAULT_MAX_STATES", 2)
    code, out, err = run(capsys, *verb, "--graph", path)
    assert code == 1 and out == ""
    assert err.startswith("error: the solvability search explored 3 configurations, "
                          "over the cap of 2")
    assert err.count("\n") == 1


# -- pi -----------------------------------------------------------------------

def test_pi_single_root(path4_file, capsys):
    code, out, _ = run(capsys, "pi", "--graph", path4_file, "--root", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 8
    assert payload["root"] == 0
    assert payload["critical_config"] == "3:7"


def test_pi_all_roots(path4_file, capsys):
    code, out, _ = run(capsys, "pi", "--graph", path4_file)
    assert code == 0
    assert "pebbling number 8" in out
    assert "all roots" in out


def test_pi_json_stable_between_runs(path4_file, capsys):
    argv = ("pi", "--graph", path4_file, "--root", "3", "--json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_enumeration_cap_over_all_roots_is_a_clean_error(path4_file, capsys):
    code, _, err = run(capsys, "pi", "--graph", path4_file, "--max-configs", "5")
    assert code == 1
    assert err.startswith("error: level ")
    assert err.rstrip().endswith("were verified")


# -- strategies, bound, lp ------------------------------------------------------

def test_strategies_to_bound_to_lp_round_trip(petersen_file, tmp_path, capsys):
    ss_path = tmp_path / "strategies.json"
    code, out, _ = run(capsys, "strategies", "--graph", petersen_file,
                       "--root", "0", "--out", str(ss_path))
    assert code == 0
    assert "ratio bound 10" in out
    ss = load_strategy_set(str(ss_path), read_edge_list(petersen_file))
    assert ss.root == 0

    code, out, _ = run(capsys, "bound", "--graph", petersen_file,
                       "--strategies", str(ss_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio_bound"] == 10
    assert payload["lp_bound"] == 10

    code, out, _ = run(capsys, "lp", "--graph", petersen_file,
                       "--strategies", str(ss_path))
    assert code == 0
    assert "optimal value 9" in out
    assert "(bound 10)" in out


def test_lp_verbose_prints_each_pivot(petersen_file, tmp_path, capsys):
    ss_path = tmp_path / "strategies.json"
    run(capsys, "strategies", "--graph", petersen_file, "--root", "0",
        "--out", str(ss_path))
    code, out, _ = run(capsys, "lp", "--graph", petersen_file,
                       "--strategies", str(ss_path), "--verbose")
    assert code == 0
    assert out.splitlines() == [
        "pivot 1: enter x1, leave row 0, value 6",
        "pivot 2: enter x2, leave row 1, value 8",
        "pivot 3: enter x4, leave row 2, value 9",
        "optimal value 9 (bound 10) after 3 pivots",
    ]


def test_lp_and_bound_json_carry_a_dual_certificate(petersen_file, tmp_path, capsys):
    ss_path = tmp_path / "strategies.json"
    run(capsys, "strategies", "--graph", petersen_file, "--root", "0",
        "--out", str(ss_path))
    g = read_edge_list(petersen_file)
    lp = build_relaxation(g, load_strategy_set(str(ss_path), g))
    code, out, _ = run(capsys, "lp", "--graph", petersen_file,
                       "--strategies", str(ss_path), "--json")
    assert code == 0
    payload = json.loads(out)
    solution = LpSolution("optimal", Fraction(payload["value"]),
                          tuple(Fraction(x) for x in payload["point"]),
                          payload["pivots"], tuple(Fraction(y) for y in payload["dual"]))
    check_certificate(lp, solution)

    code, out, _ = run(capsys, "bound", "--graph", petersen_file,
                       "--strategies", str(ss_path), "--json")
    assert code == 0
    assert json.loads(out)["dual"] == payload["dual"]
    code, out, _ = run(capsys, "bound", "--graph", petersen_file, "--json")
    assert code == 0
    assert all(len(entry["dual"]) >= 1 for entry in json.loads(out)["per_root"])


def test_lp_json_on_the_stored_petersen_set_is_pinned(petersen_file, capsys):
    data = resources.files("pebbling").joinpath("data/petersen_strategies.json")
    code, out, _ = run(capsys, "lp", "--graph", petersen_file,
                       "--strategies", str(data), "--json")
    assert code == 0
    assert json.loads(out) == {
        "status": "optimal", "value": "9/1", "bound": 10, "pivots": 3,
        "point": ["0/1", "4/1", "4/1", "0/1", "1/1", "0/1", "0/1", "0/1", "0/1"],
        "dual": ["1/4", "1/4", "1/4"],
    }


def test_lp_rejects_an_uncertified_optimum(petersen_file, tmp_path, capsys, monkeypatch):
    ss_path = tmp_path / "strategies.json"
    run(capsys, "strategies", "--graph", petersen_file, "--root", "0",
        "--out", str(ss_path))

    def understated(lp, on_pivot=None):
        solution = solve_max(lp, on_pivot)
        return replace(solution, value=solution.value - 1)

    monkeypatch.setattr(bounds, "solve_max", understated)
    code, out, err = run(capsys, "lp", "--graph", petersen_file,
                         "--strategies", str(ss_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not the value 8" in err


@pytest.mark.parametrize("verb", ["pi", "bound"])
def test_graph_without_vertices_is_an_error(verb, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    code, out, err = run(capsys, verb, "--graph", str(empty))
    assert code == 1
    assert out == ""
    assert err == "error: line 1: the graph has no vertices\n"


@pytest.mark.parametrize("verb", ["pi", "bound"])
def test_disconnected_graph_is_one_error(verb, tmp_path, capsys):
    halves = tmp_path / "halves.txt"
    halves.write_text("4 2\n0 1\n2 3\n")
    code, out, err = run(capsys, verb, "--graph", str(halves))
    assert (code, out) == (1, "")
    assert err == "error: pebbling numbers need a connected graph\n"


@pytest.mark.parametrize("verb", [["bound"], ["strategies"], ["solve", "--config", "1:2"],
                                  ["solve", "--config", "0:1"]],
                         ids=["bound", "strategies", "solve", "solve-root-pebble"])
def test_disconnected_graph_is_one_error_at_a_root(verb, tmp_path, capsys):
    halves = tmp_path / "halves.txt"
    halves.write_text("4 2\n0 1\n2 3\n")
    code, out, err = run(capsys, *verb, "--graph", str(halves), "--root", "0")
    assert (code, out) == (1, "")
    assert err == "error: pebbling numbers need a connected graph\n"


@pytest.mark.parametrize("verb", ["lp", "bound"])
def test_disconnected_graph_is_one_error_with_a_strategy_file(verb, tmp_path, capsys):
    # the set is valid on the halves' first edge, but the graph is not connected
    halves = tmp_path / "halves.txt"
    halves.write_text("4 2\n0 1\n2 3\n")
    strategies = tmp_path / "edge.json"
    strategies.write_text('{"root": 0, "strategies": [{"parent": {"1": 0}}]}')
    code, out, err = run(capsys, verb, "--graph", str(halves), "--strategies", str(strategies))
    assert (code, out) == (1, "")
    assert err == "error: pebbling numbers need a connected graph\n"


@pytest.mark.parametrize("option", [["--budget", "0"], ["--maxlen", "-1"], ["--gen", "magic"]],
                         ids=["budget", "maxlen", "gen"])
def test_bound_rejects_bad_generation_options_before_any_root(option, path4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--graph", path4_file, *option])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and "failed" not in err


def test_strategies_json_deterministic(petersen_file, capsys):
    argv = ("strategies", "--graph", petersen_file, "--root", "0", "--json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert payload["root"] == 0
    assert payload["kappa"] >= 1


def test_bound_generated_single_root(petersen_file, capsys):
    code, out, _ = run(capsys, "bound", "--graph", petersen_file, "--root", "0",
                       "--method", "ratio")
    assert code == 0
    assert "ratio bound 10" in out
    assert "lp" not in out


def test_bound_all_roots_json(path4_file, capsys):
    code, out, _ = run(capsys, "bound", "--graph", path4_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"] == {"n": 4, "m": 3}
    assert payload["overall_bound"] == 8
    assert len(payload["per_root"]) == 4


def test_bound_coverage_failure_exits_one(tmp_path, capsys):
    path3 = tmp_path / "path3.txt"
    run(capsys, "family", "--kind", "path", "--size", "3", "--out", str(path3))
    code, out, err = run(capsys, "bound", "--graph", str(path3),
                         "--gen", "all-paths", "--maxlen", "1")
    assert code == 1
    assert "overall bound: None" in out
    assert "root 0: failed" in err and "root 2: failed" in err


def test_bound_strategy_root_mismatch(petersen_file, tmp_path, capsys):
    ss_path = tmp_path / "strategies.json"
    run(capsys, "strategies", "--graph", petersen_file, "--root", "0",
        "--out", str(ss_path))
    code, _, err = run(capsys, "bound", "--graph", petersen_file,
                       "--strategies", str(ss_path), "--root", "3")
    assert code == 1
    assert "rooted at 0" in err


@pytest.mark.parametrize("verb", ["bound", "lp"])
@pytest.mark.parametrize("entry,problem", [
    # all-ones weights on path(5) once gave a bound of 5, where pi = 16
    ({"parent": {"1": 0, "2": 1, "3": 2, "4": 3},
      "weight": {"1": 1, "2": 1, "3": 1, "4": 1}}, "does not double"),
    ({"weight": {"1": 1}}, '"parent"'),
    ([1, 0], "object"),
    ({"parent": {"1": False}}, "not an object of integers"),
], ids=["all-ones-weights", "no-parent", "not-an-object", "bool-parent"])
def test_invalid_strategy_file_is_an_error(verb, entry, problem, tmp_path, capsys):
    path5 = tmp_path / "path5.txt"
    run(capsys, "family", "--kind", "path", "--size", "5", "--out", str(path5))
    ss_path = tmp_path / "strategies.json"
    ss_path.write_text(json.dumps({"root": 0, "strategies": [entry]}))
    code, out, err = run(capsys, verb, "--graph", str(path5),
                         "--strategies", str(ss_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: strategy 0: ") and problem in err


@pytest.mark.parametrize("verb", ["bound", "lp"])
def test_uncovering_strategy_file_is_one_error(verb, tmp_path, capsys):
    # one edge of path(7) leaves vertices 2-6 uncovered; the LP over it is
    # unbounded, a result no certificate proves
    path7 = tmp_path / "path7.txt"
    run(capsys, "family", "--kind", "path", "--size", "7", "--out", str(path7))
    ss_path = tmp_path / "strategies.json"
    ss_path.write_text(json.dumps({"root": 0, "strategies": [{"parent": {"1": 0}}]}))
    code, out, err = run(capsys, verb, "--graph", str(path7), "--strategies", str(ss_path))
    assert (code, out) == (1, "")
    assert err == "error: no strategy covers vertices [2, 3, 4, 5, 6]\n"


@pytest.mark.parametrize("verb", ["bound", "lp"])
def test_weightless_entry_over_the_unit_weight_limit_is_one_error(verb, tmp_path, capsys):
    broom = deep_broom()
    graph_path = tmp_path / "broom.txt"
    write_edge_list(broom, graph_path)
    ss_path = tmp_path / "strategies.json"
    ss_path.write_text(json.dumps(
        {"root": 0, "strategies": [{"parent": {str(v): u for u, v in broom.edges()}}]}))
    code, out, err = run(capsys, verb, "--graph", str(graph_path), "--strategies", str(ss_path))
    assert (code, out) == (1, "")
    assert err == "error: strategy 0: unit weight over the 64-bit limit\n"


@pytest.mark.parametrize("verb", ["bound", "lp"])
@pytest.mark.parametrize("data,problem", [
    ({"root": 0.9, "strategies": [{"parent": {"1": 0}}]}, '"root" must be an integer'),
    ({"root": 0, "strategies": "ab"}, '"strategies" must be a list'),
], ids=["float-root", "string-strategies"])
def test_malformed_strategy_file_fields_are_an_error(verb, data, problem, path4_file,
                                                     tmp_path, capsys):
    ss_path = tmp_path / "strategies.json"
    ss_path.write_text(json.dumps(data))
    code, out, err = run(capsys, verb, "--graph", path4_file, "--strategies", str(ss_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {problem}")


def test_lp_bad_json_reports_line(petersen_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"root": 0,\n  broken\n}')
    code, _, err = run(capsys, "lp", "--graph", petersen_file,
                       "--strategies", str(bad))
    assert code == 1
    assert "line 2" in err


# -- tree-pi --------------------------------------------------------------------

def test_tree_pi_specific_root(tmp_path, capsys):
    tree = tmp_path / "star.txt"
    run(capsys, "family", "--kind", "tree", "--parents=-1,0,0,0",
        "--out", str(tree))
    code, out, _ = run(capsys, "tree-pi", "--graph", str(tree), "--root", "1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 5
    assert payload["critical_config"] == "2:3,3:1"


def test_tree_pi_all_roots(tmp_path, capsys):
    tree = tmp_path / "binary7.txt"
    run(capsys, "family", "--kind", "tree", "--parents=-1,0,0,1,1,2,2",
        "--out", str(tree))
    code, out, _ = run(capsys, "tree-pi", "--graph", str(tree))
    assert code == 0
    assert "tree pebbling number 18" in out
    assert "max at root 3" in out


def test_tree_pi_rejects_non_tree(petersen_file, capsys):
    code, _, err = run(capsys, "tree-pi", "--graph", petersen_file)
    assert code == 1
    assert "not a tree" in err


@pytest.mark.parametrize("root", [[], ["--root", "0"], ["--root", "3"]],
                         ids=["all-roots", "root-0", "root-3"])
def test_tree_pi_rejects_n_minus_one_edges_without_a_tree(root, tmp_path, capsys):
    graph = tmp_path / "triangle-and-point.txt"
    write_edge_list(new_graph(4, [(0, 1), (1, 2), (0, 2)]), graph)
    code, out, err = run(capsys, "tree-pi", "--graph", str(graph), *root)
    assert (code, out, err) == (1, "", "error: graph is not a tree\n")


def test_tree_pi_at_a_root_builds_one_partition(tmp_path, capsys, monkeypatch):
    tree = tmp_path / "binary7.txt"
    run(capsys, "family", "--kind", "tree", "--parents=-1,0,0,1,1,2,2",
        "--out", str(tree))
    roots = []

    def counted(g, root):
        roots.append(root)
        return build(g, root)

    build = treepi.max_path_partition
    monkeypatch.setattr(treepi, "max_path_partition", counted)
    code, out, _ = run(capsys, "tree-pi", "--graph", str(tree), "--root", "3", "--json")
    assert code == 0 and roots == [3]
    payload = json.loads(out)
    assert (payload["value"], payload["critical_config"]) == (18, "4:1,5:15,6:1")


# -- verify ---------------------------------------------------------------------

def test_verify_all_pass(monkeypatch, capsys):
    fake = [CheckResult("alpha", True, "fine", 0.01),
            CheckResult("beta", True, "also fine", 0.02)]
    monkeypatch.setattr(verify, "run_checks", lambda level: fake)
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert out.count("PASS") == 2
    assert err == ""


def test_verify_failure_lists_names(monkeypatch, capsys):
    fake = [CheckResult("alpha", True, "fine", 0.01),
            CheckResult("beta", False, "value drifted", 0.02)]
    monkeypatch.setattr(verify, "run_checks", lambda level: fake)
    code, out, err = run(capsys, "verify", "--level", "full")
    assert code == 1
    assert "FAIL" in out
    assert "failed checks: beta" in err


def test_verify_json(monkeypatch, capsys):
    fake = [CheckResult("alpha", True, "fine", 0.5)]
    monkeypatch.setattr(verify, "run_checks", lambda level: fake)
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"name": "alpha", "ok": True, "detail": "fine",
                        "elapsed_ms": 500.0}]


# -- error and usage handling ----------------------------------------------------

def test_missing_graph_file(capsys):
    code, _, err = run(capsys, "pi", "--graph", "/nonexistent/g.txt")
    assert code == 1
    assert err.startswith("error:")


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--root", "0", "--config", "0:1"])  # --graph missing
    assert exc.value.code == 2


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conquer"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("verb", [["pi"]], ids=["pi"])
def test_max_configs_must_be_positive(verb, cap, path4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--graph", path4_file, "--max-configs", cap])
    assert exc.value.code == 2
    assert f"--max-configs: must be positive, got {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["pi", "bound"])
def test_threads_flag_is_a_usage_error(verb, path4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--graph", path4_file, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["strategies", "bound"])
def test_seed_flag_is_a_usage_error(verb, path4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--graph", path4_file, "--root", "0", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# int() reads each of these as an integer: 10, 2, 3 and the Arabic-Indic 3
NON_DECIMAL = pytest.mark.parametrize("value", ["1_0", "+2", " 3", "\u0663"],
                                      ids=["underscore", "plus", "space", "arabic-indic"])


# every integer option, last in its argv
INTEGER_OPTIONS = [
    ["family", "--kind", "path", "--size"],
    ["solve", "--config", "0:1", "--root"],
    ["pi", "--root"],
    ["pi", "--max-configs"],
    ["strategies", "--root", "0", "--maxlen"],
    ["strategies", "--root"],
    ["bound", "--budget"],
    ["bound", "--root"],
    ["lp", "--strategies", "set.json", "--root"],
    ["tree-pi", "--root"],
]


@NON_DECIMAL
@pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=[f"{a[0]}{a[-1]}" for a in INTEGER_OPTIONS])
def test_integer_options_take_ascii_decimal_digits_only(argv, value, path4_file, capsys):
    graph = [] if argv[0] == "family" else ["--graph", path4_file]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *graph, *argv[1:], value])
    assert exc.value.code == 2
    assert f"{argv[-1]}: not a decimal integer: {value!r}" in capsys.readouterr().err


@NON_DECIMAL
def test_family_parents_take_ascii_decimal_digits_only(value, capsys):
    code, out, err = run(capsys, "family", "--kind", "tree", f"--parents=-1,0,{value}")
    assert (code, out) == (1, "")
    assert err == ("error: parents must be comma-separated integers: "
                   f"not a decimal integer: {value!r}\n")


@pytest.mark.parametrize("verb", [["solve", "--config", "0:1"], ["pi"], ["strategies"],
                                  ["bound"], ["tree-pi"]], ids=lambda verb: verb[0])
def test_negative_root_is_a_library_error(verb, path4_file, capsys):
    code, out, err = run(capsys, verb[0], "--graph", path4_file, *verb[1:], "--root", "-1")
    assert (code, out) == (1, "")
    assert err == "error: vertex -1 outside 0..3\n"


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("option", [
    ["--method", "bfs-trees", "--budget"],
    ["--method", "greedy-search", "--budget"],
    ["--method", "all-paths", "--maxlen"],
], ids=["bfs-trees-budget", "greedy-search-budget", "all-paths-maxlen"])
def test_generation_limits_must_be_positive(option, value, path4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["strategies", "--graph", path4_file, "--root", "0", *option, value])
    assert exc.value.code == 2
    assert f"{option[-1]}: must be positive, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("verb,root", [("strategies", ["--root", "0"]), ("bound", [])],
                         ids=["strategies", "bound"])
@pytest.mark.parametrize("method,option", [
    ("bfs-trees", "--maxlen"), ("bfs-trees", "--budget"), ("all-paths", "--budget"),
])
def test_generation_option_the_method_does_not_read_is_one_error(
        verb, root, method, option, path4_file, capsys):
    flag = "--method" if verb == "strategies" else "--gen"
    code, out, err = run(capsys, verb, "--graph", path4_file, *root,
                         flag, method, option, "3")
    assert code == 1
    assert out == ""
    assert err == f"error: {method} takes no {option[2:]}\n"


@pytest.mark.parametrize("option", [["--gen", "greedy-search"], ["--maxlen", "2"],
                                    ["--budget", "3"]], ids=["gen", "maxlen", "budget"])
def test_bound_from_a_strategy_file_takes_no_generation_option(option, petersen_file,
                                                               capsys):
    data = resources.files("pebbling").joinpath("data/petersen_strategies.json")
    code, out, err = run(capsys, "bound", "--graph", petersen_file,
                         "--strategies", str(data), *option)
    assert (code, out) == (1, "")
    assert err == f"error: --strategies takes no {option[0]}\n"


# -- python -m pebbling ---------------------------------------------------------

def test_module_entry_point_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pebbling", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: pebbling")
