"""Strategy construction, validation, generation, and the weight bound."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import deep_broom
from pebbling import families, strategy
from pebbling.bounds import bound_graph, lp_bound
from pebbling.graph import GraphError, distances_from, new_graph
from pebbling.solver import is_solvable
from pebbling.strategy import (
    CoverageError,
    Strategy,
    StrategyError,
    StrategySet,
    config_weight,
    coverage,
    generate_strategies,
    load_strategy_set,
    max_unsolvable_weight_check,
    save_strategy_set,
    strategy_from_path,
    strategy_from_tree,
    strategy_set_from_json,
    strategy_set_to_json,
    unit_weight,
    validate_strategy,
)


def test_path_strategy_weights_double_toward_root():
    g = families.path(4)
    s = strategy_from_path(g, [0, 1, 2, 3])
    assert s.root == 0
    assert s.weight == {1: 4, 2: 2, 3: 1}
    assert unit_weight(s) == 7
    validate_strategy(g, s)


@pytest.mark.parametrize("m", range(1, 11))
def test_path_strategy_unit_weight(m):
    g = families.path(m + 1)
    s = strategy_from_path(g, list(range(m + 1)))
    assert unit_weight(s) == 2 ** m - 1


def test_tree_strategy_heights():
    g = families.tree_from_parents([-1, 0, 0, 1, 1])
    s = strategy_from_tree(g, 0, {1: 0, 2: 0, 3: 1, 4: 1})
    # height 2: depth-1 vertices weigh 2, depth-2 leaves weigh 1
    assert s.weight == {1: 2, 2: 2, 3: 1, 4: 1}
    # children listed before their parents get the same depths
    assert strategy_from_tree(g, 0, {4: 1, 3: 1, 1: 0, 2: 0}).weight == s.weight


def test_children_of_root_not_constrained_by_doubling():
    g = families.tree_from_parents([-1, 0, 0])
    s = strategy_from_tree(g, 0, {1: 0, 2: 0})
    assert s.weight == {1: 1, 2: 1}
    validate_strategy(g, s)


def test_strategy_rejects_non_edges():
    g = families.path(4)
    with pytest.raises(StrategyError):
        strategy_from_path(g, [0, 2])
    with pytest.raises(StrategyError):
        strategy_from_tree(g, 0, {2: 0})
    with pytest.raises(StrategyError):
        strategy_from_path(g, [0])
    with pytest.raises(StrategyError):
        strategy_from_path(g, [0, 1, 0])


@pytest.mark.parametrize("vertices,problem", [
    ([5, 0], r"\(0, 5\) is not an edge of the graph"),
    ([0, 5], r"vertex 5 outside 0\.\.2"),
    ([-1, 0], r"\(0, -1\) is not an edge of the graph"),
    ([0, 1, 7], r"vertex 7 outside 0\.\.2"),
], ids=["vertices0", "vertices1", "vertices2", "vertices3"])
def test_path_strategy_rejects_vertices_outside_the_graph(vertices, problem):
    with pytest.raises(StrategyError, match=problem):
        strategy_from_path(families.path(3), vertices)


def test_depth_limit_enforced():
    n = 70
    g = families.path(n)
    with pytest.raises(StrategyError, match="limit"):
        strategy_from_path(g, list(range(n)))


def test_validate_catches_each_violation():
    g = families.path(4)
    assert validate_strategy(g, strategy_from_path(g, [0, 1, 2, 3])) is None
    violations = [
        (Strategy(9, {1: 0}, {1: 1}), r"root 9 outside 0\.\.3"),
        (Strategy(0, {}, {}), "strategy has no edges"),
        (Strategy(0, {0: 1, 1: 0}, {0: 1, 1: 2}), "root 0 has a parent"),
        (Strategy(0, {4: 0}, {4: 1}), r"vertex 4 outside 0\.\.3"),
        (Strategy(0, {3: 0}, {3: 1}), r"\(3, 0\) is not an edge of the graph"),
        (Strategy(0, {1: 2, 2: 1}, {1: 2, 2: 2}), "vertex 1 does not reach the root"),
        # named in the map's order: the first vertex whose parents lead nowhere
        (Strategy(0, {1: 0, 3: 2, 2: 3}, {1: 1, 2: 1, 3: 1}), "vertex 3 does not reach the root"),
        (Strategy(0, {1: 0}, {1: 1, 2: 1}), "weight map does not cover exactly"),
        (Strategy(0, {1: 0}, {1: 0}), "vertex 1 has nonpositive weight 0"),
        (Strategy(0, {1: 0, 2: 1}, {1: 1 << 62, 2: 1 << 62}), "unit weight over the 64-bit"),
        (Strategy(0, {1: 0, 2: 1}, {1: 3, 2: 2}), "weight does not double from 2 to its parent 1"),
    ]
    for s, problem in violations:
        with pytest.raises(StrategyError, match=problem):
            validate_strategy(g, s)


@pytest.mark.parametrize("g,s,problem", [
    (families.path(4), Strategy(0, {5: 0, 4: 0}, {5: 1, 4: 1}), r"vertex 4 outside 0\.\.3$"),
    (families.path(4), Strategy(0, {9: 0, 3: 0}, {9: 1, 3: 1}),
     r"\(3, 0\) is not an edge of the graph$"),
    (families.path(5), Strategy(0, {3: 0, 2: 0}, {3: 1, 2: 1}),
     r"\(2, 0\) is not an edge of the graph$"),
    (families.path(4), Strategy(0, {1: 0, 2: 1, 3: 2}, {3: 0, 2: -1, 1: 4}),
     "vertex 2 has nonpositive weight -1$"),
    (families.path(4), Strategy(0, {3: 2, 2: 1, 1: 0}, {1: 4, 2: 3, 3: 1}),
     "weight does not double from 2 to its parent 1$"),
], ids=["outside", "outside-and-not-an-edge", "not-an-edge", "nonpositive", "not-doubling"])
def test_validate_names_the_smallest_of_two_violations(g, s, problem):
    # each map lists the larger vertex first, so the message must come from
    # the vertex order, not the map's order
    with pytest.raises(StrategyError, match=problem):
        validate_strategy(g, s)


def test_config_weight_and_overflow():
    g = families.path(3)
    s = strategy_from_path(g, [0, 1, 2])
    assert config_weight(s, (5, 1, 3)) == 2 + 3
    deep = families.path(63)
    big = strategy_from_path(deep, list(range(63)))
    with pytest.raises(OverflowError):
        config_weight(big, (0, 4) + (0,) * 61)


def test_moves_along_strategy_edges_preserve_weight():
    g = families.petersen()
    for root in range(3):
        ss = generate_strategies(g, root, "greedy-search")
        for s in ss.strategies:
            for v, p in s.parent.items():
                if p == s.root:
                    continue
                before = [0] * g.n
                before[v] = 2
                after = [0] * g.n
                after[p] = 1
                assert config_weight(s, before) == config_weight(s, after)


def test_strategy_set_requires_uniform_root():
    g = families.path(3)
    a = strategy_from_path(g, [0, 1])
    b = strategy_from_path(g, [1, 2])
    with pytest.raises(StrategyError):
        StrategySet(0, (a, b))
    with pytest.raises(StrategyError):
        StrategySet(0, ())


# ---------------------------------------------------------------------------
# generation

def test_all_paths_on_a_path_graph():
    g = families.path(4)
    ss = generate_strategies(g, 0, "all-paths")
    assert len(ss.strategies) == 3  # one per prefix length
    assert {unit_weight(s) for s in ss.strategies} == {1, 3, 7}


def test_all_paths_respects_maxlen():
    g = families.path(4)
    with pytest.raises(CoverageError) as err:
        generate_strategies(g, 0, "all-paths", maxlen=2)
    assert 3 in err.value.vertices


def connected_graphs():
    """A random tree (vertex v > 0 hangs under an earlier vertex) plus extra edges."""
    return st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.tuples(*(st.integers(0, v - 1) for v in range(1, n))),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] != e[1]), max_size=10),
    ).map(lambda t: new_graph(n, list(enumerate(t[0], start=1)) + list(t[1]))))


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_bfs_trees_is_the_one_distance_strategy(g):
    for root in range(g.n):
        dist = distances_from(g, root)
        ecc = max(dist)
        ss = generate_strategies(g, root, "bfs-trees")
        assert len(ss.strategies) == 1
        s = ss.strategies[0]
        validate_strategy(g, s)
        assert s.weight == {v: 2 ** (ecc - dist[v]) for v in range(g.n) if v != root}
        report = lp_bound(g, ss)
        assert report.lp_bound == report.ratio_bound == unit_weight(s) + 1


def test_greedy_search_is_deterministic():
    g = families.petersen()
    first = generate_strategies(g, 0, "greedy-search")
    second = generate_strategies(g, 0, "greedy-search")
    assert [s.weight for s in first.strategies] == [s.weight for s in second.strategies]


def test_unknown_method_rejected():
    with pytest.raises(StrategyError,
                       match="'magic'; expected one of greedy-search, all-paths, bfs-trees"):
        generate_strategies(families.path(3), 0, "magic")


def test_no_strategies_on_single_vertex():
    with pytest.raises(StrategyError):
        generate_strategies(families.path(1), 0)


# ---------------------------------------------------------------------------
# weight bound oracle

def test_weight_check_path2():
    g = families.path(2)
    s = strategy_from_path(g, [0, 1])
    outcome = max_unsolvable_weight_check(g, 0, s, 3)
    assert outcome == (True, None)


def test_weight_check_cycle5_two_edge_path():
    g = families.cycle(5)
    s = strategy_from_path(g, [0, 1, 2])
    assert max_unsolvable_weight_check(g, 0, s, 5).ok


def test_weight_check_requires_valid_strategy():
    g = families.path(3)
    with pytest.raises(StrategyError):
        max_unsolvable_weight_check(g, 0, Strategy(0, {2: 0}, {2: 1}), 2)
    with pytest.raises(StrategyError, match="rooted at 0"):
        max_unsolvable_weight_check(g, 2, strategy_from_path(g, [0, 1, 2]), 3)


def test_weight_check_only_solves_configurations_below_thresholds(monkeypatch):
    g = families.cycle(5)
    dist = distances_from(g, 0)
    solved = []

    def recording(graph, config, root):
        solved.append(tuple(config))
        return is_solvable(graph, config, root)

    monkeypatch.setattr(strategy, "is_solvable", recording)
    assert max_unsolvable_weight_check(g, 0, strategy_from_path(g, [0, 1, 2]), 4).ok
    assert solved
    for counts in solved:
        assert counts[0] == 0
        assert all(c < 2 ** dist[v] for v, c in enumerate(counts))


def test_weight_check_rejects_disconnected_graph():
    g = new_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="connected"):
        max_unsolvable_weight_check(g, 0, strategy_from_path(g, [0, 1]), 3)


# ---------------------------------------------------------------------------
# JSON round trip

BROOM = deep_broom()
BROOM_ENTRY = {"parent": {str(v): u for u, v in BROOM.edges()}}


def test_json_round_trip(tmp_path):
    g = families.petersen()
    ss = generate_strategies(g, 0, "greedy-search")
    target = tmp_path / "set.json"
    save_strategy_set(ss, target)
    back = load_strategy_set(target, g)
    assert back == ss


def test_json_weights_rederived_when_absent():
    data = {"root": 0, "strategies": [{"parent": {"1": 0, "2": 1, "3": 2}}]}
    ss = strategy_set_from_json(data, families.path(4))
    assert ss.strategies[0].weight == {1: 4, 2: 2, 3: 1}


def test_json_weights_kept_when_present():
    g = families.path(4)
    ss = StrategySet(0, (strategy_from_path(g, [0, 1, 2, 3]),))
    data = strategy_set_to_json(ss)
    assert data["strategies"][0]["weight"] == {"1": 4, "2": 2, "3": 1}
    assert strategy_set_from_json(data, g) == ss


def test_json_missing_fields_rejected():
    with pytest.raises(StrategyError):
        strategy_set_from_json({"strategies": []}, families.path(3))


@pytest.mark.parametrize("entry,problem", [
    ({"parent": {"1": 0, "2": 1}, "weight": {"1": 1, "2": 1}}, "does not double"),
    ({"parent": {"3": 0}, "weight": {"3": 1}}, "not an edge"),
    ({"parent": {"3": 0}}, "not an edge"),
    ({"parent": {"1": 0, "2": 1, "3": 2, "-1": 3}}, "vertex -1 outside 0..4"),
    ({"parent": {}}, "strategy has no edges"),
    ({"parent": {"1": "zero"}}, "of integers"),
    ({"parent": {"1": 0}, "weight": {"1": 1.5}}, "of integers"),
    ({"parent": {"one": 0}}, "non-integer vertex"),
    ({"parent": {"1": 0, "2": 1}, "weight": {"1": 2 ** 63, "2": 2 ** 62}}, "64-bit"),
    ({"weight": {"1": 1}}, '"parent"'),
    ([1, 0], "object"),
    ({"parent": {"1": False}}, '"parent" is not an object of integers'),
    ({"parent": {"1": 0}, "weight": {"1": True}}, '"weight" is not an object of integers'),
    # int() reads each of these vertices as 1
    ({"parent": {"+1": 0}}, "non-integer vertex"),
    ({"parent": {"0_1": 0}}, "non-integer vertex"),
    ({"parent": {"1": 0}, "weight": {" 1": 1}}, "non-integer vertex"),
    ({"parent": {"1": 0, "01": 0}}, '"parent" names a vertex twice'),
    (BROOM_ENTRY, "64-bit"),
])
def test_json_invalid_entry_named_by_index(entry, problem):
    data = {"root": 0, "strategies": [{"parent": {"1": 0}}, entry]}
    g = BROOM if entry is BROOM_ENTRY else families.path(5)
    with pytest.raises(StrategyError, match=f"strategy 1: .*{problem}"):
        strategy_set_from_json(data, g)


@pytest.mark.parametrize("data,problem", [
    ({"root": 0.9, "strategies": [{"parent": {"1": 0}}]}, '"root" must be an integer, got 0.9'),
    ({"root": "0", "strategies": [{"parent": {"1": 0}}]}, '"root" must be an integer, got "0"'),
    ({"root": True, "strategies": [{"parent": {"1": 0}}]}, '"root" must be an integer, got true'),
    ({"root": 0, "strategies": "ab"}, '"strategies" must be a list'),
], ids=["float-root", "string-root", "bool-root", "string-strategies"])
def test_json_field_types_checked(data, problem):
    with pytest.raises(StrategyError) as err:
        strategy_set_from_json(data, families.path(5))
    assert str(err.value).startswith(problem)


def test_json_root_outside_graph_rejected():
    with pytest.raises(StrategyError, match="outside"):
        strategy_set_from_json({"root": 9, "strategies": [{"parent": {"1": 0}}]},
                               families.path(5))


@pytest.mark.parametrize("method,option", [
    ("all-paths", "maxlen"), ("bfs-trees", "budget"),
    ("greedy-search", "maxlen"), ("greedy-search", "budget"),
])
@pytest.mark.parametrize("value", [0, -1])
def test_generation_limits_must_be_positive(method, option, value):
    with pytest.raises(StrategyError, match=f"^{option} must be positive, got {value}$"):
        generate_strategies(families.path(4), 0, method, **{option: value})


@pytest.mark.parametrize("method,option", [
    ("bfs-trees", "maxlen"), ("bfs-trees", "budget"), ("all-paths", "budget"),
])
def test_generation_option_the_method_does_not_read_is_an_error(method, option):
    with pytest.raises(StrategyError, match=f"^{method} takes no {option}$"):
        generate_strategies(families.path(4), 0, method, **{option: 3})


def test_greedy_search_skips_trees_over_the_unit_weight_limit():
    # BROOM's spanning trees hang ten leaves at weight 2^61 over a path of
    # weight 2^62 - 1; its paths and single-branch trees stay under the limit
    ss = generate_strategies(BROOM, 0, "greedy-search")
    assert len(ss.strategies) == 11
    for s in ss.strategies:
        validate_strategy(BROOM, s)
    report = lp_bound(BROOM, ss)
    assert report.ratio_bound == report.lp_bound == 2 ** 62 + 10
    # bfs-trees is the one spanning tree, so it has nothing else to offer
    with pytest.raises(StrategyError, match="^unit weight over the 64-bit limit$"):
        generate_strategies(BROOM, 0, "bfs-trees")


@pytest.mark.parametrize("g,sizes,digest", [
    (families.petersen(), [3] * 10,
     "0d1f31a3761861a1342eb67c76e1d4064665907d701244408be158a95f27f40a"),
    (families.cycle(6), [2] * 6,
     "dcffb7ecd05102f2b94f9a7da809d33ec74dfc17eca3788ad25aa94b140ff9cf"),
    (families.hypercube(3), [21] * 8,
     "e12ded819f73b3e8c0ac2e1e4a6de6cea605762323118b8d723288c49e062da9"),
], ids=["petersen", "cycle6", "hypercube3"])
def test_greedy_search_output_pinned(g, sizes, digest):
    # every root's set, as the steepest descent chose it from the same pool
    sets = [strategy_set_to_json(generate_strategies(g, r, "greedy-search"))
            for r in range(g.n)]
    assert [len(s["strategies"]) for s in sets] == sizes
    assert hashlib.sha256(json.dumps(sets, sort_keys=True).encode()).hexdigest() == digest


def test_greedy_search_cycle6_root0_pinned():
    ss = generate_strategies(families.cycle(6), 0, "greedy-search")
    assert strategy_set_to_json(ss)["strategies"] == [
        {"parent": {"1": 0, "2": 1, "3": 2}, "weight": {"1": 4, "2": 2, "3": 1}},
        {"parent": {"3": 4, "4": 5, "5": 0}, "weight": {"3": 1, "4": 2, "5": 4}},
    ]


def test_bruhat4_bound_pinned():
    # the headline fixed point: the root-0 greedy set and the whole-graph JSON
    g = families.bruhat(4)
    ss = generate_strategies(g, 0, "greedy-search")
    report = lp_bound(g, ss)
    assert (len(ss.strategies), report.total_unit_weight, report.min_coverage) == (47, 3354, 38)
    assert (report.ratio_bound, report.lp_bound) == (89, 68)
    payload = bound_graph(g).to_json_dict(g)
    assert payload["overall_bound"] == 68
    assert [r["root"] for r in payload["per_root"] if "dual" in r] == list(range(24))
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == \
        "e0388f53ea937cb53c2ea7c792fdf3354d1ea8b1163a2718b9e511356050a8ab"


# ---------------------------------------------------------------------------
# the pruned descent against the plain scan

def _plain_descent(n, root, pool, start):
    """Steepest descent that computes every candidate's new minimum at every step.

    The scan _greedy_descent prunes, kept here as the reference it must match.
    """
    current = list(start)
    try:
        cover = coverage(n, root, [pool[i] for i in current])
    except CoverageError:
        return None
    units = [unit_weight(pool[i]) for i in current]
    total = sum(units)
    low = min(cover[v] for v in range(n) if v != root)
    while len(current) > 1:
        best = None
        ascending = sorted((v for v in range(n) if v != root), key=cover.__getitem__)
        for drop, i in enumerate(current):
            weight = pool[i].weight
            new_low = min(cover[v] - w for v, w in weight.items())
            outside = next((v for v in ascending if v not in weight), None)
            if outside is not None and cover[outside] < new_low:
                new_low = cover[outside]
            if new_low == 0:
                continue
            new_total = total - units[drop]
            if new_total * low < total * new_low and (best is None or
                    new_total * best[1][1] < best[1][0] * new_low):
                best = (drop, (new_total, new_low))
        if best is None:
            break
        drop, (total, low) = best
        for v, w in pool[current[drop]].weight.items():
            cover[v] -= w
        current.pop(drop)
        units.pop(drop)
    return current, (total, low)


def _random_connected_graph(seed):
    """A random tree on 3..11 vertices plus up to n random extra edges."""
    rng = random.Random(seed)
    n = rng.randint(3, 11)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
    return new_graph(n, edges)


DESCENT_GRAPHS = {
    "bruhat4": families.bruhat(4), "petersen": families.petersen(),
    "hypercube3": families.hypercube(3), "cycle9": families.cycle(9),
    **{f"random{seed}": _random_connected_graph(seed) for seed in range(6)},
}


def _descent_inputs(monkeypatch, g, root):
    """Every (pool, start) that greedy-search hands the descent at the root."""
    calls = []
    descent = strategy._greedy_descent

    def recording(n, r, pool, start):
        calls.append((pool, list(start)))
        return descent(n, r, pool, start)

    with monkeypatch.context() as patch:
        patch.setattr(strategy, "_greedy_descent", recording)
        generate_strategies(g, root, "greedy-search")
    return calls


@pytest.mark.parametrize("name", DESCENT_GRAPHS)
def test_pruned_descent_matches_the_plain_scan(name, monkeypatch):
    g = DESCENT_GRAPHS[name]
    rng = random.Random(name)
    for root in (0, g.n - 1):
        calls = _descent_inputs(monkeypatch, g, root)
        pool = calls[0][0]
        # random starts, in pool order or shuffled, test the tie rule's start order
        for _ in range(25):
            start = rng.sample(range(len(pool)), rng.randint(1, len(pool)))
            if rng.random() < 0.5:
                start.sort()
            calls.append((pool, start))
        for pool, start in calls:
            assert strategy._greedy_descent(g.n, root, pool, start) == \
                _plain_descent(g.n, root, pool, start)


def _generated(g, root, options):
    try:
        return generate_strategies(g, root, "greedy-search", **options)
    except ValueError as exc:
        return repr(exc)


@pytest.mark.parametrize("options", [{"budget": 3}, {"budget": 17}, {"budget": 40}, {"maxlen": 2}],
                         ids=["budget3", "budget17", "budget40", "maxlen2"])
def test_greedy_search_picks_what_the_plain_scan_picks(options, monkeypatch):
    for g in DESCENT_GRAPHS.values():
        roots = (0, g.n - 1) if g.n > 12 else range(g.n)
        pruned = [_generated(g, root, options) for root in roots]
        with monkeypatch.context() as patch:
            patch.setattr(strategy, "_greedy_descent", _plain_descent)
            assert [_generated(g, root, options) for root in roots] == pruned
