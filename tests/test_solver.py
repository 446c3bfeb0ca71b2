"""Exhaustive solver: solvability search, witnesses, and pebbling numbers."""

import functools
import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pebbling import families, solver
from pebbling.graph import GraphError, distance, distances_from, new_graph
from pebbling.solver import (
    ConfigFormatError,
    EnumerationCapError,
    SearchCapError,
    _bounded_compositions,
    _moves,
    _push,
    _push_runs,
    _root_geometry,
    _scan_level,
    _search,
    apply_moves,
    format_config,
    is_solvable,
    parse_config,
    pebbling_number,
    pebbling_number_max,
)
from pebbling.strategy import generate_strategies
from pebbling.treepi import max_path_partition, tree_pebbling_number

from conftest import small_catalog


# ---------------------------------------------------------------------------
# configuration text format

def test_config_round_trip():
    assert parse_config("0:2,3:1", 4) == (2, 0, 0, 1)
    assert format_config((2, 0, 0, 1)) == "0:2,3:1"
    assert parse_config("", 3) == (0, 0, 0)
    assert format_config((0, 0, 0)) == ""


@pytest.mark.parametrize("text", ["2:1,1:1", "1:1,1:2", "5:1", "a:1", "1", "1:-2",
                                  # int() reads these as 10 pebbles on vertex 1
                                  # and 3 on vertex 2
                                  "1:1_0", "+2:\u0663", "2: 3"])
def test_config_rejects_malformed(text):
    with pytest.raises(ConfigFormatError):
        parse_config(text, 4)


def test_config_accepts_explicit_zero():
    assert parse_config("1:0,2:5", 4) == (0, 0, 5, 0)


# ---------------------------------------------------------------------------
# solvability

def test_single_move():
    g = families.path(2)
    result = is_solvable(g, (0, 2), 0)
    assert result.solvable
    assert result.witness == ((1, 0),)


def test_pebble_already_on_root():
    g = families.petersen()
    result = is_solvable(g, (1,) + (0,) * 9, 0)
    assert result.solvable and result.witness == ()


def test_petersen_outer_ones_unreachable_inner_root():
    g = families.petersen()
    config = [0] * 10
    for v in range(5):
        config[v] = 1  # outer 5-cycle
    for root in range(5, 10):
        assert not is_solvable(g, config, root).solvable


def test_cycle5_figure_chain():
    g = families.cycle(5)
    result = is_solvable(g, (0, 0, 3, 2, 0), 0)
    assert result.solvable


def test_witnesses_replay_to_the_root():
    for _, g, pi in small_catalog():
        config = [0] * g.n
        config[g.n - 1] = pi
        result = is_solvable(g, config, 0)
        assert result.solvable
        final = apply_moves(tuple(config), result.witness)
        assert final[0] >= 1


def test_apply_moves_rejects_illegal():
    g = families.path(3)
    with pytest.raises(ValueError):
        apply_moves((0, 1, 0), ((1, 0),))  # only one pebble at source


def test_answers_do_not_leak_between_graphs_or_roots():
    # path(5) and cycle(5) have the same n; roots 0 and 4 of path(5) differ
    path, cycle = families.path(5), families.cycle(5)
    queries = [(path, (0, 0, 0, 0, 15), 0), (cycle, (0, 0, 0, 0, 15), 0),
               (path, (0, 0, 0, 0, 15), 4), (path, (3, 0, 0, 0, 0), 4),
               (cycle, (3, 0, 0, 0, 0), 4), (path, (0, 0, 0, 0, 15), 0)]
    uncached = []
    for g, config, root in queries:
        _root_geometry.cache_clear()
        uncached.append(is_solvable(g, config, root).solvable)
    assert uncached == [False, True, True, False, True, False]
    for _ in range(2):  # interleaved, the second round answering from the cache
        assert [is_solvable(g, c, r).solvable for g, c, r in queries] == uncached


def test_far_stack_doubles_per_step():
    g = families.path(4)
    assert is_solvable(g, (0, 0, 0, 8), 0).solvable
    assert not is_solvable(g, (0, 0, 0, 7), 0).solvable


# ---------------------------------------------------------------------------
# the decisions made without a search, against a plain search

def _reference_solver(g, root):
    """Plain memoized search over configurations: every move, no push, no thresholds."""
    @functools.lru_cache(maxsize=None)
    def solvable(c):
        if c[root]:
            return True
        for u in range(g.n):
            if c[u] >= 2:
                for v in g.adj[u]:
                    nxt = list(c)
                    nxt[u] -= 2
                    nxt[v] += 1
                    if solvable(tuple(nxt)):
                        return True
        return False
    return solvable


def _push_accepts(g, config, root, target):
    """Farthest from target first, every other vertex moves c // 2 of its c
    pebbles to its lowest-numbered neighbor one step closer to target; does
    some vertex reach 2^dist(., root)?"""
    dist, to_t = distances_from(g, root), distances_from(g, target)
    c = list(config)
    for u in sorted((v for v in range(g.n) if to_t[v]), key=lambda v: (-to_t[v], v)):
        v = min(w for w in g.adj[u] if to_t[w] == to_t[u] - 1)
        c[v] += c[u] // 2
        c[u] %= 2
        if c[v] >= 1 << dist[v]:
            return True
    return False


def _potential_rejects(g, config, root):
    """Is the sum over v of c(v) / 2^dist(v, root) below 1, the value of one
    pebble on the root?  No move raises it."""
    dist = distances_from(g, root)
    return sum(Fraction(c, 2 ** dist[v]) for v, c in enumerate(config)) < 1


def _route_accepts(g, config, root):
    """Does some vertex t collect 2^dist(t, root) pebbles when every vertex
    v sends t the c // 2^dist(v, t) pebbles its own stack can carry there?"""
    dist = distances_from(g, root)
    for t in range(g.n):
        to_t = distances_from(g, t)
        if sum(c // 2 ** to_t[v] for v, c in enumerate(config)) >= 2 ** dist[t]:
            return True
    return False


_SWEEP_GRAPHS = [("path5", families.path(5), range(5)), ("cycle6", families.cycle(6), range(6)),
                ("hypercube3", families.hypercube(3), range(8)),
                ("tree-a", families.tree_from_parents([-1, 0, 0, 0, 1, 2, 4]), range(7)),
                # vertex-transitive, so one root; the pushes toward other
                # targets accept some of its configurations that the push
                # toward the root does not
                ("petersen", families.petersen(), range(1))]


@pytest.mark.parametrize("g,root", [(g, root) for _, g, roots in _SWEEP_GRAPHS for root in roots],
                         ids=[f"{name}-r{root}" for name, _, roots in _SWEEP_GRAPHS for root in roots])
def test_every_configuration_below_the_thresholds_matches_a_plain_search(g, root):
    # A solvable answer is checked by replaying its witness, which proves the
    # plain search would find one too; an unsolvable one by the plain search.
    # The answer comes without a search exactly when the tree rule, the
    # push toward some target or the potential rule, each re-implemented
    # above, decides it; every configuration that routing to one target
    # would solve is among them.
    reference = _reference_solver(g, root)
    is_tree = g.num_edges == g.n - 1  # the sweep's graphs are connected
    dist = distances_from(g, root)
    caps = [(1 << d) - 1 for d in dist]
    for config in itertools.product(*(range(cap + 1) for cap in caps)):
        result = is_solvable(g, config, root)
        if result.solvable:
            assert apply_moves(config, result.witness)[root] >= 1, config
        else:
            assert result.witness is None and not reference(config), config
        decided = (is_tree or any(_push_accepts(g, config, root, t) for t in range(g.n))
                   or _potential_rejects(g, config, root))
        assert (result.explored == 0) == decided, config
        assert result.explored == 0 or not _route_accepts(g, config, root), config


@pytest.mark.parametrize("g,root", [(g, root) for _, g, roots in _SWEEP_GRAPHS for root in roots],
                         ids=[f"{name}-r{root}" for name, _, roots in _SWEEP_GRAPHS for root in roots])
def test_the_decision_push_accepts_what_the_witness_push_accepts(g, root):
    # the one push loop decides as the reference push toward every target
    # does, and the witness runs _push_runs reads off an accepting push
    # replay, the last one bringing its target up to its threshold
    geometry = _root_geometry(g, root)
    for config in itertools.product(*(range(cap + 1) for cap in geometry.caps)):
        pushed = _push(geometry, config)
        assert (pushed is not None) == any(_push_accepts(g, config, root, t)
                                           for t in range(g.n)), config
        if pushed is not None:
            runs = _push_runs(*pushed)
            target = runs[-1][1]
            final = apply_moves(config, _moves(runs))
            assert final[target] >= geometry.threshold[target], config


def test_every_level_64_configuration_of_path7_is_pushed_to_the_root():
    geometry = _root_geometry(families.path(7), 6)
    configs = list(_bounded_compositions(64, geometry.caps))
    assert len(configs) == 32767
    for config in configs:
        assert _push(geometry, config) is not None, config


# ---------------------------------------------------------------------------
# the prefix-pruned level scan against a plain scan

def _plain_scan(geometry, caps, total):
    """The level's first configuration, in enumeration order, that no push and _search reject."""
    return next((c for c in _bounded_compositions(total, caps)
                 if _push(geometry, c) is None and _search(geometry, c)[0] is None), None)


def _random_small_graphs(count, seed):
    """Random connected graphs on 4..7 vertices: a random tree plus up to n extra edges."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(4, 7)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
        graphs.append(new_graph(n, edges))
    return graphs


_SCAN_GRAPHS = {
    **{f"path{n}": families.path(n) for n in range(2, 8)},
    **{f"cycle{n}": families.cycle(n) for n in range(3, 9)},
    **{f"complete{n}": families.complete(n) for n in range(2, 6)},
    "petersen": families.petersen(), "hypercube3": families.hypercube(3),
    "tree-a": families.tree_from_parents([-1, 0, 0, 0, 1, 2, 4]),
    "binary7": families.tree_from_parents([-1, 0, 0, 1, 1, 2, 2]),
    **{f"random{i}": g for i, g in enumerate(_random_small_graphs(20, 20))},
}


@pytest.mark.parametrize("g", _SCAN_GRAPHS.values(), ids=_SCAN_GRAPHS.keys())
def test_pruned_scan_matches_a_plain_scan(g, monkeypatch):
    # every level from one below the scan's lower bound to one past the
    # rooted pebbling number, at every root; the configurations the pruned
    # scan searches past the push are configurations of the level, in
    # enumeration order
    searched = []

    def search(geometry, counts):
        searched.append(counts)
        return _search(geometry, counts)

    monkeypatch.setattr(solver, "_search", search)
    for root in range(g.n):
        geometry = _root_geometry(g, root)
        caps = geometry.caps
        lower = max(g.n, 1 << max(geometry.dist))
        level, pi = lower - 1, None
        while pi is None or level <= pi + 1:
            plain = _plain_scan(geometry, caps, level)
            searched.clear()
            assert _scan_level(geometry, caps, level) == plain, (root, level)
            level_order = {c: k for k, c in enumerate(_bounded_compositions(level, caps))}
            positions = [level_order[c] for c in searched]
            assert positions == sorted(set(positions)), (root, level)
            if plain is None and level >= lower and pi is None:
                pi = level
            level += 1
        assert pebbling_number(g, root).value == pi, root


@pytest.mark.parametrize("caps", [(0,), (2,), (0, 3, 0), (1, 3, 7), (2, 0, 1, 4), (3, 3, 3, 3),
                                  (1, 1, 0, 1, 1)])
def test_unpruned_walk_searches_the_whole_enumeration(caps, monkeypatch):
    # with no prefix accepted, no potential cut and every configuration
    # solvable, the walk searches exactly the configurations
    # _bounded_compositions yields
    searched = []

    def search(geometry, counts):
        searched.append(counts)
        return [], 1

    monkeypatch.setattr(solver, "_push", lambda geometry, counts: None)
    monkeypatch.setattr(solver, "_search", search)
    uncut = SimpleNamespace(potential=(0,) * len(caps), unit=0)
    for total in range(sum(caps) + 3):
        searched.clear()
        assert _scan_level(uncut, caps, total) is None
        assert searched == list(_bounded_compositions(total, caps)), total


@pytest.mark.parametrize("g,root,pi", [(families.path(7), 6, 64), (families.cycle(8), 0, 16),
                                       (families.petersen(), 0, 10), (families.hypercube(3), 0, 8),
                                       (families.tree_from_parents([-1, 0, 0, 0, 1, 2, 4]), 5, 33)],
                         ids=["path7-r6", "cycle8-r0", "petersen-r0", "hypercube3-r0", "tree-r5"])
def test_the_scan_pushes_each_configuration_once_and_builds_no_runs(g, root, pi, monkeypatch):
    # at every level up to pi, each configuration the walk pushes, prefix or
    # full, is pushed once, and its potential is at least unit; the scan
    # needs only the push's decision, so it never reads a witness
    pushed = []

    def push(geometry, counts):
        pushed.append(tuple(counts))
        return _push(geometry, counts)

    def push_runs(order, held, last):
        raise AssertionError(f"the scan read the runs of a push to {order[-1][1]}")

    monkeypatch.setattr(solver, "_push", push)
    monkeypatch.setattr(solver, "_push_runs", push_runs)
    geometry = _root_geometry(g, root)
    caps = geometry.caps
    for level in range(g.n, pi + 1):
        pushed.clear()
        assert (_scan_level(geometry, caps, level) is None) == (level == pi), level
        assert len(pushed) == len(set(pushed)), level
        for counts in pushed:
            assert sum(c * p for c, p in zip(counts, geometry.potential)) >= geometry.unit, counts


_PUSH_GRAPHS = [families.path(5), families.cycle(6), families.petersen(), families.hypercube(3),
                families.tree_from_parents([-1, 0, 0, 0, 1, 2, 4]), families.bruhat(3)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_push_acceptance_is_monotone(data):
    # what lets the level scan skip every completion of an accepted prefix
    g = data.draw(st.sampled_from(_PUSH_GRAPHS))
    root = data.draw(st.integers(0, g.n - 1))
    config = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n))
    geometry = _root_geometry(g, root)
    if _push(geometry, config) is not None:
        for v in range(g.n):
            bigger = list(config)
            bigger[v] += 1
            assert _push(geometry, bigger) is not None, (root, config, v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_an_accepted_configuration_holds_a_unit_of_potential(data):
    # what lets the level scan skip the push of a prefix below unit
    g = data.draw(st.sampled_from(_PUSH_GRAPHS))
    root = data.draw(st.integers(0, g.n - 1))
    config = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n))
    geometry = _root_geometry(g, root)
    if _push(geometry, config) is not None:
        held = sum(c * p for c, p in zip(config, geometry.potential))
        assert held >= geometry.unit, (root, config)


def test_tree_answers_come_without_a_search():
    g = families.tree_from_parents([-1, 0, 0, 1, 1, 2, 2])
    result = is_solvable(g, (0, 0, 0, 3, 1, 1, 1), 0)
    assert not result.solvable and result.witness is None and result.explored == 0
    result = is_solvable(g, (0, 0, 0, 3, 3, 0, 0), 0)
    assert result.solvable and result.explored == 0


def test_the_tree_rule_reads_the_roots_component():
    # 5 vertices and 4 edges, a 4-cycle plus an isolated vertex: no tree,
    # and no geometry either, as the graph is not connected
    g = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for call in (lambda: _root_geometry(g, 0), lambda: is_solvable(g, (0, 0, 2, 1, 0), 0)):
        with pytest.raises(GraphError, match="^pebbling numbers need a connected graph$"):
            call()


def test_concentrated_bruhat4_configuration_is_pushed_without_a_search():
    # 63 pebbles on the antipode of root 0 and 1 on vertex 1: the push
    # toward vertex 1 carries 63 >> 5 = 1 pebble from vertex 23 there along
    # a geodesic, and vertex 1 then holds 2 = 2^dist(1, 0).  The push moves
    # whole stacks: 31 + 15 + 7 + 3 + 1 moves to vertex 1, then one to the
    # root.  The depth-first search alone ran for minutes without an answer.
    g = families.bruhat(4)
    config = parse_config("1:1,23:63", g.n)
    result = is_solvable(g, config, 0)
    assert result.solvable and result.explored == 0
    assert len(result.witness) == 58
    assert apply_moves(config, result.witness)[0] >= 1


def test_concentrated_bruhat4_configuration_is_rejected_by_its_potential():
    # 63 pebbles on the antipode of root 0, at distance 6: 63 / 2^6 < 1, so
    # no move sequence reaches the root.  The depth-first search alone
    # stops at its state cap here, after 8-9 s, without an answer.
    g = families.bruhat(4)
    result = is_solvable(g, parse_config("23:63", g.n), 0)
    assert result == solver.SolveResult(False, None, 0)


def test_the_search_stops_past_its_state_cap(monkeypatch):
    # every push fails here, and the search visits 60 configurations before
    # it proves the configuration unsolvable
    g, explored = families.petersen(), 60
    config = parse_config("2:1,3:1,6:1,7:1,8:3,9:1", g.n)
    monkeypatch.setattr(solver, "DEFAULT_MAX_STATES", explored)
    result = is_solvable(g, config, 0)
    assert not result.solvable and result.explored == explored
    monkeypatch.setattr(solver, "DEFAULT_MAX_STATES", explored - 1)
    with pytest.raises(SearchCapError) as err:
        is_solvable(g, config, 0)
    assert (err.value.cap, err.value.explored) == (explored - 1, explored)
    assert str(err.value) == (f"the solvability search explored {explored} configurations, "
                              f"over the cap of {explored - 1}, without an answer")


# ---------------------------------------------------------------------------
# pebbling numbers

@pytest.mark.parametrize("name,g,pi", small_catalog())
def test_catalog_values(name, g, pi):
    result = pebbling_number_max(g)
    assert result.value == pi, name
    critical = result.critical_config
    assert sum(critical) == pi - 1
    assert not is_solvable(g, critical, result.root).solvable


def test_rooted_values():
    assert pebbling_number(families.path(1), 0).value == 1
    assert pebbling_number(families.path(3), 0).value == 4
    assert pebbling_number(families.complete(3), 1).value == 3
    assert pebbling_number(families.cycle(5), 2).value == 5


def test_path4_maximized_at_endpoint():
    result = pebbling_number_max(families.path(4))
    assert result.value == 8
    assert result.root in (0, 3)


@pytest.mark.parametrize("solve,value,critical", [
    (lambda: pebbling_number(families.path(7), 6), 64, (63, 0, 0, 0, 0, 0, 0)),
    (lambda: pebbling_number(families.tree_from_parents([-1, 0, 0, 0, 1, 2, 4]), 5), 33,
     (0, 0, 0, 1, 0, 0, 31)),
    (lambda: pebbling_number_max(families.cycle(8)), 16, (0, 0, 0, 0, 15, 0, 0, 0)),
    (lambda: pebbling_number_max(families.petersen()), 10, (0, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    # path(7) relabelled as 5-3-1-0-2-4-6, rooted at the end 5
    (lambda: pebbling_number(families.tree_from_parents([-1, 0, 0, 1, 2, 3, 4]), 5), 64,
     (0, 0, 0, 0, 0, 0, 63)),
    (lambda: pebbling_number(families.complete(4), 0), 4, (0, 1, 1, 1)),
    (lambda: pebbling_number(families.path(3), 0), 4, (0, 0, 3)),
    (lambda: pebbling_number(families.cycle(5), 0), 5, (0, 1, 1, 1, 1)),
], ids=["path7-r6", "tree-r5", "cycle8", "petersen", "relabelled-path7-r5", "complete4-r0",
        "path3-r0", "cycle5-r0"])
def test_critical_configurations_are_pinned(solve, value, critical):
    # the first unsolvable configuration in enumeration order: any change to
    # the search or the enumeration must keep it
    result = solve()
    assert (result.value, result.critical_config) == (value, critical)


@pytest.mark.parametrize("caps", [(), (0,), (0, 0), (2,), (0, 3, 0), (1, 3, 7),
                                  (2, 0, 1, 4), (3, 3, 3, 3), (1, 1, 0, 1, 1)])
def test_bounded_compositions_in_lexicographic_order(caps):
    for total in range(sum(caps) + 3):
        brute = [x for x in itertools.product(*(range(c + 1) for c in caps))
                 if sum(x) == total]
        assert list(_bounded_compositions(total, caps)) == brute, total


def test_disconnected_graph_rejected():
    halves = new_graph(4, [(0, 1), (2, 3)])
    for call in (lambda: pebbling_number(halves, 0), lambda: pebbling_number_max(halves)):
        with pytest.raises(GraphError, match="^pebbling numbers need a connected graph$"):
            call()


@pytest.mark.parametrize("config", [(0, 2, 0, 0), (1, 0, 0, 0), (0, 0, 0)],
                         ids=["push", "root-holds-a-pebble", "wrong-length"])
def test_disconnected_graph_is_one_error_before_the_config(config):
    # the root's component alone would answer the first two: 1->0, no moves
    halves = new_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="^pebbling numbers need a connected graph$"):
        is_solvable(halves, config, 0)


def test_root_outside_the_graph_is_checked_first():
    with pytest.raises(GraphError, match="^vertex 4 outside 0..3$"):
        is_solvable(new_graph(4, [(0, 1), (2, 3)]), (0, 0, 0, 0), 4)


@pytest.mark.parametrize("root", [True, 1.0, "1", None], ids=["True", "1.0", "str", "None"])
@pytest.mark.parametrize("call", [
    lambda g, root: is_solvable(g, (0, 0, 0, 0), root),
    lambda g, root: pebbling_number(g, root),
    lambda g, root: generate_strategies(g, root),
    lambda g, root: generate_strategies(g, root, "no-such-method"),
    lambda g, root: max_path_partition(g, root),
    lambda g, root: tree_pebbling_number(g, root),
    lambda g, root: distance(g, root, 0),
    lambda g, root: distance(g, 0, root),
], ids=["is_solvable", "pebbling_number", "generate_strategies", "generate_strategies-bad-method",
        "max_path_partition", "tree_pebbling_number", "distance-u", "distance-v"])
def test_a_root_that_is_not_an_int_is_a_graph_error(call, root):
    # True and 1.0 equal 1 and hash as 1; neither may pass for root 1,
    # whether or not root 1's geometry is cached.  "1" and None do not
    # compare with an int, so no range test may run before the type test;
    # and a bad root is reported before a bad generation method.
    g = families.path(4)
    _root_geometry.cache_clear()
    for _ in range(2):
        with pytest.raises(GraphError, match=f"^{re.escape(f'vertex {root!r} is not an int')}$"):
            call(g, root)
        assert pebbling_number(g, 1).root == 1


def test_witness_below_refuses_a_solvable_stack(monkeypatch):
    # the far stack has potential 3 < unit 4, so neither the push nor the
    # rest of the search can accept it; should it ever, the scan fails
    # loudly rather than report a wrong witness.  The geometry builds the
    # witness, so the cached one must go.
    _root_geometry.cache_clear()
    monkeypatch.setattr(solver, "_search", lambda geometry, counts: ([(2, 1, 1)], 0))
    with pytest.raises(RuntimeError, match="^the witness 2:3 below the lower bound is solvable$"):
        pebbling_number(families.path(3), 0)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError) as err:
        pebbling_number(families.petersen(), 0, max_configs=10)
    assert err.value.cap == 10
    assert err.value.count > 10


def test_enumeration_cap_over_all_roots():
    g = families.path(5)  # three root orbits; the first scanned hits the cap
    with pytest.raises(EnumerationCapError) as err:
        pebbling_number_max(g, max_configs=10)
    exc = err.value
    assert (exc.cap, exc.level, exc.count, exc.last_verified) == (10, 16, 63, 15)
    assert str(exc) == ("level 16 needs 63 configurations, over the cap of 10; "
                        "levels up to 15 were verified")


def _all_roots_sweep(g):
    """The first maximum in root order over every root's own scan."""
    return max((pebbling_number(g, root) for root in range(g.n)), key=lambda r: r.value)


@pytest.mark.parametrize("g", [
    families.path(5), families.path(6), families.cycle(6), families.cycle(7),
    families.petersen(), families.hypercube(3), families.complete(5),
    families.tree_from_parents([-1, 0, 0, 1, 1, 2, 2]),
    families.tree_from_parents([-1, 0, 0, 0, 1, 2, 4]),
    # path(5) relabelled as 3-1-0-2-4: the maximum sits at roots 3 and 4
    families.tree_from_parents([-1, 0, 0, 1, 2]),
], ids=["path5", "path6", "cycle6", "cycle7", "petersen", "hypercube3", "complete5",
        "binary7", "tree-a", "relabelled-path5"])
def test_pebbling_number_max_equals_an_all_roots_sweep(g):
    assert pebbling_number_max(g) == _all_roots_sweep(g)


def test_pebbling_number_max_scans_one_root_per_orbit(monkeypatch):
    scanned = []
    original = solver.pebbling_number

    def scan(g, root, **kwargs):
        scanned.append(root)
        return original(g, root, **kwargs)

    monkeypatch.setattr(solver, "pebbling_number", scan)
    pebbling_number_max(families.petersen())
    assert scanned == [0]
    scanned.clear()
    pebbling_number_max(families.path(5))
    assert scanned == [0, 1, 2]


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=5, max_size=5),
       st.integers(0, 4))
def test_monotone_adding_pebbles_never_hurts(config, root):
    g = families.cycle(5)
    base = is_solvable(g, config, root).solvable
    if base:
        for v in range(5):
            bigger = list(config)
            bigger[v] += 1
            assert is_solvable(g, bigger, root).solvable


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=10, max_size=10),
       st.integers(0, 9))
def test_solvable_iff_witness(config, root):
    g = families.petersen()
    result = is_solvable(g, config, root)
    if result.solvable:
        assert apply_moves(tuple(config), result.witness)[root] >= 1
    else:
        assert result.witness is None
