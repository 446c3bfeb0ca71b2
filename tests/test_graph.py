"""Graph construction, BFS metrics, the edge-list file format and root orbits."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pebbling import families, graph
from pebbling.graph import (
    GraphError,
    GraphFormatError,
    connected_distances,
    distance,
    distances_from,
    eccentricity,
    from_edge_list,
    is_connected,
    new_graph,
    read_edge_list,
    root_orbits,
    to_edge_list,
    write_edge_list,
)


def test_new_graph_basics():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.num_edges == 3
    assert g.degree(1) == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_new_graph_deduplicates_edges():
    g = new_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_new_graph_rejects_bad_edges():
    with pytest.raises(GraphError, match="self-loop"):
        new_graph(3, [(1, 1)])
    with pytest.raises(GraphError, match=r"\(0, 7\)"):
        new_graph(3, [(0, 7)])
    with pytest.raises(GraphError):
        new_graph(-1, [])


@pytest.mark.parametrize("n", [0, -1])
def test_a_graph_has_at_least_one_vertex(n):
    with pytest.raises(GraphError, match=f"^a graph needs at least one vertex, got {n}$"):
        new_graph(n, [])


def test_single_vertex_is_connected():
    g = new_graph(1, [])
    assert is_connected(g)
    assert connected_distances(g, 0) == [0]


def test_adjacency_is_sorted():
    g = new_graph(5, [(0, 4), (0, 2), (0, 1), (0, 3)])
    assert g.adj[0] == (1, 2, 3, 4)


def _floyd_warshall(g):
    big = None
    dist = [[0 if i == j else big for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            if dist[i][k] is None:
                continue
            for j in range(g.n):
                if dist[k][j] is None:
                    continue
                through = dist[i][k] + dist[k][j]
                if dist[i][j] is None or through < dist[i][j]:
                    dist[i][j] = through
    return dist


@pytest.mark.parametrize("g", [
    families.path(6), families.cycle(7), families.complete(5),
    families.petersen(), families.hypercube(3),
    families.tree_from_parents([-1, 0, 0, 1, 1, 2, 2]),
])
def test_bfs_distances_match_floyd_warshall(g):
    reference = _floyd_warshall(g)
    for s in range(g.n):
        assert list(distances_from(g, s)) == reference[s]


def test_distances_metric_properties(petersen):
    g = petersen
    for u in range(g.n):
        du = distances_from(g, u)
        assert du[u] == 0
        for v in range(g.n):
            assert du[v] == distances_from(g, v)[u]
            for w in g.adj[v]:
                assert abs(du[v] - du[w]) <= 1


def test_distance_and_eccentricity():
    g = families.path(5)
    assert distance(g, 0, 4) == 4
    assert eccentricity(g, 2) == 2
    assert eccentricity(g, 0) == 4


def test_disconnected_graph_detected():
    g = new_graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert distances_from(g, 0)[2] is None
    with pytest.raises(GraphError, match="^pebbling numbers need a connected graph$"):
        eccentricity(g, 0)


def test_connected_distances_is_the_one_connectivity_check(petersen):
    assert connected_distances(petersen, 0) == distances_from(petersen, 0)
    halves = new_graph(4, [(0, 1), (2, 3)])
    for src in range(4):
        with pytest.raises(GraphError, match="^pebbling numbers need a connected graph$"):
            connected_distances(halves, src)
    with pytest.raises(GraphError, match="^vertex 4 outside 0..3$"):
        connected_distances(halves, 4)


def test_edge_list_round_trip(petersen):
    text = to_edge_list(petersen)
    assert text.splitlines()[0] == "10 15"
    back = from_edge_list(text)
    assert back == petersen


def test_edge_list_file_round_trip(tmp_path):
    g = families.cycle(6)
    target = tmp_path / "c6.txt"
    write_edge_list(g, target)
    assert read_edge_list(target) == g


@pytest.mark.parametrize("text,line", [
    ("3\n", 1),
    ("not numbers\n", 1),
    ("3 2\n0 1\n", 1),
    ("3 1\n0 1\n1 2\n", 1),
    ("2 1\n0 two\n", 2),
    ("2 1\n0 1 9\n", 2),
    # int() reads n = 10, n = -3 and vertex 1 twice
    ("1_0 1\n0 1\n", 1),
    ("-3 0\n", 1),
    ("2 1\n0 +1\n", 2),
    ("2 1\n0 \u0661\n", 2),
])
def test_edge_list_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphFormatError) as err:
        from_edge_list(text)
    assert f"line {line}" in str(err.value)


def test_empty_edge_list_rejected():
    with pytest.raises(GraphFormatError, match="empty input"):
        from_edge_list("")


def test_graph_without_vertices_rejected():
    with pytest.raises(GraphError, match="line 1: the graph has no vertices"):
        from_edge_list("0 0\n")


@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]), max_size=12))))
def test_round_trip_any_graph(data):
    n, edges = data
    g = new_graph(n, list(edges))
    assert from_edge_list(to_edge_list(g)) == g


# ---------------------------------------------------------------------------
# root orbits

def _edge_set(g):
    return {frozenset(e) for e in g.edges()}


def _roots(orbit):
    return (orbit.rep,) + tuple(root for root, _ in orbit.members)


def _assert_orbits_are_checked(g, orbits):
    roots = [r for orbit in orbits for r in _roots(orbit)]
    assert sorted(roots) == list(range(g.n))
    assert [orbit.rep for orbit in orbits] == sorted(orbit.rep for orbit in orbits)
    for orbit in orbits:
        assert orbit.rep == min(_roots(orbit))
        for root, sigma in orbit.members:
            assert sorted(sigma) == list(range(g.n))
            assert sigma[orbit.rep] == root
            assert {frozenset((sigma[u], sigma[v])) for u, v in g.edges()} == _edge_set(g)


def _relabel(g, perm):
    return new_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


ORBIT_COUNTS = [
    ("bruhat(3)", families.bruhat(3), 1),
    ("bruhat(4)", families.bruhat(4), 1),
    ("petersen", families.petersen(), 1),
    *((f"cycle({n})", families.cycle(n), 1) for n in range(5, 10)),
    ("hypercube(3)", families.hypercube(3), 1),
    ("hypercube(4)", families.hypercube(4), 1),
    ("complete(5)", families.complete(5), 1),
    ("path(7)", families.path(7), 4),
    ("tree", families.tree_from_parents([-1, 0, 0, 0, 1, 2, 4]), 7),
]


@pytest.mark.parametrize("name,g,count",
                         [pytest.param(*row, id=row[0]) for row in ORBIT_COUNTS])
def test_root_orbit_counts(name, g, count):
    orbits = root_orbits(g)
    assert len(orbits) == count
    _assert_orbits_are_checked(g, orbits)


def test_path_orbits_pair_mirror_roots():
    orbits = root_orbits(families.path(7))
    assert [_roots(orbit) for orbit in orbits] == [(0, 6), (1, 5), (2, 4), (3,)]
    assert orbits[0].members == ((6, (6, 5, 4, 3, 2, 1, 0)),)


def _true_orbit_sizes(g):
    """Orbit sizes from every permutation of a small graph's vertices."""
    edges = _edge_set(g)
    autos = [p for p in itertools.permutations(range(g.n))
             if {frozenset((p[u], p[v])) for u, v in g.edges()} == edges]
    orbits = {frozenset(p[v] for p in autos) for v in range(g.n)}
    return sorted(len(o) for o in orbits)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.tuples(*(st.integers(0, v - 1) for v in range(1, n))),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]), max_size=6))))
def test_root_orbits_are_the_automorphism_orbits(data):
    # connected graphs: a random tree (vertex v hangs under parents[v - 1])
    # plus extra edges
    n, parents, extra = data
    g = new_graph(n, list(enumerate(parents, start=1)) + list(extra))
    orbits = root_orbits(g)
    _assert_orbits_are_checked(g, orbits)
    assert sorted(len(_roots(orbit)) for orbit in orbits) == _true_orbit_sizes(g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([row[1] for row in ORBIT_COUNTS if row[1].n <= 10]
                       + [families.path(6), families.tree_from_parents([-1, 0, 0, 1, 1, 2, 2])])
       .flatmap(lambda g: st.tuples(st.just(g), st.permutations(range(g.n)))))
def test_root_orbits_survive_relabelling(data):
    g, perm = data
    relabelled = _relabel(g, perm)
    before, after = root_orbits(g), root_orbits(relabelled)
    _assert_orbits_are_checked(relabelled, after)
    assert len(after) == len(before)
    assert sorted(len(_roots(o)) for o in after) == sorted(len(_roots(o)) for o in before)


def test_root_orbits_need_a_connected_graph():
    for g in (new_graph(4, [(0, 1), (2, 3)]), new_graph(2, [])):
        with pytest.raises(GraphError, match="^pebbling numbers need a connected graph$"):
            root_orbits(g)


@pytest.mark.parametrize("g", [families.petersen(), families.path(7), families.hypercube(3),
                               families.tree_from_parents([-1, 0, 0, 0, 1, 2, 4])],
                         ids=["petersen", "path7", "hypercube3", "tree"])
def test_search_order_is_breadth_first_with_earlier_anchors(g):
    for start in range(g.n):
        order, anchor = graph._search_order(g, start)
        dist = distances_from(g, start)
        assert order[0] == start and sorted(order) == list(range(g.n))
        assert [dist[v] for v in order] == sorted(dist)
        for i, v in enumerate(order[1:], start=1):
            assert anchor[v] in order[:i] and g.has_edge(anchor[v], v)
            assert dist[anchor[v]] == dist[v] - 1


def test_root_orbits_past_the_step_limit_are_singletons(monkeypatch):
    monkeypatch.setattr(graph, "_ORBIT_SEARCH_STEPS", 0)
    for g in (families.petersen(), families.path(7), families.complete(2)):
        assert [_roots(orbit) for orbit in root_orbits(g)] == [(v,) for v in range(g.n)]


def test_root_orbits_share_one_step_limit(monkeypatch):
    # petersen needs 88 candidate images in all, about 9 per root: a limit of
    # 30 ends the call part way through, however few steps each search takes
    tried = []
    search = graph._find_automorphism

    def counting(*args):
        sigma, steps = search(*args)
        tried.append(steps)
        return sigma, steps

    monkeypatch.setattr(graph, "_find_automorphism", counting)
    monkeypatch.setattr(graph, "_ORBIT_SEARCH_STEPS", 30)
    g = families.petersen()
    orbits = root_orbits(g)
    assert sum(tried) <= 31
    _assert_orbits_are_checked(g, orbits)
    assert 1 < len(orbits) < g.n


def test_is_automorphism():
    g = families.path(4)
    assert graph.is_automorphism(g, (3, 2, 1, 0))
    assert graph.is_automorphism(g, (0, 1, 2, 3))
    assert not graph.is_automorphism(g, (1, 0, 2, 3))   # not edge-preserving
    assert not graph.is_automorphism(g, (0, 0, 2, 3))   # not a bijection
    assert not graph.is_automorphism(g, (0, 1, 2))      # wrong length
