"""Graph construction, BFS metrics, and the edge-list file format."""

import pytest
from hypothesis import given, strategies as st

from pebbling import families
from pebbling.graph import (
    GraphError,
    GraphFormatError,
    distance,
    distances_from,
    eccentricity,
    from_edge_list,
    is_connected,
    new_graph,
    read_edge_list,
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
    with pytest.raises(GraphError, match="disconnected"):
        eccentricity(g, 0)


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
