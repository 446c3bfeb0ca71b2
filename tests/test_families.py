"""Named graph families: sizes, regularity, and structural fingerprints."""

import pytest

from pebbling import families
from pebbling.graph import GraphError, distances_from, eccentricity, is_connected


def _shortest_cycle(g):
    """Girth by BFS from every vertex; None for forests."""
    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: None}
        queue = [s]
        while queue:
            u = queue.pop(0)
            for v in g.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    length = dist[u] + dist[v] + 1
                    if best is None or length < best:
                        best = length
    return best


def test_path_and_cycle_shapes():
    p = families.path(5)
    assert p.n == 5 and p.num_edges == 4
    assert [p.degree(v) for v in range(5)] == [1, 2, 2, 2, 1]
    c = families.cycle(5)
    assert c.n == 5 and c.num_edges == 5
    assert all(c.degree(v) == 2 for v in range(5))
    assert eccentricity(c, 0) == 2


def test_single_vertex_path():
    g = families.path(1)
    assert g.n == 1 and g.num_edges == 0


def test_complete_graph():
    k5 = families.complete(5)
    assert k5.num_edges == 10
    assert all(k5.degree(v) == 4 for v in range(5))


def test_hypercube_structure():
    q4 = families.hypercube(4)
    assert q4.n == 16 and q4.num_edges == 32
    assert all(q4.degree(v) == 4 for v in range(16))
    # distance equals the number of differing coordinates
    dist = distances_from(q4, 0)
    assert all(dist[v] == bin(v).count("1") for v in range(16))


def test_petersen_fingerprint():
    g = families.petersen()
    assert g.n == 10 and g.num_edges == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert _shortest_cycle(g) == 5
    assert eccentricity(g, 0) == 2


def test_bruhat_3_is_a_hexagon():
    b3 = families.bruhat(3)
    c6 = families.cycle(6)
    assert b3.n == 6 and b3.num_edges == 6
    assert all(b3.degree(v) == 2 for v in range(6))
    assert _shortest_cycle(b3) == 6 == _shortest_cycle(c6)


def test_bruhat_4_fingerprint():
    b4 = families.bruhat(4)
    assert b4.n == 24 and b4.num_edges == 36
    assert all(b4.degree(v) == 3 for v in range(24))
    assert is_connected(b4)
    assert eccentricity(b4, 0) == 6
    # bipartite level structure: neighbors differ by one in distance
    dist = distances_from(b4, 0)
    for u, v in b4.edges():
        assert abs(dist[u] - dist[v]) == 1
    assert sorted(dist).count(3) == 6  # middle layer of the permutohedron


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bruhat_regularity(n):
    g = families.bruhat(n)
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    assert g.n == fact
    assert all(g.degree(v) == n - 1 for v in range(g.n))
    assert g.num_edges == fact * (n - 1) // 2


def test_tree_from_parents():
    g = families.tree_from_parents([-1, 0, 0, 1, 1])
    assert g.n == 5 and g.num_edges == 4
    assert g.degree(0) == 2 and g.degree(1) == 3


def test_tree_from_parents_rejects_bad_input():
    with pytest.raises(GraphError):
        families.tree_from_parents([0, 0])  # no root sentinel
    with pytest.raises(GraphError):
        families.tree_from_parents([-1, -1])  # two roots
    with pytest.raises(GraphError):
        families.tree_from_parents([-1, 2, 1])  # cycle


@pytest.mark.parametrize("parents, message", [
    ([-1, 2, 1], "vertex 1 does not reach the root through parents"),  # a 2-cycle: one edge
    ([-1, 0, 3, 4, 2], "vertex 2 does not reach the root through parents"),
    ([-1, 5], r"edge \(1, 5\) has an endpoint outside 0..1"),
    ([-1, -2], r"edge \(1, -2\) has an endpoint outside 0..1"),
    ([-1, 1], r"edge \(1, 1\) is a self-loop"),
], ids=["two-cycle", "three-cycle", "parent-too-large", "parent-negative", "own-parent"])
def test_tree_from_parents_names_the_fault(parents, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        families.tree_from_parents(parents)


def test_family_bounds_enforced():
    with pytest.raises(GraphError):
        families.cycle(2)
    with pytest.raises(GraphError):
        families.path(0)
    with pytest.raises(GraphError):
        families.bruhat(1)
    with pytest.raises(GraphError):
        families.bruhat(7)
    with pytest.raises(GraphError):
        families.hypercube(0)
    with pytest.raises(GraphError):
        families.hypercube(21)


def test_build_family_dispatch():
    assert families.build_family("petersen").n == 10
    assert families.build_family("path", 4).n == 4
    assert families.build_family("tree", parents=[-1, 0]).n == 2
    with pytest.raises(GraphError):
        families.build_family("grid", 3)
    with pytest.raises(GraphError):
        families.build_family("path")
    with pytest.raises(GraphError):
        families.build_family("tree")
    with pytest.raises(GraphError, match="^petersen takes no size$"):
        families.build_family("petersen", 7)
    with pytest.raises(GraphError, match="^path takes no parents$"):
        families.build_family("path", 3, [-1, 0])
    with pytest.raises(GraphError, match="^tree takes no size$"):
        families.build_family("tree", 9, [-1, 0])
    with pytest.raises(GraphError, match="^unknown family kind 'grid'$"):
        families.build_family("grid", parents=[-1, 0])
