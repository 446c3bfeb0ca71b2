"""Exact tree pebbling numbers from maximum path partitions."""

from itertools import product

import pytest

from pebbling import families, treepi
from pebbling.graph import GraphError, new_graph
from pebbling.solver import is_solvable, pebbling_number
from pebbling.treepi import (is_tree, max_path_partition, tree_critical_config,
                             tree_pebbling_number, tree_pebbling_number_max)


def increasing_parent_arrays(n):
    """All parent arrays with parent[i] < i; covers every tree shape on n vertices."""
    if n == 1:
        yield [-1]
        return
    for parents in product(*[range(i) for i in range(1, n)]):
        yield [-1, *parents]


def assert_valid_partition(g, root, partition):
    depth = {root: 0}
    stack = [root]
    seen = {root}
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                depth[v] = depth[u] + 1
                stack.append(v)
    used = []
    for path in partition.paths:
        assert len(path) >= 2
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
            # leaf end first, every step moves toward the root
            assert depth[b] == depth[a] - 1
            used.append(frozenset((a, b)))
    tree_edges = {frozenset((v, g_parent))
                  for v in depth for g_parent in g.adj[v] if depth[g_parent] == depth[v] - 1}
    assert sorted(used, key=sorted) == sorted(tree_edges, key=sorted)
    assert len(used) == len(set(used)) == g.num_edges
    lengths = partition.lengths
    assert list(lengths) == sorted(lengths, reverse=True)


# -- named examples -----------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_path_partitions_into_a_single_path(n):
    g = families.path(n)
    partition = max_path_partition(g, 0)
    assert partition.paths == (tuple(range(n - 1, -1, -1)),)
    assert tree_pebbling_number(g, 0) == 2 ** (n - 1)


def test_single_vertex_tree():
    g = families.tree_from_parents([-1])
    assert tree_pebbling_number(g, 0) == 1
    assert max_path_partition(g, 0).paths == ()
    assert tree_critical_config(g, 0) == (0,)


def test_star_from_center(star3):
    partition = max_path_partition(star3, 0)
    assert sorted(partition.lengths) == [1, 1, 1]
    assert tree_pebbling_number(star3, 0) == 4


def test_star_from_leaf(star3):
    partition = max_path_partition(star3, 1)
    assert sorted(partition.lengths) == [1, 2]
    assert tree_pebbling_number(star3, 1) == 5


def test_binary_tree_from_top(binary7):
    partition = max_path_partition(binary7, 0)
    assert sorted(partition.lengths) == [1, 1, 2, 2]
    assert tree_pebbling_number(binary7, 0) == 9


def test_max_over_roots(star3, binary7):
    star_best = tree_pebbling_number_max(star3)
    assert (star_best.value, star_best.root) == (5, 1)
    binary_best = tree_pebbling_number_max(binary7)
    assert (binary_best.value, binary_best.root) == (18, 3)
    assert sum(binary_best.critical_config) == 17


def test_partition_paths_are_leaf_first(binary7):
    partition = max_path_partition(binary7, 0)
    # longest paths first, ties in lexicographic order
    assert partition.paths == ((3, 1, 0), (5, 2, 0), (4, 1), (6, 2))
    assert partition.to_json_list() == [[3, 1, 0], [5, 2, 0], [4, 1], [6, 2]]


@pytest.mark.parametrize("parents, root, paths", [
    ([-1, 0, 0, 1, 1, 2, 2], 3, ((5, 2, 0, 1, 3), (4, 1), (6, 2))),
    ([-1, 0, 0, 1, 1, 2, 2], 6, ((3, 1, 0, 2, 6), (4, 1), (5, 2))),
    ([-1, 0, 0, 0, 1, 2, 4], 5, ((6, 4, 1, 0, 2, 5), (3, 0))),
], ids=["binary7-r3", "binary7-r6", "tree-a-r5"])
def test_tied_child_heights_keep_the_smallest_child(parents, root, paths):
    # at every tie between child branches, the smallest child id carries the path on
    partition = max_path_partition(families.tree_from_parents(parents), root)
    assert partition.paths == paths


def test_partition_reads_number_and_critical_config_off_its_paths(binary7):
    partition = max_path_partition(binary7, 3)
    assert partition.pebbling_number == 18 == tree_pebbling_number(binary7, 3)
    assert partition.critical_config == (0, 0, 0, 0, 1, 15, 1)
    assert partition.critical_config == tree_critical_config(binary7, 3)


def test_max_over_roots_builds_one_partition_per_root(binary7, monkeypatch):
    roots = []

    def counted(g, root):
        roots.append(root)
        return max_path_partition(g, root)

    monkeypatch.setattr(treepi, "max_path_partition", counted)
    assert tree_pebbling_number_max(binary7).root == 3
    assert roots == list(range(7))


# -- structural validity over all small trees ---------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_partitions_tile_every_tree(n):
    for parents in increasing_parent_arrays(n):
        g = families.tree_from_parents(parents)
        for root in range(n):
            partition = max_path_partition(g, root)
            assert partition.root == root
            assert_valid_partition(g, root, partition)
            assert sum(partition.lengths) == n - 1


@pytest.mark.parametrize("n", range(1, 6))
def test_formula_matches_search(n):
    for parents in increasing_parent_arrays(n):
        g = families.tree_from_parents(parents)
        for root in range(n):
            assert tree_pebbling_number(g, root) == pebbling_number(g, root).value


# -- critical configurations ---------------------------------------------------

@pytest.mark.parametrize("n", range(2, 7))
def test_critical_config_is_extremal(n):
    for parents in increasing_parent_arrays(n):
        g = families.tree_from_parents(parents)
        for root in range(n):
            pi = tree_pebbling_number(g, root)
            config = tree_critical_config(g, root)
            assert sum(config) == pi - 1
            assert config[root] == 0
            assert not is_solvable(g, config, root).solvable
            # one more pebble anywhere tips it over
            for v in range(n):
                bumped = list(config)
                bumped[v] += 1
                assert is_solvable(g, bumped, root).solvable


# -- non-trees are rejected ----------------------------------------------------

def test_non_trees_rejected(petersen):
    # the last graph has n - 1 edges: a triangle plus an isolated vertex
    for g in (families.cycle(4), petersen,
              new_graph(4, [(0, 1), (2, 3)]), new_graph(4, [(0, 1), (1, 2), (0, 2)])):
        assert not is_tree(g)
        with pytest.raises(GraphError, match="not a tree"):
            max_path_partition(g, 0)
        with pytest.raises(GraphError, match="not a tree"):
            tree_pebbling_number_max(g)


def test_empty_graph_is_not_a_tree():
    # no graph has zero vertices, so tree_pebbling_number_max never sees one
    with pytest.raises(GraphError, match="^a graph needs at least one vertex, got 0$"):
        new_graph(0, [])


def test_root_out_of_range(star3):
    with pytest.raises(GraphError, match="outside"):
        max_path_partition(star3, 4)
