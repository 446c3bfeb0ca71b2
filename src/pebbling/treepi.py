"""Exact pebbling numbers for trees via maximum path partitions.

Directing every edge of a tree toward a chosen root decomposes the edge set
into paths: each vertex extends its tallest child branch upward and ends the
other branches at itself.  One breadth-first tree from the root
(graph.bfs_tree) proves the graph is a tree and orders its vertices; the
partition is built over that order reversed, children before parents.  The
rooted pebbling number is then sum(2^len) - count + 1 over the partition's
paths, and stacking 2^len - 1 pebbles on each path's far endpoint realizes
the extremal unsolvable configuration.  Both are read off the partition
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, bfs_tree, is_connected
from .solver import PebblingResult


@dataclass(frozen=True)
class PathPartition:
    """Edge-disjoint paths tiling a rooted tree, each listed leaf first."""

    root: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        """Edge count of each path."""
        return tuple(len(p) - 1 for p in self.paths)

    @property
    def pebbling_number(self) -> int:
        """Rooted pebbling number: sum(2^len) - count + 1 over the paths."""
        return sum(1 << e for e in self.lengths) - len(self.paths) + 1

    @property
    def critical_config(self) -> tuple[int, ...]:
        """Largest unsolvable configuration: 2^len - 1 pebbles on each path's far end."""
        config = [0] * (sum(self.lengths) + 1)  # a tree has one vertex more than edges
        for path in self.paths:
            config[path[0]] += (1 << (len(path) - 1)) - 1
        return tuple(config)

    def to_json_list(self) -> list[list[int]]:
        return [list(p) for p in self.paths]


def is_tree(g: Graph) -> bool:
    return g.num_edges == g.n - 1 and is_connected(g)


def max_path_partition(g: Graph, root: int) -> PathPartition:
    """Partition the tree's edges into root-directed paths, longest first.

    Working up from the leaves, every vertex passes its tallest child branch
    onward (ties to the smallest child id) and terminates the rest, which
    maximizes the multiset of path lengths.  Raises GraphError unless g is a
    tree.
    """
    parent = {root: root, **bfs_tree(g, root)}  # keys in visit order; no neighbor of root is root
    if g.num_edges != g.n - 1 or len(parent) != g.n:
        raise GraphError("graph is not a tree")

    height = [0] * g.n
    chain: list[list[int]] = [[] for _ in range(g.n)]  # growing path ending at the vertex
    done: list[tuple[int, ...]] = []
    for u in reversed(parent):
        children = [c for c in g.adj[u] if c != parent[u]]  # ascending, as adj is
        if not children:
            chain[u].append(u)
            continue
        keep = max(children, key=lambda c: (height[c], -c))
        height[u] = height[keep] + 1
        for c in children:
            chain[c].append(u)
            if c != keep or u == root:
                done.append(tuple(chain[c]))
        chain[u] = chain[keep]
    done.sort(key=lambda p: (-(len(p) - 1), p))
    return PathPartition(root, tuple(done))


def tree_pebbling_number(g: Graph, root: int) -> int:
    """Rooted pebbling number of a tree, from its maximum path partition."""
    return max_path_partition(g, root).pebbling_number


def tree_critical_config(g: Graph, root: int) -> tuple[int, ...]:
    """Largest unsolvable configuration of a tree, from its maximum path partition."""
    return max_path_partition(g, root).critical_config


def tree_pebbling_number_max(g: Graph) -> PebblingResult:
    """Tree pebbling number maximized over all roots; ties go to the smallest root."""
    # max keeps the first of equal values, so the smallest root wins ties
    best = max((max_path_partition(g, root) for root in range(g.n)),
               key=lambda p: p.pebbling_number)
    return PebblingResult(best.pebbling_number, best.root, best.critical_config)
