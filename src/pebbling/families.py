"""Constructors for the graph families the workbench ships with."""

from __future__ import annotations

from itertools import permutations

from .graph import Graph, GraphError, distances_from, new_graph

ROOT_SENTINEL = -1

MAX_HYPERCUBE_DIM = 20
MAX_BRUHAT = 6


def path(n: int) -> Graph:
    """Path on n vertices: 0 - 1 - ... - n-1."""
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return new_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """Cycle on n vertices: 0 - 1 - ... - n-1 - 0."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return new_graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    return new_graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube; vertex ids are bit masks, edges flip one bit."""
    if not 1 <= d <= MAX_HYPERCUBE_DIM:
        raise GraphError(f"hypercube dimension must be in 1..{MAX_HYPERCUBE_DIM}, got {d}")
    n = 1 << d
    return new_graph(n, ((v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)))


def petersen() -> Graph:
    """Petersen graph on the fixed labeling: outer cycle 0..4, inner vertices 5..9.

    Outer edges (i, i+1 mod 5), spokes (i, 5+i), and inner edges
    (5+i, 5+((i+2) mod 5)) forming the pentagram.
    """
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, 5 + i))
        edges.append((5 + i, 5 + ((i + 2) % 5)))
    return new_graph(10, edges)


def bruhat(n: int) -> Graph:
    """Adjacent-transposition graph on all permutations of 1..n.

    Vertex ids follow lexicographic order of the permutations; two vertices
    are adjacent when the permutations differ by swapping one pair of
    neighboring positions.  Every vertex has degree n-1.
    """
    if not 2 <= n <= MAX_BRUHAT:
        raise GraphError(f"bruhat size must be in 2..{MAX_BRUHAT}, got {n}")
    perms = list(permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    edges = []
    for p in perms:
        for i in range(n - 1):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            j = index[tuple(q)]
            if index[p] < j:
                edges.append((index[p], j))
    return new_graph(len(perms), edges)


def tree_from_parents(parents) -> Graph:
    """Tree from a parent array; the single root holds ROOT_SENTINEL (-1).

    new_graph rejects out-of-range parents and self-parents by their edge; a
    pointer cycle, even one that collapses to a single edge, cuts its
    vertices off from the root.
    """
    parents = list(parents)
    n = len(parents)
    if n < 1:
        raise GraphError("parent array must be nonempty")
    roots = [v for v, p in enumerate(parents) if p == ROOT_SENTINEL]
    if len(roots) != 1:
        raise GraphError(f"expected exactly one root sentinel, found {len(roots)}")
    root = roots[0]
    g = new_graph(n, ((v, p) for v, p in enumerate(parents) if v != root))
    dist = distances_from(g, root)
    if None in dist:
        v = dist.index(None)
        raise GraphError(f"vertex {v} does not reach the root through parents")
    return g


FAMILY_KINDS = ("path", "cycle", "complete", "hypercube", "petersen", "bruhat", "tree")


def build_family(kind: str, size: int | None = None, parents=None) -> Graph:
    """Dispatch used by the command-line layer; an option the kind does not read is a GraphError."""
    if kind not in FAMILY_KINDS:
        raise GraphError(f"unknown family kind {kind!r}")
    takes = {"petersen": (), "tree": ("parents",)}.get(kind, ("size",))
    for name, value in (("size", size), ("parents", parents)):
        if value is not None and name not in takes:
            raise GraphError(f"{kind} takes no {name}")
    if kind == "petersen":
        return petersen()
    if kind == "tree":
        if parents is None:
            raise GraphError("tree family needs a parent array")
        return tree_from_parents(parents)
    if size is None:
        raise GraphError(f"family {kind!r} needs a size parameter")
    builders = {"path": path, "cycle": cycle, "complete": complete,
                "hypercube": hypercube, "bruhat": bruhat}
    return builders[kind](size)
