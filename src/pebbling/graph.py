"""Immutable undirected simple graphs plus the metric helpers everything else uses.

Vertices are the integers 0..n-1.  Adjacency is stored as a tuple of sorted
neighbor tuples so graphs hash, compare, and iterate deterministically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class GraphError(ValueError):
    """Malformed graph structure (bad edge, disconnected where connectivity is required)."""


class GraphFormatError(GraphError):
    """Malformed edge-list text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self):
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


def new_graph(n: int, edges) -> Graph:
    """Build a graph on vertices 0..n-1 from an iterable of (u, v) pairs.

    Duplicate edges collapse.  Self-loops and out-of-range endpoints are
    rejected with the offending edge in the message.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"edge ({u}, {v}) is a self-loop")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in neighbor_sets))


def distances_from(g: Graph, src: int) -> list[int | None]:
    """BFS distances from src; None marks unreachable vertices."""
    if not 0 <= src < g.n:
        raise GraphError(f"vertex {src} outside 0..{g.n - 1}")
    dist: list[int | None] = [None] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path distance between u and v; None if they are disconnected."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} outside 0..{g.n - 1}")
    return distances_from(g, u)[v]


def eccentricity(g: Graph, v: int) -> int:
    """Greatest distance from v to any vertex.  Requires a connected graph."""
    dist = distances_from(g, v)
    if any(d is None for d in dist):
        raise GraphError("eccentricity is undefined on a disconnected graph")
    return max(dist)  # type: ignore[type-var]


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return all(d is not None for d in distances_from(g, 0))


def to_edge_list(g: Graph) -> str:
    """Serialize to edge-list text: header "n m", then one "u v" line per edge.

    Edges are written with u < v in lexicographic order; output is
    newline-terminated.
    """
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    """Parse edge-list text produced by to_edge_list.  Strict about shape.

    A graph with no vertices is rejected: no verb has a root to work on.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise GraphFormatError("empty input, expected a header line")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError('expected header "n m"', line=1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError('expected two integers in header "n m"', line=1) from None
    if n == 0:
        raise GraphFormatError("the graph has no vertices", line=1)
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header promises {m} edges but {len(lines) - 1} edge lines follow", line=1)
    edges = []
    for i, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise GraphFormatError('expected an edge line "u v"', line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError('expected two integers on edge line', line=i) from None
        edges.append((u, v))
    try:
        return new_graph(n, edges)
    except GraphError as exc:
        raise GraphFormatError(str(exc)) from exc


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_edge_list(fh.read())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_edge_list(g))
