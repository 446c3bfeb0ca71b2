"""Immutable undirected simple graphs plus the metric helpers everything else uses.

Vertices are the integers 0..n-1.  Adjacency is stored as a tuple of sorted
neighbor tuples so graphs hash, compare, and iterate deterministically.
root_orbits groups the vertices by automorphism, so whole-graph answers can
be computed once per orbit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple


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

    Duplicate edges collapse.  A graph needs at least one vertex; self-loops
    and out-of-range endpoints are rejected with the offending edge in the
    message.
    """
    if n < 1:
        raise GraphError(f"a graph needs at least one vertex, got {n}")
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


def connected_distances(g: Graph, src: int) -> list[int]:
    """BFS distances from src; the one connectivity check, GraphError if a vertex is unreachable."""
    dist = distances_from(g, src)
    if None in dist:
        raise GraphError("pebbling numbers need a connected graph")
    return dist  # type: ignore[return-value]


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path distance between u and v; None if they are disconnected."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} outside 0..{g.n - 1}")
    return distances_from(g, u)[v]


def eccentricity(g: Graph, v: int) -> int:
    """Greatest distance from v to any vertex; connected_distances checks connectivity."""
    return max(connected_distances(g, v))


def is_connected(g: Graph) -> bool:
    return None not in distances_from(g, 0)


def to_edge_list(g: Graph) -> str:
    """Serialize to edge-list text: header "n m", then one "u v" line per edge.

    Edges are written with u < v in lexicographic order; output is
    newline-terminated.
    """
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decimal_int(text: str, *, signed: bool = False) -> int:
    """The integer text spells in ASCII decimal digits, after a "-" if signed.

    Stricter than int(), which also reads "_" separators, a "+" sign,
    surrounding whitespace and non-ASCII digits such as the Arabic-Indic
    "\u0663"; raises ValueError for those.
    """
    digits = text[1:] if signed and text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


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
        n, m = decimal_int(header[0]), decimal_int(header[1])
    except ValueError:
        raise GraphFormatError('expected two nonnegative integers in header "n m"', line=1) from None
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
            u, v = decimal_int(parts[0]), decimal_int(parts[1])
        except ValueError:
            raise GraphFormatError('expected two nonnegative integers on edge line', line=i) from None
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


# ---------------------------------------------------------------------------
# root orbits under automorphisms

_ORBIT_SEARCH_STEPS = 1_000_000  # candidate images tried per root_orbits call, all searches together


class Orbit(NamedTuple):
    """Roots that automorphisms carry onto each other.

    rep is the least root of the orbit; members pairs every other root with
    an automorphism sigma, a tuple of vertex images with sigma[rep] == root.
    """

    rep: int
    members: tuple[tuple[int, tuple[int, ...]], ...]


def is_automorphism(g: Graph, sigma) -> bool:
    """Whether sigma is a permutation of the vertices that maps the edge set onto itself."""
    if sorted(sigma) != list(range(g.n)):
        return False
    return all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges())


def _search_order(g: Graph, start: int) -> tuple[list[int], list[int]]:
    """Vertices of a connected graph in breadth-first order from start.

    anchor[v] is the earlier neighbor that reached v; start anchors itself,
    which marks it seen.
    """
    order = [start]
    anchor = [-1] * g.n
    anchor[start] = start
    for u in order:  # the loop also visits the vertices it appends
        for v in g.adj[u]:
            if anchor[v] < 0:
                anchor[v] = u
                order.append(v)
    return order, anchor


def _find_automorphism(g: Graph, neighbor_sets, dist, profile, order, anchor,
                       rep: int, root: int, steps_left: int):
    """An automorphism sending rep to root, and the candidate images tried for it.

    Backtracking over order: a vertex may only go to an unused image at the
    same distance from root as it is from rep, with the same distance
    profile, adjacent to its anchor's image, and adjacent to exactly the
    images of its already placed neighbors.  The map is None if there is
    none, or if the search would try more than steps_left images.
    """
    n = g.n
    sigma: list[int | None] = [None] * n
    used = [False] * n
    sigma[rep] = root
    used[root] = True
    from_rep, from_root = dist[rep], dist[root]
    steps = 0

    def candidates(v):
        return iter([c for c in g.adj[sigma[anchor[v]]] if not used[c]
                     and from_root[c] == from_rep[v] and profile[c] == profile[v]])

    def fits(v, c) -> bool:
        placed = 0
        for u in g.adj[v]:
            if sigma[u] is not None:
                if sigma[u] not in neighbor_sets[c]:
                    return False
                placed += 1
        return placed == sum(used[w] for w in g.adj[c])

    choices = [None] * n  # choices[i]: the untried images of order[i]
    if n > 1:
        choices[1] = candidates(order[1])
    i = 1
    while i < n:
        if i == 0:
            return None, steps
        v = order[i]
        if sigma[v] is not None:
            used[sigma[v]] = False
            sigma[v] = None
        for c in choices[i]:
            steps += 1
            if steps > steps_left:
                return None, steps
            if fits(v, c):
                sigma[v] = c
                used[c] = True
                break
        if sigma[v] is None:
            i -= 1
            continue
        i += 1
        if i < n:
            choices[i] = candidates(order[i])
    return tuple(sigma), steps


def root_orbits(g: Graph) -> tuple[Orbit, ...]:
    """The vertices grouped into orbits of the automorphism group, least root first.

    Each root joins the orbit of the first representative an automorphism
    sends to it; every such map is checked with is_automorphism before it
    is kept.  Two roots with different sorted distance profiles are never
    compared.  All searches share one step limit; once it is spent, every
    root not yet placed starts an orbit of its own, which is slower for the
    caller but never wrong.  Raises GraphError for a disconnected graph.
    """
    dist = [connected_distances(g, v) for v in range(g.n)]
    profile = [tuple(sorted(row)) for row in dist]
    neighbor_sets = [set(a) for a in g.adj]
    steps_left = _ORBIT_SEARCH_STEPS
    placed = [False] * g.n
    orbits = []
    for rep in range(g.n):
        if placed[rep]:
            continue
        order, anchor = _search_order(g, rep)
        members = []
        for root in range(rep + 1, g.n):
            if steps_left <= 0:
                break
            if placed[root] or profile[root] != profile[rep]:
                continue
            sigma, steps = _find_automorphism(g, neighbor_sets, dist, profile, order, anchor,
                                              rep, root, steps_left)
            steps_left -= steps
            if sigma is not None and is_automorphism(g, sigma):
                members.append((root, sigma))
                placed[root] = True
        orbits.append(Orbit(rep, tuple(members)))
    return tuple(orbits)
