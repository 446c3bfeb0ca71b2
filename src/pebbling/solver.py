"""Exact solvability search and pebbling numbers by exhaustive level scan.

A pebbling move takes two pebbles off a vertex and puts one on a chosen
neighbor.  A configuration is solvable for a root when some move sequence
lands a pebble on the root.  The rooted pebbling number is the smallest t
such that every configuration of t pebbles is solvable; it is found by
scanning totals upward from the lower bound max(n, 2^ecc(root)), using the
fact that adding pebbles never breaks solvability.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .graph import Graph, connected_distances, decimal_int, distances_from, root_orbits

DEFAULT_MAX_CONFIGS = 10_000_000
# Configurations one depth-first search may visit before SearchCapError: a
# search stopped there on the 24-vertex bruhat(4) peaked at 280 MB RSS after
# 11 s (2-core VM, Python 3.11).
DEFAULT_MAX_STATES = 1_000_000

Move = tuple[int, int]
Run = tuple[int, int, int]  # (u, v, k): k moves from u to v


class ConfigFormatError(ValueError):
    """Malformed configuration text."""


class EnumerationCapError(RuntimeError):
    """A level scan would enumerate more configurations than the cap allows."""

    def __init__(self, cap: int, level: int, count: int, last_verified: int):
        self.cap = cap
        self.level = level
        self.count = count
        self.last_verified = last_verified
        super().__init__(
            f"level {level} needs {count} configurations, over the cap of {cap}; "
            f"levels up to {last_verified} were verified"
        )


class SearchCapError(RuntimeError):
    """A solvability search visited more configurations than the cap allows."""

    def __init__(self, cap: int, explored: int):
        self.cap = cap
        self.explored = explored
        super().__init__(
            f"the solvability search explored {explored} configurations, over the cap of "
            f"{cap}, without an answer"
        )


@dataclass(frozen=True)
class SolveResult:
    """A solvability answer.

    explored counts the configurations the depth-first search visited; 0
    means the answer came without a search: from a pebble on the root or a
    vertex at its threshold or from the push toward some target, which prove
    the configuration solvable, or from the tree rule (on a tree, the failed
    push toward the root) or the potential rule, which prove it unsolvable.
    """

    solvable: bool
    witness: tuple[Move, ...] | None
    explored: int


@dataclass(frozen=True, slots=True)  # compact: callers may hold many
class PebblingResult:
    value: int
    root: int
    critical_config: tuple[int, ...]


# ---------------------------------------------------------------------------
# configuration text format: "v:count,v:count" with vertices ascending,
# omitted vertices holding zero; the empty string is the empty configuration.

def format_config(config) -> str:
    return ",".join(f"{v}:{c}" for v, c in enumerate(config) if c)


def parse_config(text: str, n: int) -> tuple[int, ...]:
    counts = [0] * n
    text = text.strip()
    if not text:
        return tuple(counts)
    last = -1
    for field in text.split(","):
        parts = field.split(":")
        if len(parts) != 2:
            raise ConfigFormatError(f"expected vertex:count, got {field!r}")
        try:
            v, c = decimal_int(parts[0]), decimal_int(parts[1], signed=True)
        except ValueError:
            raise ConfigFormatError(f"expected integers in {field!r}") from None
        if not 0 <= v < n:
            raise ConfigFormatError(f"vertex {v} outside 0..{n - 1}")
        if v <= last:
            raise ConfigFormatError(f"vertices must be strictly ascending at {field!r}")
        if c < 0:
            raise ConfigFormatError(f"negative count in {field!r}")
        counts[v] = c
        last = v
    return tuple(counts)


def apply_moves(config, moves) -> tuple[int, ...]:
    """Replay a move sequence, checking each move is legal."""
    counts = list(config)
    for u, v in moves:
        if counts[u] < 2:
            raise ValueError(f"move ({u}, {v}) needs two pebbles on {u}, found {counts[u]}")
        counts[u] -= 2
        counts[v] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# solvability search

class Geometry(NamedTuple):
    """What the search needs to know about one (graph, root) pair; the graph is connected.

    threshold[v] = 2^dist(v, root): a vertex holding that many pebbles can
    ship one to the root along a shortest path unaided.  chains[v] holds the
    runs that ship that pebble along the push toward the root (empty at the
    root); every witness ends with one.  caps[v] = threshold[v] - 1, 0 at
    the root, bounds the configurations a level scan enumerates.

    pushes holds one push order per target t: the root first, then the other
    vertices, nearest to the root first, ties by index.  A push order lists
    the edges (u, next) of every other vertex u, farthest from t first, ties
    by index; next is u's lowest-numbered neighbor one hop closer to t.
    tree says the graph is a tree; there pushes holds only the root's order,
    whose failure proves a configuration unsolvable.

    moves pairs each source vertex of the root's push order, in that order,
    with the neighbors the depth-first search may send to, from the nearest
    to the root to the farthest, ties by index, so the search tries the
    step toward the root first.  The root is no source: it is empty in
    every searched state.

    potential[v] = 2^(e - dist(v, root)), e the root's eccentricity; unit =
    2^e, the root's own potential.  No move raises the sum of c(v) *
    potential[v], so a configuration whose sum is below unit is unsolvable
    and no push accepts it: _search's potential rule, and the level scan's
    cut of every such prefix.

    below is an unsolvable configuration of max(n, unit) - 1 pebbles, one
    under the level scan's lower bound: the critical configuration when
    that first level is solvable.  It is built once per root, so the
    results that report it share one tuple.
    """

    dist: tuple[int, ...]
    threshold: tuple[int, ...]
    caps: tuple[int, ...]
    chains: tuple[tuple[Run, ...], ...]
    moves: tuple[tuple[int, tuple[int, ...]], ...]
    tree: bool
    pushes: tuple[tuple[Move, ...], ...]
    potential: tuple[int, ...]
    unit: int
    below: tuple[int, ...]


def _push_order(g: Graph, t: int) -> tuple[Move, ...]:
    """The edges (u, next) that push the pebbles of a connected graph toward t."""
    to_t = distances_from(g, t)
    order = sorted((u for u in range(g.n) if to_t[u]), key=lambda u: (-to_t[u], u))
    return tuple((u, min(w for w in g.adj[u] if to_t[w] == to_t[u] - 1)) for u in order)


@functools.lru_cache(maxsize=256, typed=True)  # typed: True and 1.0 never answer as root 1
def _root_geometry(g: Graph, root: int) -> Geometry:
    """The geometry of a root, once per graph value and root; GraphError for a bad root or graph."""
    dist = connected_distances(g, root)
    threshold = tuple(1 << d for d in dist)
    tree = g.num_edges == g.n - 1
    targets = sorted(range(g.n), key=lambda v: (dist[v], v))[:1 if tree else None]
    pushes = tuple(_push_order(g, t) for t in targets)
    step = dict(pushes[0])
    moves = tuple((u, tuple(sorted(g.adj[u], key=lambda v: (dist[v], v)))) for u in step)
    chains = tuple(tuple(_chain_runs(v, d, step)) for v, d in enumerate(dist))
    ecc = max(dist)
    potential = tuple(1 << (ecc - d) for d in dist)
    caps = tuple(t - 1 for t in threshold)
    geometry = Geometry(tuple(dist), threshold, caps, chains, moves, tree, pushes, potential,
                        1 << ecc, ())
    return geometry._replace(below=_witness_below(geometry, root))


def _chain_runs(v, d: int, step) -> list[Run]:
    """Runs shipping one pebble from v along the d hops step follows, using 2^d of v's own."""
    runs = []
    for i in range(d - 1, -1, -1):
        nxt = step[v]
        runs.append((v, nxt, 1 << i))
        v = nxt
    return runs


def _moves(runs) -> tuple[Move, ...]:
    """The moves the runs stand for, in order."""
    moves: list[Move] = []
    for u, v, k in runs:
        moves += [(u, v)] * k
    return tuple(moves)


def _push(geometry: Geometry, counts) -> tuple[tuple[Move, ...], list[int], int] | None:
    """The first push in geometry.pushes that solves counts, as (order, held, last), or None.

    The push toward a target t moves, along every edge (u, next) of t's
    order, c // 2 of u's c pebbles to next.  These are legal moves, so if
    they bring a vertex up to its threshold, counts is solvable.  As
    floor((a + b) / 2) >= floor(a / 2) + floor(b / 2), t collects at least
    the sum over v of c(v) >> dist(v, t): every stack's own share, shipped
    along a geodesic.

    A vertex at distance d from t receives only from vertices at distance
    d + 1, which come earlier in the order, so it holds all its pebbles
    before it sends half of them, and it never receives again.  Its count
    after sending is never read, so the loop leaves a sender as it was:
    held[u] is what u held when it sent, and last is the sender whose run
    brought its target up to its threshold.  _push_runs reads the runs of
    a witness off them; the level scan needs only the decision.

    Acceptance is monotone: adding pebbles to counts never lowers what any
    vertex holds at any step, so if the push accepts counts, it accepts
    every configuration that holds at least as many pebbles on every
    vertex.  And the potential of counts (the sum of c(v) * potential[v])
    is at least unit: no move raises it, and a vertex at its threshold
    alone holds unit.
    """
    threshold = geometry.threshold
    for order in geometry.pushes:
        pushed = list(counts)
        for u, v in order:
            k = pushed[u] >> 1
            if k:
                k += pushed[v]
                if k >= threshold[v]:
                    return order, pushed, u
                pushed[v] = k
    return None


def _push_runs(order, held, last) -> list[Run]:
    """The runs of an accepting push, read off _push's answer.

    Every sender of order up to last moves half of what it held to its
    next vertex; the runs end with last's, which brought its target up to
    its threshold.
    """
    runs: list[Run] = []
    for u, v in order:
        if held[u] > 1:
            runs.append((u, v, held[u] >> 1))
        if u == last:
            return runs


def _search(geometry: Geometry, counts) -> tuple[list[Run] | None, int]:
    """Decide counts, which every push fails, by a rule or else by depth-first search.

    counts must also fail every quick accept (no vertex at or over its
    threshold, root empty).  Returns (runs, explored count); a run (u, v, k)
    stands for k moves from u to v.  The runs end with one that brought its
    target vertex up to its threshold, so that vertex's chain completes a
    witness; None if unsolvable.

    explored == 0 means a rule decided:

    - The tree rule: on a tree every useful move goes toward the root (a
      pebble sent away could only come back over the same edge, a cycle the
      No-Cycle Lemma rules out), so the push toward the root is optimal play
      and its failure proves counts unsolvable.
    - The potential rule: a move from u to a neighbor w changes the sum over
      v of c(v) / 2^dist(v, root) by -2 / 2^dist(u) + 1 / 2^dist(w) <= 0, as
      dist(w) >= dist(u) - 1, and a pebble on the root needs the sum to be
      at least 1.  So counts is unsolvable when the sum of c(v) *
      potential[v], the same sum times 2^e, is below unit.

    Otherwise a depth-first search with a visited-configuration memo starts
    from counts; it raises SearchCapError once it has visited more than
    DEFAULT_MAX_STATES configurations.
    """
    if geometry.tree:
        return None, 0
    if sum(c * w for c, w in zip(counts, geometry.potential)) < geometry.unit:
        return None, 0
    threshold = geometry.threshold
    table = geometry.moves
    cap = DEFAULT_MAX_STATES
    seen = {counts}
    explored = 1

    def move_iter(c):
        for u, targets in table:
            if c[u] >= 2:
                for v in targets:
                    yield u, v

    stack = [(counts, move_iter(counts))]
    trail: list[Run] = []
    while stack:
        c, it = stack[-1]
        step_uv = next(it, None)
        if step_uv is None:
            stack.pop()
            if trail:
                trail.pop()
            continue
        u, v = step_uv
        nxt = list(c)
        nxt[u] -= 2
        nxt[v] += 1
        # only v gained pebbles, so the quick accept can only fire there
        if nxt[v] >= threshold[v]:
            trail.append((u, v, 1))
            return trail, explored
        t = tuple(nxt)
        if t not in seen:
            seen.add(t)
            explored += 1
            if explored > cap:
                raise SearchCapError(cap, explored)
            stack.append((t, move_iter(t)))
            trail.append((u, v, 1))
    return None, explored


def is_solvable(g: Graph, config, root: int) -> SolveResult:
    """Decide whether config can put a pebble on root; carries a replayable witness.

    Raises GraphError for a bad root (graph.check_vertex) or a disconnected graph,
    before it reads config, and SearchCapError if the depth-first search
    needs more than DEFAULT_MAX_STATES configurations.
    """
    geometry = _root_geometry(g, root)
    counts = tuple(config)
    if len(counts) != g.n:
        raise ValueError(f"configuration length {len(counts)} does not match {g.n} vertices")
    if min(counts) < 0:
        raise ValueError("configuration counts must be nonnegative")
    if counts[root] >= 1:
        return SolveResult(True, (), 0)
    chains = geometry.chains
    for v, t in enumerate(geometry.threshold):
        if counts[v] >= t:
            return SolveResult(True, _moves(chains[v]), 0)
    pushed = _push(geometry, counts)
    if pushed is not None:
        runs, explored = _push_runs(*pushed), 0
    else:
        runs, explored = _search(geometry, counts)
        if runs is None:
            return SolveResult(False, None, explored)
    runs += chains[runs[-1][1]]
    return SolveResult(True, _moves(runs), explored)


# ---------------------------------------------------------------------------
# level enumeration
#
# Any configuration holding threshold[v] pebbles somewhere is solvable
# outright, so a level scan only needs the configurations bounded strictly
# below every threshold (with the root empty).  The enumeration runs in
# lexicographic order for determinism.

def _bounded_count(total: int, caps) -> int:
    ways = [1] + [0] * total
    for cap in caps:
        nxt = [0] * (total + 1)
        running = 0
        # prefix sums over a sliding window of width cap + 1
        for s in range(total + 1):
            running += ways[s]
            if s - cap - 1 >= 0:
                running -= ways[s - cap - 1]
            nxt[s] = running
        ways = nxt
    return ways[total]


def _bounded_compositions(total: int, caps):
    """Yield every tuple x with sum total and 0 <= x[i] <= caps[i], in lexicographic order.

    An odometer: after each tuple, the rightmost position that can take one
    pebble from the positions after it goes up by one, and the rest of those
    pebbles are packed as far right as the caps allow, which is the smallest
    suffix holding them.
    """
    if not 0 <= total <= sum(caps):
        return
    n = len(caps)
    x = [0] * n
    rem = total
    i = 0
    while True:
        for j in range(n - 1, i - 1, -1):
            c = caps[j] if caps[j] < rem else rem
            x[j] = c
            rem -= c
        yield tuple(x)
        rem = 0
        i = n - 1
        while i >= 0 and not (rem and x[i] < caps[i]):
            rem += x[i]
            i -= 1
        if i < 0:
            return
        x[i] += 1
        rem -= 1
        i += 1


def _scan_level(geometry, caps, total: int):
    """First unsolvable configuration at this total, in enumeration order.

    A depth-first walk over the positions, each value from smallest to
    largest: the lexicographic order of _bounded_compositions.  Once a
    nonzero value at position i lets _push accept the prefix, every later
    position empty, position i is done: every larger value there, and
    every completion, holds at least that prefix, so the push accepts it
    too.  The walk keeps the prefix's potential, and a prefix whose
    potential is below unit is not pushed: no push accepts it (see _push).
    A full configuration below unit is unsolvable by the potential rule;
    any other one is pushed once, then, if no push accepts it, goes through
    _search.  So the first unsolvable configuration is the one a plain scan
    with _push and _search meets first, and the walk builds no runs.
    """
    n = len(caps)
    room = [0] * (n + 1)  # room[i]: the most pebbles positions i and later hold
    for i in range(n - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    if not 0 <= total <= room[0]:
        return None
    potential, unit = geometry.potential, geometry.unit
    x = [0] * n
    i, rem = 0, total  # rem: the pebbles positions i and later hold
    held = 0  # the potential of positions 0..i-1
    value = max(0, rem - room[1])
    while True:
        x[i] = value
        prefix = held + value * potential[i]
        if i == n - 1:
            if prefix < unit or (_push(geometry, x) is None
                                 and _search(geometry, tuple(x))[0] is None):
                return tuple(x)
        elif not value or prefix < unit or _push(geometry, x) is None:
            rem -= value
            held = prefix
            i += 1
            value = max(0, rem - room[i + 1])
            continue
        # position i is done: back up to the last position that can take one more
        while True:
            x[i] = 0
            i -= 1
            if i < 0:
                return None
            rem += x[i]
            held -= x[i] * potential[i]
            if x[i] < caps[i] and x[i] < rem:
                value = x[i] + 1
                break


def pebbling_number(g: Graph, root: int, *, max_configs: int = DEFAULT_MAX_CONFIGS,
                    threads: int = 1) -> PebblingResult:
    """Rooted pebbling number with a critical configuration one pebble below it.

    Scans totals upward from max(n, 2^ecc(root)); the first total whose every
    configuration is solvable is the answer.  Raises EnumerationCapError if a
    level would enumerate more than max_configs configurations.  All work
    runs in the calling process: threads is accepted and ignored.
    """
    geometry = _root_geometry(g, root)
    caps = geometry.caps
    level = max(g.n, geometry.unit)
    previous_hit = None
    while True:
        count = _bounded_count(level, caps) if level <= sum(caps) else 0
        if count > max_configs:
            raise EnumerationCapError(max_configs, level, count, level - 1)
        hit = _scan_level(geometry, caps, level)
        if hit is None:
            critical = previous_hit if previous_hit is not None else geometry.below
            return PebblingResult(level, root, critical)
        previous_hit = hit
        level += 1


def _witness_below(geometry: Geometry, root: int) -> tuple[int, ...]:
    """Geometry.below: an unsolvable configuration of max(n, unit) - 1 pebbles.

    One pebble off the root on every vertex, or unit - 1 on the least farthest
    vertex, whose potential is below unit; RuntimeError if a push or
    _search accepts that.
    """
    dist = geometry.dist
    n = len(dist)
    if geometry.unit <= n:
        return tuple(0 if v == root else 1 for v in range(n))
    counts = [0] * n
    counts[dist.index(max(dist))] = geometry.unit - 1
    counts = tuple(counts)
    if _push(geometry, counts) is not None or _search(geometry, counts)[0] is not None:
        raise RuntimeError(f"the witness {format_config(counts)} below the lower bound is solvable")
    return counts


def pebbling_number_max(g: Graph, *, max_configs: int = DEFAULT_MAX_CONFIGS,
                        threads: int = 1) -> PebblingResult:
    """Pebbling number of the graph: the rooted value maximized over all roots.

    An automorphism carries a root's pebbling number and critical
    configurations to every root of its orbit, so only the least root of
    each orbit is scanned; on a vertex-transitive graph that is one scan.
    The first maximum in root order is always the least root of its orbit,
    so the result is the full sweep's, critical configuration included.
    All work runs in the calling process: threads is accepted and ignored.
    """
    results = [pebbling_number(g, orbit.rep, max_configs=max_configs) for orbit in root_orbits(g)]
    return max(results, key=lambda r: r.value)
