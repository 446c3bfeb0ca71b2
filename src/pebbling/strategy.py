"""Weight-function strategies: rooted subtrees whose weights certify unsolvability.

A strategy assigns weight 0 to its root and positive weights to the other
vertices of a subtree of the host graph, doubling from child to parent
wherever the parent is not the root.  For any configuration that cannot
reach the root, the weighted pebble count never exceeds the strategy's unit
weight (its value on the all-ones configuration), which is what the bounds
module exploits.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import NamedTuple

from .graph import Graph, GraphError, connected_distances, decimal_int, distances_from
from .solver import _bounded_compositions, _level_space, is_solvable

MAX_DEPTH = 62  # bounds each weight by 2^61; the sum of the weights is checked on its own
GENERATION_METHODS = ("greedy-search", "all-paths", "bfs-trees")
DEFAULT_GENERATION_METHOD = "greedy-search"
_WEIGHT_LIMIT = (1 << 63) - 1
_OVER_WEIGHT_LIMIT = "unit weight over the 64-bit limit"
# the methods that read each generation option
_OPTION_METHODS = {"maxlen": ("all-paths", "greedy-search"), "budget": ("greedy-search",)}


class StrategyError(ValueError):
    """Structurally invalid strategy."""


class CoverageError(ValueError):
    """Some non-root vertex is reached by no strategy."""

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        super().__init__(f"no strategy covers vertices {list(self.vertices)}")


@dataclass(frozen=True)
class Strategy:
    root: int
    parent: dict[int, int]
    weight: dict[int, int]


@dataclass(frozen=True)
class StrategySet:
    root: int
    strategies: tuple[Strategy, ...]

    def __post_init__(self):
        if not self.strategies:
            raise StrategyError("a strategy set needs at least one strategy")
        for s in self.strategies:
            if s.root != self.root:
                raise StrategyError(f"strategy rooted at {s.root} in a set rooted at {self.root}")


def _depths(g: Graph, root: int, parent: dict[int, int]) -> dict[int, int]:
    """Depth of every strategy vertex; raises StrategyError naming the first violation.

    The parent map must be nonempty and give the root no parent; each of its
    vertices must lie in g, be joined to its parent by an edge of g, and
    reach the root through parents.
    """
    if not parent:
        raise StrategyError("strategy has no edges")
    if root in parent:
        raise StrategyError(f"root {root} has a parent")
    bad = [(v, p) for v, p in parent.items() if not (0 <= v < g.n and p in g.adj[v])]
    if bad:
        v, p = min(bad)
        raise StrategyError(f"vertex {v} outside 0..{g.n - 1}" if not 0 <= v < g.n
                            else f"({v}, {p}) is not an edge of the graph")
    depth = {root: 0}
    for v, p in parent.items():
        if p in depth:  # the common order: a parent listed before its children
            depth[v] = depth[p] + 1
            continue
        chain = []
        u = v
        while u not in depth:
            chain.append(u)
            if u not in parent or len(chain) > len(parent):
                raise StrategyError(f"vertex {v} does not reach the root through parents")
            u = parent[u]
        for w in reversed(chain):
            depth[w] = depth[parent[w]] + 1
    return depth


def strategy_from_tree(g: Graph, root: int, parent: dict[int, int]) -> Strategy:
    """Strategy from a parent map: each vertex gets weight 2^(h - depth).

    h is the height of the subtree, so the deepest vertices carry weight 1
    and weights double toward the root.  Raises StrategyError if the map is
    not a tree of g rooted at root, or if the unit weight leaves 64-bit range.
    """
    depth = _depths(g, root, parent)
    height = max(depth.values())
    if height > MAX_DEPTH:
        raise StrategyError(f"strategy depth {height} over the limit of {MAX_DEPTH}")
    weight = {v: 1 << (height - d) for v, d in depth.items() if v != root}
    if sum(weight.values()) > _WEIGHT_LIMIT:
        raise StrategyError(_OVER_WEIGHT_LIMIT)
    return Strategy(root, dict(parent), weight)


def strategy_from_path(g: Graph, vertices) -> Strategy:
    """Path strategy along vertices[0]..vertices[-1] rooted at the first vertex.

    The far endpoint gets weight 1, doubling back toward the root.
    """
    vertices = list(vertices)
    if len(vertices) < 2:
        raise StrategyError("a path strategy needs at least one edge")
    if len(set(vertices)) != len(vertices):
        raise StrategyError("path vertices must be distinct")
    return strategy_from_tree(g, vertices[0], dict(zip(vertices[1:], vertices)))


def validate_strategy(g: Graph, s: Strategy) -> None:
    """Check the strategy invariants; raises StrategyError naming the first violation."""
    if not 0 <= s.root < g.n:
        raise StrategyError(f"root {s.root} outside 0..{g.n - 1}")
    _depths(g, s.root, s.parent)
    if s.weight.keys() != s.parent.keys():
        raise StrategyError("weight map does not cover exactly the non-root vertices")
    bad = [(v, w) for v, w in s.weight.items() if w <= 0]
    if bad:
        raise StrategyError("vertex {} has nonpositive weight {}".format(*min(bad)))
    if sum(s.weight.values()) > _WEIGHT_LIMIT:
        raise StrategyError(_OVER_WEIGHT_LIMIT)
    bad = [(v, p) for v, p in s.parent.items() if p != s.root and s.weight[p] != 2 * s.weight[v]]
    if bad:
        raise StrategyError("weight does not double from {} to its parent {}".format(*min(bad)))


def config_weight(s: Strategy, config) -> int:
    """Weighted pebble count of a configuration under the strategy."""
    total = 0
    for v, w in s.weight.items():
        total += w * config[v]
    if total > _WEIGHT_LIMIT:
        raise OverflowError(f"configuration weight {total} over the 64-bit limit")
    return total


def unit_weight(s: Strategy) -> int:
    """Sum of the strategy weights: its value on the all-ones configuration."""
    total = sum(s.weight.values())
    if total > _WEIGHT_LIMIT:
        raise OverflowError(f"unit weight {total} over the 64-bit limit")
    return total


# ---------------------------------------------------------------------------
# generation

def _branch_tree(g: Graph, root: int, branches, depth_cap: int) -> dict[int, int]:
    """Parent map of a breadth-first forest grown from the given neighbors of root.

    The forest lives in the graph with the root deleted, each branch vertex
    hanging under the root, truncated at the given strategy depth.  Vertices
    are visited in ascending order for determinism.  With every neighbor of
    the root as a branch and a depth cap of the root's eccentricity, it is
    the breadth-first spanning tree: every vertex sits at its distance from
    the root.
    """
    parent = {}
    depth = {}
    queue = deque()
    for b in sorted(branches):
        parent[b] = root
        depth[b] = 1
        queue.append(b)
    while queue:
        u = queue.popleft()
        if depth[u] >= depth_cap:
            continue
        for v in g.adj[u]:
            if v != root and v not in depth:
                depth[v] = depth[u] + 1
                parent[v] = u
                queue.append(v)
    return parent


def _geodesic_spines(g: Graph, root: int, limit: int) -> list[tuple[int, ...]]:
    """Shortest paths from the root to its most distant vertices.

    Every farthest vertex contributes its geodesics in ascending DFS order
    until the limit is reached.
    """
    dist = distances_from(g, root)
    ecc = max(dist)
    spines: list[tuple[int, ...]] = []
    for far in range(g.n):
        if dist[far] != ecc:
            continue
        dist_far = distances_from(g, far)

        def rec(path):
            if len(spines) >= limit:
                return
            if path[-1] == far:
                spines.append(tuple(path))
                return
            d = len(path) - 1
            for u in g.adj[path[-1]]:
                if dist[u] == d + 1 and dist_far[u] == ecc - d - 1:
                    rec(path + [u])

        rec([root])
        if len(spines) >= limit:
            break
    return spines


def _broom_tree(g: Graph, root: int, spine, weight_cap: int) -> dict[int, int]:
    """Parent map of a spine path with extra vertices hung as deep as possible.

    Unplaced neighbors are adopted under the deepest available host first,
    repeating until nothing moves, but never above the depth where their
    weight would exceed the cap.  Deep adoption keeps the tree's unit weight
    small, which is what makes these trees efficient for bounds.
    """
    h = len(spine) - 1
    depth = {v: i for i, v in enumerate(spine)}
    parent = {spine[i]: spine[i - 1] for i in range(1, len(spine))}
    min_depth = max(1, h - (weight_cap.bit_length() - 1))
    changed = True
    while changed:
        changed = False
        for d in range(h, min_depth - 1, -1):
            hosts = sorted(u for u in depth if depth[u] == d - 1)
            for u in hosts:
                for v in g.adj[u]:
                    if v not in depth:
                        depth[v] = d
                        parent[v] = u
                        changed = True
    return parent


def _all_simple_paths(g: Graph, root: int, maxlen: int):
    """All simple paths from the root with 1..maxlen edges, in DFS order."""
    path = [root]
    on_path = {root}

    def rec():
        if len(path) - 1 >= maxlen:
            return
        for v in g.adj[path[-1]]:
            if v not in on_path:
                path.append(v)
                on_path.add(v)
                yield tuple(path)
                yield from rec()
                on_path.remove(v)
                path.pop()

    yield from rec()


def coverage(n: int, root: int, strategies) -> list[int]:
    """Summed strategy weight on every vertex, 0 on the root.

    Raises CoverageError naming the non-root vertices no strategy reaches.
    """
    cover = [0] * n
    for s in strategies:
        for v, w in s.weight.items():
            cover[v] += w
    cover[root] = 0
    uncovered = [v for v in range(n) if v != root and cover[v] == 0]
    if uncovered:
        raise CoverageError(uncovered)
    return cover


def _greedy_descent(n: int, root: int, pool: list[Strategy], start: list[int]):
    """Steepest-descent removal on total/coverage starting from the given subset.

    Each step drops the strategy leaving the least ratio, ties to the first
    in start order, if it beats the current total/low.  A drop's new minimum
    coverage f is at most low and at most its f at an earlier step (coverage
    only falls), so the scan goes heaviest first, stops once
    (total - unit) / low loses to the best drop, skips a candidate whose last
    f loses, and computes the exact f only for the rest.
    """
    try:
        cover = coverage(n, root, [pool[i] for i in start])
    except CoverageError:
        return None
    units = [unit_weight(pool[i]) for i in start]
    total = sum(units)
    cover[root] = total + 1  # above every coverage, so min(cover) skips the root
    dense = [[pool[i].weight.get(v, 0) for v in range(n)] for i in start]
    low = min(cover)
    cap = [low] * len(start)  # each f as last computed; low bounds it before that
    order = sorted(range(len(start)), key=lambda k: -units[k])  # stable: ties keep start order
    while len(order) > 1:
        # the best drop as (total, coverage, position), starting from the
        # current ratio; a/b < c/d iff a*d < c*b
        best = (total, low, -1)
        for k in order:
            new_total = total - units[k]
            if new_total * best[1] > best[0] * low:
                break
            if (new_total * best[1], k) > (best[0] * cap[k], best[2]):
                continue
            f = cap[k] = min(map(sub, cover, dense[k]))
            if (new_total * best[1], k) < (best[0] * f, best[2]):
                best = (new_total, f, k)
        total, low, k = best
        if k < 0:
            break
        cover = list(map(sub, cover, dense[k]))
        order.remove(k)
    return [start[k] for k in sorted(order)], (total, low)


def check_generation_options(method: str, maxlen: int | None, budget: int | None) -> None:
    """Raise StrategyError for an unknown method, a maxlen or budget below 1,
    or a maxlen or budget the method does not read (bfs-trees reads neither,
    all-paths no budget)."""
    if method not in GENERATION_METHODS:
        raise StrategyError(f"unknown generation method {method!r}; "
                            f"expected one of {', '.join(GENERATION_METHODS)}")
    options = (("maxlen", maxlen), ("budget", budget))
    for name, value in options:
        if value is not None and value < 1:
            raise StrategyError(f"{name} must be positive, got {value}")
    for name, value in options:
        if value is not None and method not in _OPTION_METHODS[name]:
            raise StrategyError(f"{method} takes no {name}")


def generate_strategies(g: Graph, root: int, method: str = DEFAULT_GENERATION_METHOD, *,
                        maxlen: int | None = None, budget: int | None = None,
                        seed: int = 0) -> StrategySet:
    """Build a covering strategy set for the root.

    all-paths: every simple path from the root with at most maxlen edges
    (default: the root's eccentricity).  bfs-trees: one breadth-first
    spanning tree, the distance strategy with weights 2^(ecc - dist(v, root));
    every breadth-first tree has these weights, so one tree is the whole set,
    and StrategyError is raised when that tree is over the unit-weight limit.
    greedy-search: pools at most budget (default 256) paths, spanning trees
    and depth-capped branch subtrees, skipping any over the unit-weight limit,
    then keeps the subset minimizing total weight over minimum coverage.
    Every method is deterministic: seed is accepted and ignored.

    Raises StrategyError for options check_generation_options rejects,
    GraphError for a disconnected graph, and CoverageError if the produced
    set leaves a vertex unreached.
    """
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} outside 0..{g.n - 1}")
    check_generation_options(method, maxlen, budget)
    ecc = max(connected_distances(g, root))
    if g.n < 2:
        raise StrategyError("strategies need a graph with at least one edge")

    if method == "all-paths":
        limit = maxlen if maxlen is not None else ecc
        strategies = [strategy_from_path(g, p) for p in _all_simple_paths(g, root, limit)]
    elif method == "bfs-trees":
        strategies = [strategy_from_tree(g, root, _branch_tree(g, root, g.adj[root], ecc))]
    else:
        strategies = _greedy_search(g, root, ecc, maxlen, budget)

    coverage(g.n, root, strategies)
    return StrategySet(root, tuple(strategies))


def _greedy_search(g: Graph, root: int, ecc: int, maxlen: int | None,
                   budget: int | None) -> list[Strategy]:
    cap = budget if budget is not None else 256
    limit = maxlen if maxlen is not None else ecc
    pool: list[Strategy] = []
    index_of: dict[tuple, int] = {}

    def push(parent) -> int | None:
        """Pool the strategy unless an equal-weight one is present; give its index.

        A tree over the unit-weight limit is skipped: the other candidates
        may still cover its vertices.
        """
        try:
            s = strategy_from_tree(g, root, parent)
        except StrategyError as exc:
            if str(exc) != _OVER_WEIGHT_LIMIT:
                raise
            return None
        key = tuple(sorted(s.weight.items()))
        if key in index_of:
            return index_of[key]
        if len(pool) >= cap:
            return None
        index_of[key] = len(pool)
        pool.append(s)
        return index_of[key]

    # branch subtrees by depth: one family per depth cap of the trees grown
    # from each single neighbor, plus the all-neighbor spanning variant
    neighbors = list(g.adj[root])
    families: list[list[int]] = []
    previous = None
    for depth_cap in range(1, MAX_DEPTH + 1):
        family = []
        for b in neighbors:
            i = push(_branch_tree(g, root, [b], depth_cap))
            if i is not None:
                family.append(i)
        push(_branch_tree(g, root, neighbors, depth_cap))
        family = sorted(set(family))
        if family and family != previous:
            families.append(family)
        elif depth_cap > ecc:
            break  # deeper caps stopped changing the trees
        previous = family

    # brooms: geodesic spines with the leftover vertices hung as deep as a
    # weight cap allows, the cheapest spanning trees this search knows
    brooms = []
    for spine in _geodesic_spines(g, root, 32):
        for weight_cap in (1, 2, 4, 8):
            i = push(_broom_tree(g, root, spine, weight_cap))
            if i is not None:
                brooms.append(i)
    if brooms:
        families.append(sorted(set(brooms)))

    for p in _all_simple_paths(g, root, limit):
        if len(pool) >= cap:
            break
        push({v: u for u, v in zip(p, p[1:])})

    starts = [list(range(len(pool)))] + families
    outcomes = [o for o in (_greedy_descent(g.n, root, pool, s) for s in starts) if o is not None]
    if not outcomes:
        return pool
    # the least ratio total/low, the first start on ties
    chosen, _ = min(outcomes, key=lambda outcome: Fraction(*outcome[1]))
    return [pool[i] for i in chosen]


# ---------------------------------------------------------------------------
# exhaustive weight-bound oracle

class WeightCheck(NamedTuple):
    ok: bool
    counterexample: tuple[int, ...] | None


def max_unsolvable_weight_check(g: Graph, root: int, s: Strategy,
                                max_total: int) -> WeightCheck:
    """Verify every unsolvable configuration weighs at most the unit weight.

    Enumerates the configurations with up to max_total pebbles off the root,
    in the solver's level order, and returns the first unsolvable one whose
    weighted count exceeds the strategy's unit weight, if any exists.  The
    enumeration skips configurations with 2^dist(v, root) pebbles on some
    vertex v: they are solvable outright.  Raises GraphError on a
    disconnected graph.
    """
    validate_strategy(g, s)
    if s.root != root:
        raise StrategyError(f"strategy rooted at {s.root}, not {root}")
    _, caps = _level_space(g, root)
    bound = unit_weight(s)
    for total in range(max_total + 1):
        for counts in _bounded_compositions(total, caps):
            if config_weight(s, counts) <= bound:
                continue
            if not is_solvable(g, counts, root).solvable:
                return WeightCheck(False, counts)
    return WeightCheck(True, None)


# ---------------------------------------------------------------------------
# JSON wire format

def strategy_set_to_json(ss: StrategySet) -> dict:
    payload = []
    for s in ss.strategies:
        payload.append({
            "parent": {str(v): p for v, p in sorted(s.parent.items())},
            "weight": {str(v): w for v, w in sorted(s.weight.items())},
        })
    return {"root": ss.root, "strategies": payload}


def _is_int(x) -> bool:
    """A JSON integer; Python reads true and false as ints too, so they are excluded."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_map(entry: dict, key: str) -> dict[int, int]:
    field = entry[key]
    if not isinstance(field, dict) or not all(_is_int(x) for x in field.values()):
        raise StrategyError(f'"{key}" is not an object of integers')
    try:
        result = {decimal_int(v, signed=True): x for v, x in field.items()}
    except ValueError as exc:
        raise StrategyError(f'"{key}" has a non-integer vertex: {exc}') from exc
    if len(result) != len(field):  # "2" and "02" are one vertex
        raise StrategyError(f'"{key}" names a vertex twice')
    return result


def _strategy_from_entry(g: Graph, root: int, entry) -> Strategy:
    if not isinstance(entry, dict) or "parent" not in entry:
        raise StrategyError('expected an object with a "parent" map')
    parent = _int_map(entry, "parent")
    if "weight" not in entry:
        return strategy_from_tree(g, root, parent)
    s = Strategy(root, parent, _int_map(entry, "weight"))
    validate_strategy(g, s)
    return s


def strategy_set_from_json(data: dict, g: Graph) -> StrategySet:
    """Strategy set from its JSON form, every strategy validated against g.

    An entry without weights gets the strategy_from_tree weights.  Raises
    StrategyError naming a malformed "root" or "strategies" field, or the
    first bad entry's index and its problem, and GraphError for a
    disconnected graph.
    """
    try:
        root, entries = data["root"], data["strategies"]
    except (KeyError, TypeError) as exc:
        raise StrategyError(f"strategy JSON missing field: {exc}") from exc
    if not _is_int(root):
        raise StrategyError(f'"root" must be an integer, got {json.dumps(root)}')
    if not isinstance(entries, list):
        raise StrategyError('"strategies" must be a list of strategy objects')
    if not 0 <= root < g.n:
        raise StrategyError(f"root {root} outside 0..{g.n - 1}")
    connected_distances(g, root)  # raises GraphError for a disconnected graph
    strategies = []
    for i, entry in enumerate(entries):
        try:
            strategies.append(_strategy_from_entry(g, root, entry))
        except StrategyError as exc:
            raise StrategyError(f"strategy {i}: {exc}") from exc
    return StrategySet(root, tuple(strategies))


def save_strategy_set(ss: StrategySet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strategy_set_to_json(ss), fh, indent=2)
        fh.write("\n")


def load_strategy_set(path, g: Graph) -> StrategySet:
    with open(path, "r", encoding="utf-8") as fh:
        return strategy_set_from_json(json.load(fh), g)
