"""The benchmark's workloads: fixed instances, reference values and checks.

Every instance is fixed.  The seed permutes the order of tasks within a pass
and, in weight-oracle, seeds the bfs-trees strategy generator.  It does not
relabel vertices: the solver tries vertices in index order, so a relabelled
graph is a different workload, not a replicate (see NOTES.md).

A workload's prepare() builds its inputs and returns its tasks.  Each task
runs one public call of the package, and its check returns the problems
found in the result; checks run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[int], object]  # takes the worker count
    check: Callable[[object], list[str]]
    pooled: bool = False  # rerun at threads=nproc for the pool comparison


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[object, int], list[Task]]
    pool_metric: str | None  # per-layer metric the pool comparison reports


# ---------------------------------------------------------------------------
# exact-pi: the solver's level scan, rooted and over all roots

# (task name, graph constructor, root or None for all roots, pi, is a tree)
EXACT_PI = (
    ("path7_r6", lambda f: f.path(7), 6, 64, True),
    ("tree_a_r5", lambda f: f.tree_from_parents([-1, 0, 0, 0, 1, 2, 4]), 5, 33, True),
    ("cycle8_all", lambda f: f.cycle(8), None, 16, False),
    ("petersen_all", lambda f: f.petersen(), None, 10, False),
)


def _exact_check(mods, g, root, reference, tree):
    def check(result) -> list[str]:
        problems = []
        if result.value != reference:
            problems.append(f"pi {result.value}, reference {reference}")
        if tree and mods.treepi.tree_pebbling_number(g, root) != result.value:
            problems.append(f"pi {result.value} disagrees with the tree formula")
        crit = result.critical_config
        if sum(crit) != result.value - 1:
            problems.append(f"critical configuration holds {sum(crit)}, not {result.value - 1}")
        elif mods.solver.is_solvable(g, crit, result.root).solvable:
            problems.append("critical configuration is solvable")
        return problems
    return check


def prepare_exact_pi(mods, seed: int) -> list[Task]:
    solver = mods.solver
    tasks = []
    for name, build, root, reference, tree in EXACT_PI:
        g = build(mods.families)
        if root is None:
            def run(threads, g=g):
                return solver.pebbling_number_max(g, threads=threads)
        else:
            def run(threads, g=g, root=root):
                return solver.pebbling_number(g, root, threads=threads)
        tasks.append(Task(name, run, _exact_check(mods, g, root, reference, tree),
                          pooled=root is None))
    return tasks


# ---------------------------------------------------------------------------
# bruhat-bound: greedy strategy generation and the exact LP, 24 roots

BRUHAT_SIZE = 4


def prepare_bruhat_bound(mods, seed: int) -> list[Task]:
    g = mods.families.bruhat(BRUHAT_SIZE)
    lows = {root: max(g.n, 1 << mods.graph.eccentricity(g, root)) for root in range(g.n)}

    def run(threads):
        return mods.bounds.bound_graph(g, "lp", gen="greedy-search", threads=threads)

    def check(result) -> list[str]:
        problems = [f"root {r}: {msg}" for r, msg in sorted(result.failures.items())]
        if sorted(result.per_root) != list(range(g.n)):
            problems.append(f"reports for roots {sorted(result.per_root)}")
        for root, report in sorted(result.per_root.items()):
            # max(n, 2^ecc) is a lower bound on the rooted pebbling number
            if not lows[root] <= report.lp_bound <= report.ratio_bound:
                problems.append(f"root {root}: lp bound {report.lp_bound} outside "
                                f"[{lows[root]}, ratio bound {report.ratio_bound}]")
        if result.per_root and result.overall_bound != max(
                r.lp_bound for r in result.per_root.values()):
            problems.append(f"overall bound {result.overall_bound} is not the largest root bound")
        return problems

    return [Task(f"bruhat{BRUHAT_SIZE}", run, check, pooled=True)]


def bound_value(result) -> int | None:
    """The certified overall bound a bruhat-bound task returned."""
    return getattr(result, "overall_bound", None)


# ---------------------------------------------------------------------------
# weight-oracle: the exhaustive weight check over every generated strategy

# (graph name, constructor, frozen rooted pebbling numbers by root)
WEIGHT_ORACLE = (
    ("hypercube3", lambda f: f.hypercube(3), (8,) * 8),
    ("path5", lambda f: f.path(5), (16, 9, 7, 9, 16)),
    ("cycle6", lambda f: f.cycle(6), (8,) * 6),
)
GENERATORS = ("greedy-search", "all-paths", "bfs-trees")


def _oracle_check(result) -> list[str]:
    if result.ok:
        return []
    return [f"unsolvable {result.counterexample} outweighs the strategy"]


def prepare_weight_oracle(mods, seed: int) -> list[Task]:
    strategy = mods.strategy
    tasks = []
    for gname, build, pis in WEIGHT_ORACLE:
        g = build(mods.families)
        for root, pi in enumerate(pis):
            seen = set()
            for method in GENERATORS:
                for s in strategy.generate_strategies(g, root, method, seed=seed).strategies:
                    key = tuple(sorted(s.weight.items()))
                    if key in seen:
                        continue
                    seen.add(key)

                    def run(threads, g=g, root=root, s=s, budget=pi - 1):
                        return strategy.max_unsolvable_weight_check(g, root, s, budget)
                    tasks.append(Task(f"{gname}_r{root}_s{len(seen) - 1}", run, _oracle_check))
    return tasks


WORKLOADS = {
    "exact-pi": Workload(prepare_exact_pi, "solver.pool_speedup"),
    "bruhat-bound": Workload(prepare_bruhat_bound, "bounds.pool_speedup"),
    "weight-oracle": Workload(prepare_weight_oracle, None),
}
