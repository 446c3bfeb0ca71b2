"""Spans recorded from outside the package, by wrapping module attributes.

The package calls from one layer into another through module globals
(`pebbling_number_max` looks up `pebbling_number`, the weight oracle looks
up `strategy.is_solvable`, `bounds` looks up `generate_strategies`,
`build_relaxation` and `solve_max`).  Replacing those attributes with timing
wrappers records a span per call without editing the package.  Spans live in
parallel arrays so that a few hundred thousand of them stay small in memory.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from collections import defaultdict

# (module, attribute, span name, note) for every boundary the trace records.
# The note reads one count off the call's result; LP shapes pack as rows * 2^20 + cols.
BOUNDARIES = (
    ("solver", "pebbling_number_max", "solver.pebbling_number_max", None),
    ("solver", "pebbling_number", "solver.pebbling_number", None),
    ("strategy", "max_unsolvable_weight_check", "strategy.oracle", None),
    ("strategy", "is_solvable", "solver.is_solvable", lambda r: r.explored),
    ("bounds", "bound_graph", "bounds.bound_graph", None),
    ("bounds", "generate_strategies", "strategy.generate", lambda r: len(r.strategies)),
    ("bounds", "build_relaxation", "lp.build", lambda r: (len(r.constraints) << 20) | r.num_vars),
    ("bounds", "solve_max", "lp.solve", lambda r: r.pivot_count),
)


class Tracer:
    """In-memory span store; install() wraps the boundaries, uninstall() restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("q")
        self.task = array("q")
        self.start = array("q")
        self.end = array("q")
        self.note = array("q")
        self.current_task = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.current_task)
        self.note.append(-1)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, note: int = -1) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        self.note[sid] = note

    def _wrapper(self, original, name: str, note):
        open_span, close_span = self.open, self.close

        def traced(*args, **kwargs):
            sid = open_span(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                close_span(sid)
                raise
            close_span(sid, note(result) if note else -1)
            return result

        return traced

    def install(self, mods) -> None:
        for module_name, attr, name, note in BOUNDARIES:
            module = getattr(mods, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path, header: str) -> None:
        """Gzipped tab-separated spans, one a line, after a '#' provenance header."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("id\tparent\ttask\tname\tstart_ns\tend_ns\tnote\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.task[sid]}\t"
                         f"{self.names[self.name[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\t{self.note[sid]}\n")


def layer_totals(tr: Tracer, first: int, last: int) -> dict[str, dict]:
    """Per span name: calls, summed duration and self time (s), and notes.

    Covers spans first..last-1, which must be closed.  Self time is a span's
    duration minus its direct children's.
    """
    child_ns = defaultdict(int)
    for sid in range(first, last):
        p = tr.parent[sid]
        if p >= first:
            child_ns[p] += tr.end[sid] - tr.start[sid]
    totals: dict[str, dict] = {}
    for sid in range(first, last):
        name = tr.names[tr.name[sid]]
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []})
        duration = tr.end[sid] - tr.start[sid]
        entry["calls"] += 1
        entry["s"] += duration / 1e9
        entry["self_s"] += (duration - child_ns[sid]) / 1e9
        if tr.note[sid] >= 0:
            entry["notes"].append(tr.note[sid])
    return totals


def layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics of one traced pass; 0 where a layer did no work."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []}

    def get(name):
        return totals.get(name, empty)

    scans = get("solver.pebbling_number")
    solves = get("solver.is_solvable")
    generate = get("strategy.generate")
    oracle = get("strategy.oracle")
    build = get("lp.build")
    lp = get("lp.solve")
    bound = get("bounds.bound_graph")
    pivots = sum(lp["notes"])
    shapes = build["notes"]
    return {
        "solver.scans": scans["calls"],
        "solver.scan_s": scans["self_s"],
        "solver.is_solvable.calls": solves["calls"],
        "solver.is_solvable.s": solves["s"],
        "solver.explored": sum(solves["notes"]),
        "solver.quick_accept_share": (solves["notes"].count(0) / solves["calls"]
                                      if solves["calls"] else 0.0),
        "strategy.generate.calls": generate["calls"],
        "strategy.generate.s": generate["s"],
        "strategy.set_size": statistics.fmean(generate["notes"]) if generate["notes"] else 0.0,
        "strategy.oracle.checks": oracle["calls"],
        "strategy.oracle.self_s": oracle["self_s"],
        "lp.solves": lp["calls"],
        "lp.build_s": build["s"],
        "lp.solve_s": lp["s"],
        "lp.pivots": pivots,
        "lp.ms_per_pivot": 1000 * lp["s"] / pivots if pivots else 0.0,
        "lp.rows": statistics.fmean(s >> 20 for s in shapes) if shapes else 0.0,
        "lp.cols": statistics.fmean(s & 0xFFFFF for s in shapes) if shapes else 0.0,
        "bounds.self_s": bound["self_s"],
    }
