"""Benchmark for the pebbling package: end-to-end timings and per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-pi --seed 1 --seconds 40 --trace 0

It imports `pebbling` from the checkout's src/ (and refuses any other copy),
sets the workload up several times, then runs closed-loop passes over the
workload's tasks, one task at a time with threads=1, until --seconds is
spent.  Every result is checked after the timed region.  Human-readable
lines come first; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, reports the per-layer metrics, compares the pooled tasks at
threads=1 and threads=nproc, and writes its spans to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, layer_metrics, layer_totals
from workloads import EXACT_PI, WORKLOADS, bound_value

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "pebbling"
TRACE_DIR = BENCH_DIR / "traces"
LAYERS = ("graph", "families", "solver", "strategy", "lp", "bounds", "treepi")
SETUP_REPEATS = 21

END_TO_END = {
    "pass_s": "s",
    "pass_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Reported on every workload; 0 where the workload does not exercise the layer.
PER_LAYER = {
    "solver.scans": "count",
    "solver.scan_s": "s",
    "solver.is_solvable.calls": "count",
    "solver.is_solvable.s": "s",
    "solver.explored": "count",
    "solver.quick_accept_share": "ratio",
    "solver.pool_speedup": "ratio",
    "strategy.generate.calls": "count",
    "strategy.generate.s": "s",
    "strategy.set_size": "count",
    "strategy.oracle.checks": "count",
    "strategy.oracle.self_s": "s",
    "lp.solves": "count",
    "lp.build_s": "s",
    "lp.solve_s": "s",
    "lp.pivots": "count",
    "lp.ms_per_pivot": "ms",
    "lp.rows": "count",
    "lp.cols": "count",
    "bounds.self_s": "s",
    "bounds.pool_speedup": "ratio",
    "trace.overhead": "ratio",
    "bound_value": "count",
    **{f"task.{name}_cpu_s": "s" for name, *_ in EXACT_PI},
}


class ProvenanceError(RuntimeError):
    """The package resolved somewhere other than this checkout's src/."""


def load_package() -> SimpleNamespace:
    """Import pebbling afresh from src/ and return its layer modules."""
    for name in [m for m in sys.modules if m == "pebbling" or m.startswith("pebbling.")]:
        del sys.modules[name]
    package = importlib.import_module("pebbling")
    origin = Path(package.__file__).resolve().parent
    if origin != PACKAGE_DIR.resolve():
        raise ProvenanceError(f"pebbling resolved to {origin}, not {PACKAGE_DIR}")
    return SimpleNamespace(**{m: importlib.import_module(f"pebbling.{m}") for m in LAYERS})


def provenance(workload: str, seed: int) -> dict:
    """What was measured, where and how; the commit is None outside a git work tree."""
    commit = None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        out = None
    lines = out.stdout.splitlines() if out is not None and out.returncode == 0 else []
    # a checkout without .git must not report the HEAD of a repository around it
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        commit = lines[1]
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "package": str(PACKAGE_DIR),
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children, user plus system."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    task_wall: dict[str, float] = field(default_factory=dict)
    task_cpu: dict[str, float] = field(default_factory=dict)
    results: list[tuple[object, object]] = field(default_factory=list)
    spans: tuple[int, int] = (0, 0)


def run_pass(tasks, rng: random.Random, threads: int = 1, tracer: Tracer | None = None) -> Pass:
    """Run every task once, closed loop, in an order drawn from rng."""
    order = list(tasks)
    rng.shuffle(order)
    ids = {task.name: i for i, task in enumerate(tasks)}
    out = Pass()
    gc.collect()
    first_span = len(tracer) if tracer is not None else 0
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    for task in order:
        t_wall, t_cpu = time.perf_counter(), cpu_seconds()
        if tracer is not None:
            tracer.current_task = ids[task.name]
            sid = tracer.open(f"task.{task.name}")
        try:
            result = task.run(threads)
        except Exception as exc:  # a crash is a failed task, not an aborted run
            result = exc
        if tracer is not None:
            tracer.close(sid)
        out.task_cpu[task.name] = cpu_seconds() - t_cpu
        out.task_wall[task.name] = time.perf_counter() - t_wall
        out.results.append((task, result))
    out.cpu = cpu_seconds() - cpu0
    out.wall = time.perf_counter() - wall0
    out.spans = (first_span, len(tracer) if tracer is not None else 0)
    return out


def check_results(passes) -> tuple[int, int, list[str]]:
    """Check every task result: attempts, failed attempts, and the problems found."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for task, result in p.results:
            attempted += 1
            if isinstance(result, Exception):
                found = [f"raised {type(result).__name__}: {result}"]
            else:
                found = task.check(result)
            failed += bool(found)
            problems.extend(f"{task.name}: {msg}" for msg in found)
    return attempted, failed, problems


def task_metrics(passes) -> dict[str, float | None]:
    """Per-task CPU seconds of exact-pi and the certified Bruhat bound; None where not run."""
    metrics = {}
    for name, *_ in EXACT_PI:
        times = [p.task_cpu[name] for p in passes if name in p.task_cpu]
        metrics[f"task.{name}_cpu_s"] = statistics.median(times) if times else None
    bounds = [bound_value(r) for p in passes for _, r in p.results]
    bounds = [b for b in bounds if isinstance(b, int)]
    metrics["bound_value"] = max(bounds) if bounds else None
    return metrics


def measure(tasks, seed: int, seconds: float) -> list[Pass]:
    """Untraced passes until another one would overrun `seconds`; at least one."""
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(tasks, rng))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes


def measure_traced(workload, mods, tasks, seed: int, seconds: float):
    """Alternate untraced and traced passes, then run the pool comparison."""
    rng = random.Random(seed)
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(tasks, rng))
        tracer.install(mods)
        try:
            traced.append(run_pass(tasks, rng, tracer=tracer))
        finally:
            tracer.uninstall()
        spent = statistics.median(p.wall for p in plain) + statistics.median(p.wall for p in traced)
        if time.perf_counter() - start + spent > seconds:
            break
    per_pass = [layer_metrics(layer_totals(tracer, *p.spans)) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    # adjacent passes share the machine's state best, so compare them pairwise
    metrics["trace.overhead"] = statistics.median(t.cpu / p.cpu for p, t in zip(plain, traced)) - 1
    metrics.update({name: value or 0 for name, value in task_metrics(plain).items()})
    metrics["solver.pool_speedup"] = metrics["bounds.pool_speedup"] = 0.0
    pooled = [t for t in tasks if t.pooled]
    extra = []
    if workload.pool_metric and pooled:
        serial = statistics.median(sum(p.task_wall[t.name] for t in pooled) for p in plain)
        pool_pass = run_pass(pooled, rng, threads=nproc())
        metrics[workload.pool_metric] = serial / pool_pass.wall
        extra.append(pool_pass)
    return plain + traced + extra, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package at {PACKAGE_DIR}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            mods = load_package()
            tasks = workload.prepare(mods, args.seed)
            setup_times.append(time.perf_counter() - t0)
    except ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    origin = provenance(args.workload, args.seed)
    print("provenance " + json.dumps(origin, sort_keys=True))
    print(f"workload {args.workload}: {len(tasks)} tasks a pass, threads=1")

    if args.trace:
        passes, values, tracer = measure_traced(workload, mods, tasks, args.seed, args.seconds)
        units = PER_LAYER
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}.tsv.gz", json.dumps(origin, sort_keys=True))
    else:
        passes = measure(tasks, args.seed, args.seconds)
        units = END_TO_END
        values = {
            "pass_s": statistics.median(p.wall for p in passes),
            "pass_cpu_s": statistics.median(p.cpu for p in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    attempted, failed, problems = check_results(passes)
    print(f"passes {len(passes)}, tasks attempted {attempted}, failed {failed}")
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    summary = dict(values)
    if not args.trace:
        summary["error_rate"] = failed / attempted
        summary.update(task_metrics(passes))
    for name, value in summary.items():
        unit = {**END_TO_END, **PER_LAYER, "error_rate": "ratio"}[name]
        shown = "-" if value is None else f"{value:.6f}"  # "-": not run by this workload
        print(f"{name:28s} {shown:>16s} {unit}")

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
