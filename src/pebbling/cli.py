"""Command-line front end: build graphs, solve configurations, compute bounds.

Every verb reads and writes the package's plain-text and JSON formats, so
any output can be fed back in.  Exit codes: 0 on success (an unsolvable
configuration is a result, not an error), 1 on domain errors, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import bounds, families, treepi, verify
from .graph import GraphError, decimal_int, read_edge_list, to_edge_list, write_edge_list
from .lp import fraction_text
from .solver import (
    DEFAULT_MAX_CONFIGS,
    ConfigFormatError,
    EnumerationCapError,
    SearchCapError,
    format_config,
    is_solvable,
    parse_config,
    pebbling_number,
    pebbling_number_max,
)
from .strategy import (
    DEFAULT_GENERATION_METHOD,
    GENERATION_METHODS,
    StrategyError,
    generate_strategies,
    load_strategy_set,
    save_strategy_set,
    strategy_set_to_json,
)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _load_strategies(args, g):
    """The --strategies set for g, checked against --root when given."""
    try:
        ss = load_strategy_set(args.strategies, g)
    except json.JSONDecodeError as exc:
        raise StrategyError(f"{args.strategies} line {exc.lineno}: {exc.msg}") from exc
    if args.root is not None and args.root != ss.root:
        raise StrategyError(f"strategy set is rooted at {ss.root}, not {args.root}")
    return ss


def _read_config(args, n: int):
    if args.config is not None:
        return parse_config(args.config, n)
    with open(args.config_file, "r", encoding="utf-8") as fh:
        return parse_config(fh.read().strip(), n)


# ---------------------------------------------------------------------------
# verbs

def _cmd_family(args) -> int:
    parents = None
    if args.parents is not None:
        try:
            parents = [decimal_int(p, signed=True) for p in args.parents.split(",")]
        except ValueError as exc:
            raise GraphError(f"parents must be comma-separated integers: {exc}") from exc
    g = families.build_family(args.kind, args.size, parents)
    if args.out:
        write_edge_list(g, args.out)
        if not args.json:
            print(f"wrote {args.out}: {g.n} vertices, {g.num_edges} edges")
    payload = {"kind": args.kind, "n": g.n, "m": g.num_edges,
               "edges": [list(e) for e in g.edges()]}
    if args.json:
        print(json.dumps(payload, indent=2))
    elif not args.out:
        sys.stdout.write(to_edge_list(g))
    return 0


def _cmd_solve(args) -> int:
    g = read_edge_list(args.graph)
    config = _read_config(args, g.n)
    start = time.perf_counter()
    result = is_solvable(g, config, args.root)
    elapsed_ms = (time.perf_counter() - start) * 1000
    payload = {
        "solvable": result.solvable,
        "witness": [list(m) for m in result.witness] if result.witness else None,
        "explored": result.explored,
        "elapsed_ms": round(elapsed_ms, 3),
    }
    if result.solvable:
        moves = " ".join(f"{u}->{v}" for u, v in result.witness)
        text = f"solvable in {len(result.witness)} moves: {moves}" if moves \
            else "solvable with no moves (root already holds a pebble)"
    elif result.explored:
        text = f"unsolvable (explored {result.explored} configurations)"
    else:
        text = "unsolvable (decided without a search)"
    _emit(args, payload, text)
    return 0


def _cmd_pi(args) -> int:
    g = read_edge_list(args.graph)
    start = time.perf_counter()
    if args.root is not None:
        result = pebbling_number(g, args.root, max_configs=args.max_configs)
    else:
        result = pebbling_number_max(g, max_configs=args.max_configs)
    elapsed_ms = (time.perf_counter() - start) * 1000
    payload = {
        "value": result.value,
        "root": result.root,
        "critical_config": format_config(result.critical_config),
        "elapsed_ms": round(elapsed_ms, 3),
    }
    scope = f"root {result.root}" if args.root is not None \
        else f"all roots (max at root {result.root})"
    _emit(args, payload, f"pebbling number {result.value} for {scope}; "
                         f"critical configuration {format_config(result.critical_config) or '(empty)'}")
    return 0


def _cmd_strategies(args) -> int:
    g = read_edge_list(args.graph)
    ss = generate_strategies(g, args.root, args.method, maxlen=args.maxlen,
                             budget=args.budget)
    report = bounds.ratio_report(g, ss)
    if args.out:
        save_strategy_set(ss, args.out)
    payload = strategy_set_to_json(ss)
    payload["kappa"] = report.min_coverage
    payload["chi"] = report.total_unit_weight
    if args.json:
        print(json.dumps(payload, indent=2))
    elif args.out:
        print(f"{len(ss.strategies)} strategies for root {args.root}: "
              f"kappa {report.min_coverage}, chi {report.total_unit_weight}, "
              f"ratio bound {report.ratio_bound} (written to {args.out})")
    else:
        print(json.dumps(strategy_set_to_json(ss), indent=2))
    return 0


def _report_text(report: bounds.BoundReport) -> str:
    line = (f"root {report.root}: kappa {report.min_coverage}, "
            f"chi {report.total_unit_weight}, ratio bound {report.ratio_bound}")
    if report.lp_bound is not None:
        line += f", lp value {report.lp_value}, lp bound {report.lp_bound}"
    return line


def _cmd_bound(args) -> int:
    given = [f"--{o}" for o in ("gen", "maxlen", "budget") if getattr(args, o) is not None]
    if args.strategies and given:
        raise StrategyError(f"--strategies takes no {', '.join(given)}")
    g = read_edge_list(args.graph)
    gen = args.gen or DEFAULT_GENERATION_METHOD
    if args.strategies or args.root is not None:
        if args.strategies:
            ss = _load_strategies(args, g)
        else:
            ss = generate_strategies(g, args.root, gen, maxlen=args.maxlen,
                                     budget=args.budget)
        report = bounds.lp_bound(g, ss) if args.method == "lp" \
            else bounds.ratio_report(g, ss)
        _emit(args, report.to_json_dict(), _report_text(report))
        return 0
    graph_bounds = bounds.bound_graph(g, method=args.method, gen=gen,
                                      maxlen=args.maxlen, budget=args.budget)
    if args.json:
        print(json.dumps(graph_bounds.to_json_dict(g), indent=2))
    else:
        for root in sorted(graph_bounds.per_root):
            print(_report_text(graph_bounds.per_root[root]))
        for root, problem in sorted(graph_bounds.failures.items()):
            print(f"root {root}: failed ({problem})", file=sys.stderr)
        print(f"overall bound: {graph_bounds.overall_bound}")
    return 1 if graph_bounds.failures else 0


def _print_pivot(count, entering, leaving, value) -> None:
    print(f"pivot {count}: enter x{entering}, leave row {leaving}, value {value}")


def _cmd_lp(args) -> int:
    g = read_edge_list(args.graph)
    ss = _load_strategies(args, g)
    report, solution = bounds.certify(g, ss, on_pivot=_print_pivot if args.verbose else None)
    payload = {
        "status": "optimal",
        "value": fraction_text(report.lp_value),
        "bound": report.lp_bound,
        "pivots": solution.pivot_count,
        "point": [fraction_text(x) for x in solution.point],
        "dual": [fraction_text(y) for y in report.lp_dual],
    }
    _emit(args, payload, f"optimal value {report.lp_value} (bound {report.lp_bound}) "
                         f"after {solution.pivot_count} pivots")
    return 0


def _cmd_tree_pi(args) -> int:
    g = read_edge_list(args.graph)
    root = args.root
    if root is None:
        root = treepi.tree_pebbling_number_max(g).root
    partition = treepi.max_path_partition(g, root)
    value = partition.pebbling_number
    payload = {
        "value": value,
        "root": root,
        "partition": partition.to_json_list(),
        "critical_config": format_config(partition.critical_config),
    }
    scope = f"root {root}" if args.root is not None else f"all roots (max at root {root})"
    _emit(args, payload, f"tree pebbling number {value} for {scope}; "
                         f"path lengths {list(partition.lengths)}")
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_checks(args.level)
    if args.json:
        payload = [{"name": r.name, "ok": r.ok, "detail": r.detail,
                    "elapsed_ms": round(r.elapsed * 1000, 3)} for r in results]
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            mark = "PASS" if r.ok else "FAIL"
            print(f"{mark}  {r.name:<18} {r.elapsed:8.2f}s  {r.detail}")
    failed = [r.name for r in results if not r.ok]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_graph_arg(sub) -> None:
    sub.add_argument("--graph", required=True, help="edge-list file")


def _int(text: str) -> int:
    """A signed ASCII decimal integer: int() would also read "1_0", "+2", " 3" and "\u0663"."""
    try:
        return decimal_int(text, signed=True)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_max_configs_arg(sub) -> None:
    sub.add_argument("--max-configs", type=_positive_int, default=DEFAULT_MAX_CONFIGS,
                     help="cap on configurations per enumerated level")


def _add_gen_args(sub, flag: str, default: str | None) -> None:
    """Strategy generation options; bound names the method --gen, strategies --method."""
    sub.add_argument(flag, default=default, choices=GENERATION_METHODS,
                     help=f"strategy generation method (default {DEFAULT_GENERATION_METHOD})")
    sub.add_argument("--maxlen", type=_positive_int, default=None, help="path length cap")
    sub.add_argument("--budget", type=_positive_int, default=None,
                     help="greedy-search candidate pool cap")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebbling",
        description="Graph pebbling workbench: exact solver, strategies, bounds.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit results as JSON")
    subs = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name, help_text):
        return subs.add_parser(name, help=help_text, parents=[common])

    p = add_verb("family", "generate a named graph family")
    p.add_argument("--kind", required=True, choices=families.FAMILY_KINDS)
    p.add_argument("--size", type=_int, default=None,
                   help="n for path/cycle/complete/bruhat, d for hypercube")
    p.add_argument("--parents", default=None,
                   help="comma-separated parent array for --kind tree (-1 marks the root)")
    p.add_argument("--out", default=None, help="write the edge list here")
    p.set_defaults(func=_cmd_family)

    p = add_verb("solve", "decide whether a configuration reaches the root")
    _add_graph_arg(p)
    p.add_argument("--root", type=_int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help='inline configuration "v:count,v:count"')
    group.add_argument("--config-file", help="file holding one configuration line")
    p.set_defaults(func=_cmd_solve)

    p = add_verb("pi", "exact pebbling number (all roots unless --root)")
    _add_graph_arg(p)
    p.add_argument("--root", type=_int, default=None)
    _add_max_configs_arg(p)
    p.set_defaults(func=_cmd_pi)

    p = add_verb("strategies", "generate a covering strategy set")
    _add_graph_arg(p)
    p.add_argument("--root", type=_int, required=True)
    _add_gen_args(p, "--method", DEFAULT_GENERATION_METHOD)
    p.add_argument("--out", default=None, help="write the strategy set JSON here")
    p.set_defaults(func=_cmd_strategies)

    p = add_verb("bound", "pebbling bounds from strategy sets")
    _add_graph_arg(p)
    p.add_argument("--root", type=_int, default=None)
    p.add_argument("--strategies", default=None, help="strategy set JSON file")
    p.add_argument("--method", default="lp", choices=("ratio", "lp"))
    # None tells a --gen given with --strategies from the default
    _add_gen_args(p, "--gen", None)
    p.set_defaults(func=_cmd_bound)

    p = add_verb("lp", "solve the strategy-set linear relaxation")
    _add_graph_arg(p)
    p.add_argument("--root", type=_int, default=None)
    p.add_argument("--strategies", required=True)
    p.add_argument("--verbose", action="store_true", help="print simplex pivots")
    p.set_defaults(func=_cmd_lp)

    p = add_verb("tree-pi", "exact tree pebbling number via path partition")
    _add_graph_arg(p)
    p.add_argument("--root", type=_int, default=None)
    p.set_defaults(func=_cmd_tree_pi)

    p = add_verb("verify", "recompute the package's reference values")
    p.add_argument("--level", default="fast", choices=("fast", "full"))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, StrategyError, ConfigFormatError,
            EnumerationCapError, SearchCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
