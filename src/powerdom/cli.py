"""Command-line front end.

Subcommands: solve, ppt, spread, model, decompose, gadget, check, batch.
Results go to stdout, diagnostics to stderr. Exit status 0 means success,
2 means infeasible input or an exhausted budget, 1 means a usage or parse
problem. Output is deterministic byte for byte; wall-clock times in batch
mode are opt-in for that reason.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import IO, Callable, Sequence

from . import exact, graph_io, milp, propagation, spread, structural
from .decomposition import classify_cut_vertices
from .errors import (
    BudgetExceededError,
    DisconnectedError,
    GraphClassError,
    GraphError,
    ParseError,
    PowerDomError,
)
from .exact import Budget
from .graphs import Graph

BUDGET_ENV = "POWERDOM_BUDGET_N"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we want exit 1
        raise _UsageError(message)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="graph file, or - for stdin")
    parser.add_argument(
        "--input-format",
        choices=graph_io.FORMATS,
        default="edgelist",
        help="graph file format (default edgelist)",
    )


def _non_negative(kind: type) -> Callable[[str], int | float]:
    """argparse type: a number of ``kind`` that is at least 0."""

    def parse(text: str) -> int | float:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
        if not value >= 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be at least 0: {text!r}")
        return value

    return parse


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit json-lines output")
    parser.add_argument("--budget-n", type=_non_negative(int), default=None,
                        help="vertex ceiling for the enumeration oracle")
    parser.add_argument("--budget-seconds", type=_non_negative(float), default=None,
                        help="time ceiling for the enumeration oracle")
    parser.add_argument("--budget-bin", type=int, default=30,
                        help="binary variable ceiling for the model validator")


def build_parser() -> _Parser:
    parser = _Parser(prog="powerdom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimal (connected) power dominating set")
    _add_graph_arguments(p_solve)
    _add_common_arguments(p_solve)
    p_solve.add_argument("--problem", choices=("pd", "cpd"), default="cpd")
    p_solve.add_argument(
        "--method",
        choices=("auto", "tree", "block", "cactus", "decompose", "brute", "milp"),
        default="auto",
    )
    p_solve.add_argument("--T", type=int, default=None,
                         help="horizon for the milp method (default n)")
    p_solve.add_argument("--trace", action="store_true", help="print the force trace")
    p_solve.add_argument("--all-optima", action="store_true",
                         help="list every optimal set (brute method only)")

    p_ppt = sub.add_parser("ppt", help="power propagation time")
    _add_graph_arguments(p_ppt)
    _add_common_arguments(p_ppt)
    p_ppt.add_argument("--method", choices=("brute", "milp"), default="brute")
    p_ppt.add_argument("--connected", action="store_true",
                       help="minimize over minimum connected sets instead")

    p_spread = sub.add_parser("spread", help="optimum change under one graph operation")
    _add_graph_arguments(p_spread)
    _add_common_arguments(p_spread)
    p_spread.add_argument(
        "--op", required=True,
        choices=("delete-vertex", "delete-edge", "contract-edge", "subdivide-edge"),
    )
    p_spread.add_argument("--target", required=True,
                          help="vertex label, or u,v for edge operations")
    p_spread.add_argument("--method", choices=("auto", "brute"), default="auto")

    p_model = sub.add_parser("model", help="write the integer programming model")
    _add_graph_arguments(p_model)
    _add_common_arguments(p_model)
    p_model.add_argument("--problem", choices=("pd", "cpd"), default="pd")
    p_model.add_argument("--T", type=int, default=None, help="horizon (default n)")
    p_model.add_argument("--format", choices=("lp", "mps"), default="lp")
    p_model.add_argument("--out", default=None, help="output path (default stdout)")

    p_dec = sub.add_parser("decompose", help="cut-vertex decomposition report")
    _add_graph_arguments(p_dec)
    _add_common_arguments(p_dec)

    p_gadget = sub.add_parser("gadget", help="emit a named construction as an edge list")
    _add_common_arguments(p_gadget)
    p_gadget.add_argument("--kind", required=True,
                          choices=("path-spread", "cycle-spread", "zf-reduction"))
    p_gadget.add_argument("--c", type=int, default=1, help="swing parameter")
    p_gadget.add_argument("--k", type=int, default=1,
                          help="zero forcing bound (zf-reduction)")
    p_gadget.add_argument("--input", default=None,
                          help="input graph (zf-reduction only)")
    p_gadget.add_argument("--input-format", choices=graph_io.FORMATS,
                          default="edgelist")

    p_check = sub.add_parser("check", help="verify a candidate set")
    _add_graph_arguments(p_check)
    _add_common_arguments(p_check)
    p_check.add_argument("--set", required=True, dest="vertex_set",
                         help="comma separated vertex labels")
    p_check.add_argument("--problem", choices=("pd", "cpd"), default="cpd")
    p_check.add_argument("--trace", action="store_true")

    p_batch = sub.add_parser("batch", help="summary table over many graph files")
    p_batch.add_argument("inputs", nargs="+", help="graph files")
    p_batch.add_argument("--input-format", choices=graph_io.FORMATS,
                         default="edgelist")
    _add_common_arguments(p_batch)
    p_batch.add_argument("--problems", default="pd,cpd",
                         help="comma separated subset of pd,cpd")
    p_batch.add_argument("--skip-ppt", action="store_true",
                         help="drop the propagation time column")
    p_batch.add_argument("--times", action="store_true",
                         help="include wall-clock times (non-deterministic output)")
    return parser


def _budget(args: argparse.Namespace) -> Budget:
    n = args.budget_n
    if n is None:
        env = os.environ.get(BUDGET_ENV)
        try:
            n = _non_negative(int)(env) if env else Budget().max_vertices
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"{BUDGET_ENV}: {exc}") from None
    return Budget(max_vertices=n, max_seconds=args.budget_seconds)


def _read(path: str, stdin: IO[str]) -> str:
    """Text of a graph file, or of stdin for ``-``."""
    try:
        if path == "-":
            return stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _load(args: argparse.Namespace, stdin: IO[str]) -> Graph:
    return graph_io.load_graph(_read(args.input, stdin), args.input_format)


def _emit(out: IO[str], args: argparse.Namespace, record: dict, text_lines: list[str]) -> None:
    if args.json:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        for line in text_lines:
            out.write(line + "\n")


def _result_payload(g: Graph, result: exact.SolveResult, problem: str) -> dict:
    return {
        "problem": problem,
        "n": g.n,
        "m": g.m,
        "optimum": result.optimum,
        "witness": list(result.witness_labels(g)),
        "method": result.method,
    }


def _cmd_solve(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    if args.T is not None and args.method != "milp":
        raise _UsageError("--T applies to the milp method only")
    budget = _budget(args)
    if args.method == "milp":
        model = milp.build_model1(g, args.T)
        if args.problem == "cpd":
            model = milp.add_mtz_connectivity(model, g)
        solution = milp.solve_small(model, args.budget_bin)
        if solution.status != milp.OPTIMAL:
            raise BudgetExceededError("model validator budget exhausted")
        chosen, trace = milp.decode_assignment(model, solution.assignment)
        result = exact.SolveResult(len(chosen), chosen, trace, exact.METHOD_MILP)
    elif args.problem == "pd":
        if args.method not in ("auto", "brute"):
            raise _UsageError(f"method {args.method} solves cpd only")
        result = exact.min_pds(g, budget, all_optima=args.all_optima)
    elif args.method == "brute":
        result = exact.min_cpds(g, budget, all_optima=args.all_optima)
    else:
        result = structural.solve_cpds(g, args.method, budget)
    payload = _result_payload(g, result, args.problem)
    lines = [
        f"optimum: {result.optimum}",
        f"witness: {' '.join(payload['witness'])}",
        f"method: {result.method}",
    ]
    if args.all_optima and result.all_optima is not None:
        payload["all_optima"] = [list(g.labels_of(s)) for s in result.all_optima]
        lines.append(f"optima: {len(result.all_optima)}")
        for s in result.all_optima:
            lines.append("  " + " ".join(g.labels_of(s)))
    if args.trace:
        payload["trace"] = propagation.trace_lines(g, result.trace)
        lines.append("trace:")
        lines.extend("  " + t for t in propagation.trace_lines(g, result.trace))
    _emit(out, args, payload, lines)
    return 0


def _cmd_ppt(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    if args.method == "milp":
        value = milp.ppt_by_search(g, connected=args.connected, budget=args.budget_bin)
    else:
        value = exact.ppt(g, _budget(args), connected=args.connected)
    record = {"ppt": value, "connected": args.connected, "n": g.n, "m": g.m}
    _emit(out, args, record, [f"ppt: {value}"])
    return 0


def _cmd_spread(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    budget = _budget(args)
    solver = None
    if args.method == "brute":
        solver = lambda h: exact.min_cpds(h, budget)  # noqa: E731
    labels = [part.strip() for part in args.target.split(",") if part.strip()]
    if args.op == "delete-vertex":
        if len(labels) != 1:
            raise _UsageError("delete-vertex takes one vertex label")
        report = spread.vertex_spread(g, g.index(labels[0]), solver, budget)
    else:
        if len(labels) != 2:
            raise _UsageError(f"{args.op} takes a target of the form u,v")
        u, v = g.index(labels[0]), g.index(labels[1])
        if args.op == "delete-edge":
            report = spread.edge_spread(g, u, v, solver, budget)
        elif args.op == "contract-edge":
            report = spread.contract_edge_spread(g, u, v, solver, budget)
        else:
            report = spread.subdivide_edge_delta(g, u, v, solver, budget)
    record = {
        "operation": report.operation,
        "target": list(report.target),
        "before": report.before.optimum,
        "after": report.after.optimum,
        "spread": report.spread,
    }
    lines = [
        f"operation: {report.operation}",
        f"target: {','.join(report.target)}",
        f"before: {report.before.optimum}",
        f"after: {report.after.optimum}",
        f"spread: {report.spread}",
    ]
    _emit(out, args, record, lines)
    return 0


def _cmd_model(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    model = milp.build_model1(g, args.T)
    if args.problem == "cpd":
        model = milp.add_mtz_connectivity(model, g)
    text = milp.export(model, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)
    return 0


def _cmd_decompose(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    budget = _budget(args)
    taxonomy = classify_cut_vertices(g)
    pieces = structural.nontrivial_block_subgraphs(g)
    record = {
        "mandatory": list(g.labels_of(taxonomy.mandatory)),
        "blocks": [],
    }
    lines = [f"mandatory: {' '.join(g.labels_of(taxonomy.mandatory))}"]
    result = structural.decompose_cpds(g, budget=budget, pieces=pieces)
    mandatory = set(taxonomy.mandatory)
    for i, (core, sub, remap) in enumerate(pieces, start=1):
        anchors = [v for v in core if v in mandatory]
        record["blocks"].append(
            {
                "core": list(g.labels_of(core)),
                "anchors": list(g.labels_of(anchors)),
                "size": sub.n,
            }
        )
        lines.append(
            f"block {i}: core={','.join(g.labels_of(core))}"
            f" anchors={','.join(g.labels_of(anchors))} size={sub.n}"
        )
    record.update(_result_payload(g, result, "cpd"))
    lines.append(f"optimum: {result.optimum}")
    lines.append(f"witness: {' '.join(result.witness_labels(g))}")
    _emit(out, args, record, lines)
    return 0


def _cmd_gadget(args, out, err, stdin) -> int:
    if args.kind == "path-spread":
        g = spread.make_path_gadget(args.c)
        out.write(graph_io.dump_edgelist(g))
    elif args.kind == "cycle-spread":
        g = spread.make_cycle_gadget(args.c)
        out.write(graph_io.dump_edgelist(g))
    else:
        if args.input is None:
            raise _UsageError("zf-reduction needs an input graph")
        base = _load(args, stdin)
        expanded, bound = exact.zf_to_cpd_gadget(base, args.k)
        out.write(f"# connected power domination bound: {bound}\n")
        out.write(graph_io.dump_edgelist(expanded))
    return 0


def _cmd_check(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    labels = [part.strip() for part in args.vertex_set.split(",") if part.strip()]
    vertices = g.indices_of(labels)
    ok, trace = propagation.is_power_dominating(g, vertices)
    connected = propagation.is_connected_set(g, vertices)
    valid = ok and (connected or args.problem == "pd")
    record = {
        "problem": args.problem,
        "set": labels,
        "power_dominating": ok,
        "connected": connected,
        "valid": valid,
    }
    lines = [
        f"set: {' '.join(labels)}",
        f"power_dominating: {'yes' if ok else 'no'}",
        f"connected: {'yes' if connected else 'no'}",
        f"valid for {args.problem}: {'yes' if valid else 'no'}",
    ]
    if args.trace:
        record["trace"] = propagation.trace_lines(g, trace)
        lines.append("trace:")
        lines.extend("  " + t for t in propagation.trace_lines(g, trace))
    _emit(out, args, record, lines)
    return 0 if valid else 2


def _cmd_batch(args, out, err, stdin) -> int:
    problems = [p.strip() for p in args.problems.split(",") if p.strip()]
    for p in problems:
        if p not in ("pd", "cpd"):
            raise _UsageError(f"unknown problem {p!r}")
    budget = _budget(args)
    rows = []
    for path in args.inputs:
        name = os.path.splitext(os.path.basename(path))[0]
        row = {"name": name}
        started = time.perf_counter()
        try:
            g = graph_io.load_graph(_read(path, stdin), args.input_format)
            row["n"], row["m"] = g.n, g.m
            method = "-"
            pd_ppt = None
            if "pd" in problems:
                # one search gives gamma_P and, with every optimum, the ppt
                pd_result = exact.min_pds(g, budget, all_optima=not args.skip_ppt)
                row["gamma_p"] = pd_result.optimum
                if not args.skip_ppt:
                    pd_ppt = exact.fastest_optimum(g, pd_result)
                # kept alive through the cpd solve, it raised peak RSS by 0.3 MB
                del pd_result
            if "cpd" in problems:
                result = structural.solve_cpds(g, "auto", budget)
                row["gamma_pc"] = result.optimum
                method = result.method
            if not args.skip_ppt:
                try:
                    row["ppt"] = exact.ppt(g, budget) if pd_ppt is None else pd_ppt
                except BudgetExceededError:
                    row["ppt"] = None
            row["method"] = method
        except PowerDomError as exc:
            row["error"] = str(exc)
            err.write(f"{name}: {exc}\n")
        row["time_s"] = round(time.perf_counter() - started, 3) if args.times else None
        rows.append(row)
    columns = ["name", "n", "m"]
    if "pd" in problems:
        columns.append("gamma_p")
    if "cpd" in problems:
        columns.append("gamma_pc")
    if not args.skip_ppt:
        columns.append("ppt")
    columns.append("method")
    if args.times:
        columns.append("time_s")
    if args.json:
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        table = [columns] + [
            [str(row.get(c, "-")) if row.get(c) is not None else "-" for c in columns]
            for row in rows
        ]
        widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
        for line in table:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "ppt": _cmd_ppt,
    "spread": _cmd_spread,
    "model": _cmd_model,
    "decompose": _cmd_decompose,
    "gadget": _cmd_gadget,
    "check": _cmd_check,
    "batch": _cmd_batch,
}


def main(argv: Sequence[str] | None = None, stdout: IO[str] | None = None,
         stderr: IO[str] | None = None, stdin: IO[str] | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    source = stdin if stdin is not None else sys.stdin
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out, err, source)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 1
    except ParseError as exc:
        err.write(f"parse error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        err.write(f"cannot read {exc.filename}\n")
        return 1
    except OSError as exc:  # a directory, no permission, ...
        err.write(f"cannot open {exc.filename}: {exc.strerror}\n")
        return 1
    except (BudgetExceededError, DisconnectedError) as exc:
        err.write(f"infeasible: {exc}\n")
        return 2
    except (GraphClassError, GraphError) as exc:
        err.write(f"usage error: {exc}\n")
        return 1
    except PowerDomError as exc:
        err.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
