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
import math
import os
import re
import sys
import time
from typing import IO, Callable, Sequence

from . import exact, graph_io, milp, propagation, spread, structural
from .decomposition import classify_cut_vertices
from .errors import (
    BudgetExceededError,
    DisconnectedError,
    GraphError,
    ParseError,
    PowerDomError,
)
from .exact import DEFAULT_BUDGET, Budget
from .graphs import Graph


class _UsageError(Exception):
    pass


class _Help(Exception):
    """A parser's help text, raised in place of printing it to sys.stdout."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we want exit 1
        raise _UsageError(message)

    def print_help(self, file=None):  # main writes it to its own stdout
        raise _Help(self.format_help())


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="graph file, or - for stdin")
    parser.add_argument("--input-format", choices=graph_io.FORMATS, default="edgelist",
                        help="graph file format (default edgelist)")


def _number(kind: type, least: int | None = None) -> Callable[[str], int | float]:
    """argparse type: a number of ``kind``, at least ``least`` if given,
    read by the graph readers' ASCII rules (:data:`graph_io._INTEGER` for
    an int, :data:`graph_io._DECIMAL` for a finite float)."""
    pattern = graph_io._INTEGER if kind is int else graph_io._DECIMAL

    def parse(text: str) -> int | float:
        try:
            if re.fullmatch(pattern, text) is None:
                raise ValueError(text)
            value = kind(text)  # a huge int is a ValueError too
            if kind is float and not math.isfinite(value):  # "1e999" overflows to inf
                raise ValueError(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}: {text!r}")
        return value

    return parse


def _add_common_arguments(parser: argparse.ArgumentParser, budget: bool = True) -> None:
    parser.add_argument("--json", action="store_true", help="emit json-lines output")
    if not budget:
        return
    parser.add_argument("--budget-n", type=_number(int, 0),
                        default=DEFAULT_BUDGET.max_vertices,
                        help="vertex ceiling for the exact oracles and the milp method")
    parser.add_argument("--budget-seconds", type=_number(float, 0), default=None,
                        help="time ceiling for the exact oracles and the milp method")


def _decompose_arguments(parser: argparse.ArgumentParser) -> None:
    """The graph, --json and the budget; solve, ppt and spread start with them."""
    _add_graph_arguments(parser)
    _add_common_arguments(parser)


def _solve_arguments(parser: argparse.ArgumentParser) -> None:
    _decompose_arguments(parser)
    parser.add_argument("--problem", choices=("pd", "cpd"), default="cpd")
    parser.add_argument("--method", default="auto", choices=(
        "auto", "tree", "block", "cactus", "decompose", "brute", "milp"))
    parser.add_argument("--T", type=_number(int), default=None,
                        help="horizon for the milp method (default n)")
    parser.add_argument("--trace", action="store_true", help="print the force trace")
    parser.add_argument("--all-optima", action="store_true",
                        help="list every optimal set (brute method only)")


def _ppt_arguments(parser: argparse.ArgumentParser) -> None:
    _decompose_arguments(parser)
    parser.add_argument("--method", choices=("brute", "milp"), default="brute")
    parser.add_argument("--connected", action="store_true",
                        help="minimize over minimum connected sets instead")


def _spread_arguments(parser: argparse.ArgumentParser) -> None:
    _decompose_arguments(parser)
    parser.add_argument("--op", required=True, choices=(
        "delete-vertex", "delete-edge", "contract-edge", "subdivide-edge"))
    parser.add_argument("--target", required=True, help="vertex label, or u,v for edge operations")
    parser.add_argument("--method", choices=("auto", "brute"), default="auto")


def _model_arguments(parser: argparse.ArgumentParser) -> None:
    _add_graph_arguments(parser)
    parser.add_argument("--problem", choices=("pd", "cpd"), default="pd")
    parser.add_argument("--T", type=_number(int), default=None, help="horizon (default n)")
    parser.add_argument("--format", choices=("lp", "mps"), default="lp")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _gadget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True,
                        choices=("path-spread", "cycle-spread", "zf-reduction"))
    parser.add_argument("--c", type=_number(int), default=None, help="swing parameter")
    parser.add_argument("--k", type=_number(int), default=None,
                        help="zero forcing bound (zf-reduction)")
    parser.add_argument("--input", default=None, help="input graph (zf-reduction only)")
    parser.add_argument("--input-format", choices=graph_io.FORMATS, default="edgelist")


def _check_arguments(parser: argparse.ArgumentParser) -> None:
    _add_graph_arguments(parser)
    _add_common_arguments(parser, budget=False)
    parser.add_argument("--set", required=True, dest="vertex_set",
                        help="comma separated vertex labels")
    parser.add_argument("--problem", choices=("pd", "cpd"), default="cpd")
    parser.add_argument("--trace", action="store_true")


def _batch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("inputs", nargs="+", help="graph files")
    parser.add_argument("--input-format", choices=graph_io.FORMATS, default="edgelist")
    _add_common_arguments(parser)
    parser.add_argument("--problems", default="pd,cpd", help="comma separated subset of pd,cpd")
    parser.add_argument("--skip-ppt", action="store_true", help="drop the propagation time column")
    parser.add_argument("--times", action="store_true",
                        help="include wall-clock times (non-deterministic output)")


def build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The parser of the subcommand that ``argv[0]`` names, which parses
    ``argv[1:]``; for any other argv the top-level parser, with all eight
    subcommands and their arguments, so that help and usage errors list
    them all."""
    if argv and argv[0] in _SUBCOMMANDS:
        parser = _Parser(prog=f"powerdom {argv[0]}")
        _SUBCOMMANDS[argv[0]][1](parser)
        return parser
    parser = _Parser(prog="powerdom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, _) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=text))
    return parser


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(max_vertices=args.budget_n, max_seconds=args.budget_seconds)


def _read(path: str, stdin: IO[str]) -> str:
    """Text of a graph file, or of stdin for ``-``."""
    try:
        if path == "-":
            return stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _split(text: str) -> list[str]:
    """The non-empty parts of a comma separated option value, stripped."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _load(args: argparse.Namespace, stdin: IO[str]) -> Graph:
    return graph_io.load_graph(_read(args.input, stdin), args.input_format)


def _emit(out: IO[str], args: argparse.Namespace, record: dict, text_lines: list[str],
          indented: Sequence[str] = ()) -> None:
    """Write ``record`` as one json line, or the text lines followed by the
    ``indented`` ones two spaces in, in one write."""
    if args.json:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        text = "\n".join(text_lines) + "\n"
        if indented:
            text += "  " + "\n  ".join(indented) + "\n"
        out.write(text)


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
    if args.all_optima and (args.method == "milp" or
                            (args.problem == "cpd" and args.method != "brute")):
        raise _UsageError("--all-optima applies to the brute method only")
    budget = _budget(args)
    if args.method == "milp":
        result = milp.solve_graph(g, args.T, args.problem == "cpd", budget)
    elif args.problem == "pd":
        if args.method not in ("auto", "brute"):
            raise _UsageError(f"method {args.method} solves cpd only")
        result = exact.min_pds(g, budget)
    else:
        result = structural.solve_cpds(g, args.method, budget)
    payload = _result_payload(g, result, args.problem)
    lines = [
        f"optimum: {result.optimum}",
        f"witness: {' '.join(payload['witness'])}",
        f"method: {result.method}",
    ]
    if args.all_optima:
        payload["all_optima"] = [list(g.labels_of(s)) for s in result.all_optima]
        lines.append(f"optima: {len(result.all_optima)}")
        lines += ["  " + " ".join(labels) for labels in payload["all_optima"]]
    if args.trace:
        payload["trace"] = propagation.trace_lines(g, result.trace)
        lines.append("trace:")
    _emit(out, args, payload, lines, payload.get("trace", ()))
    return 0


def _cmd_ppt(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    budget = _budget(args)
    if args.method == "milp":
        value = milp.ppt_by_search(g, args.connected, budget)
    else:
        value = exact.ppt(g, budget, connected=args.connected)
    record = {"ppt": value, "connected": args.connected, "n": g.n, "m": g.m}
    _emit(out, args, record, [f"ppt: {value}"])
    return 0


def _cmd_spread(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    budget = _budget(args)
    solver = lambda h: structural.solve_cpds(h, args.method, budget)  # noqa: E731
    labels = _split(args.target)
    if args.op == "delete-vertex":
        if len(labels) != 1:
            raise _UsageError("delete-vertex takes one vertex label")
        report = spread.vertex_spread(g, g.index(labels[0]), solver)
    else:
        if len(labels) != 2:
            raise _UsageError(f"{args.op} takes a target of the form u,v")
        u, v = g.index(labels[0]), g.index(labels[1])
        if args.op == "delete-edge":
            report = spread.edge_spread(g, u, v, solver)
        elif args.op == "contract-edge":
            report = spread.contract_edge_spread(g, u, v, solver)
        else:
            report = spread.subdivide_edge_delta(g, u, v, solver)
    record = {**report._asdict(), "target": list(report.target),
              "before": report.before.optimum, "after": report.after.optimum}
    lines = [f"{key}: {','.join(value) if key == 'target' else value}"
             for key, value in record.items()]
    _emit(out, args, record, lines)
    return 0


def _cmd_model(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    model = milp.build_model1(g, args.T)
    if args.problem == "cpd":
        model = milp.add_mtz_connectivity(model, g)
    text = milp.export(model, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:  # main would name a missing path as an input
            err.write(f"cannot write {args.out}: {exc.strerror}\n")
            return 1
    else:
        out.write(text)
    return 0


def _cmd_decompose(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    budget = _budget(args)
    taxonomy = classify_cut_vertices(g)
    record = {"mandatory": list(g.labels_of(taxonomy.mandatory)), "blocks": []}
    lines = [f"mandatory: {' '.join(record['mandatory'])}"]
    result = structural.decompose_cpds(g, budget=budget)
    anchors = taxonomy.mandatory_set
    for i, (core, vertices) in enumerate(structural.nontrivial_block_subgraphs(g), start=1):
        block = {"core": list(g.labels_of(core)),
                 "anchors": list(g.labels_of(v for v in core if v in anchors)),
                 "size": len(vertices)}
        record["blocks"].append(block)
        lines.append(f"block {i}: core={','.join(block['core'])}"
                     f" anchors={','.join(block['anchors'])} size={block['size']}")
    record.update(_result_payload(g, result, "cpd"))
    lines.append(f"optimum: {result.optimum}")
    lines.append(f"witness: {' '.join(result.witness_labels(g))}")
    _emit(out, args, record, lines)
    return 0


def _cmd_gadget(args, out, err, stdin) -> int:
    spreads = args.kind != "zf-reduction"
    kinds = "zf-reduction" if spreads else "path-spread and cycle-spread"
    for flag, value in (("input", args.input), ("k", args.k)) if spreads else (("c", args.c),):
        if value is not None:
            raise _UsageError(f"--{flag}={value} applies to {kinds} only")
    if spreads:
        make = spread.make_path_gadget if args.kind == "path-spread" else spread.make_cycle_gadget
        out.write(graph_io.dump_edgelist(make(1 if args.c is None else args.c)))
    else:
        if args.input is None:
            raise _UsageError("zf-reduction needs an input graph")
        base = _load(args, stdin)
        expanded, bound = exact.zf_to_cpd_gadget(base, 1 if args.k is None else args.k)
        out.write(f"# connected power domination bound: {bound}\n")
        out.write(graph_io.dump_edgelist(expanded))
    return 0


def _cmd_check(args, out, err, stdin) -> int:
    g = _load(args, stdin)
    labels = _split(args.vertex_set)
    if not labels:
        raise _UsageError(f"--set {args.vertex_set!r} names no vertex")
    vertices = g.indices_of(labels)
    if len(set(vertices)) < len(vertices):
        repeated = next(lab for i, lab in enumerate(labels) if lab in labels[:i])
        raise _UsageError(f"repeated vertex label {repeated!r}")
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
    _emit(out, args, record, lines, record.get("trace", ()))
    return 0 if valid else 2


def _cmd_batch(args, out, err, stdin) -> int:
    problems = _split(args.problems)
    if not problems:
        raise _UsageError(f"--problems {args.problems!r} names no problem")
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
            if "pd" in problems:
                # one search gives gamma_P and the ppt
                pd_result = exact.min_pds(g, budget)
                row["gamma_p"], pd_ppt = pd_result.optimum, pd_result.ppt
                # kept alive through the cpd solve, it raised peak RSS by 0.3 MB
                del pd_result
            if "cpd" in problems:
                result = structural.solve_cpds(g, "auto", budget)
                row["gamma_pc"] = result.optimum
                method = result.method
            if not args.skip_ppt:
                try:
                    row["ppt"] = pd_ppt if "pd" in problems else exact.ppt(g, budget)
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


_SUBCOMMANDS = {  # name: (help, argument function, handler)
    "solve": ("optimal (connected) power dominating set", _solve_arguments, _cmd_solve),
    "ppt": ("power propagation time", _ppt_arguments, _cmd_ppt),
    "spread": ("optimum change under one graph operation", _spread_arguments, _cmd_spread),
    "model": ("write the integer programming model", _model_arguments, _cmd_model),
    "decompose": ("cut-vertex decomposition report", _decompose_arguments, _cmd_decompose),
    "gadget": ("emit a named construction as an edge list", _gadget_arguments, _cmd_gadget),
    "check": ("verify a candidate set", _check_arguments, _cmd_check),
    "batch": ("summary table over many graph files", _batch_arguments, _cmd_batch),
}


def main(argv: Sequence[str] | None = None, stdout: IO[str] | None = None,
         stderr: IO[str] | None = None, stdin: IO[str] | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    source = stdin if stdin is not None else sys.stdin
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    parser = build_parser(argv)
    try:
        try:
            args = parser.parse_args(argv if command is None else argv[1:])
        except _Help as shown:
            out.write(str(shown))
            return 0
        return _SUBCOMMANDS[command or args.command][2](args, out, err, source)
    except (BudgetExceededError, DisconnectedError) as exc:
        err.write(f"infeasible: {exc}\n")
        return 2
    except (_UsageError, GraphError) as exc:  # GraphClassError is a GraphError
        err.write(f"usage error: {exc}\n")
        return 1
    except ParseError as exc:
        err.write(f"parse error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        err.write(f"cannot read {exc.filename}\n")
        return 1
    except OSError as exc:  # a directory, no permission, a closed stdout, ...
        if exc.filename is None:
            err.write(f"cannot write output: {exc.strerror}\n")
        else:
            err.write(f"cannot open {exc.filename}: {exc.strerror}\n")
        return 1
    except PowerDomError as exc:
        err.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
