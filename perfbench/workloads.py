"""The four workloads: their seeded inputs, the CLI ops run on them, and
the check of each op's output.

A workload is built from a seed into a list of :class:`Op`. One pass over
the list is a cycle; a run repeats whole cycles, so the mix of ops is the
same in every run. Ops are listed small inputs first, and the first op is
the warm-up op.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checker
import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# check(rc, stdout, read_back) -> problems; read_back is what Op.read_back returned
Check = Callable[[int, str, object], list[str]]


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Check
    slope: tuple[str, str] | None = None  # (op kind, "n" or "4n") for slope_4x
    read_back: Callable[[str], object] | None = None  # timed parse of stdout


@dataclass
class Workload:
    ops: list[Op]
    # highest tail percentile reported: the one the op mix is laid out for,
    # so a run with more cycles does not move the tail onto another op kind
    tail_cap: float = 75.0
    files: dict[str, str] = field(default_factory=dict)  # file name -> edge-list text


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _table_entry(table: dict, section: str, key: str, edges: corpus.Edges) -> dict:
    """The recorded answers of a fixed graph, checked to be for that graph."""
    entry = table[section][key]
    if entry["sha"] != corpus.digest(corpus.edgelist_text(edges)):
        raise ValueError(f"expected.json entry {section}/{key} was made from another graph")
    return entry


def _json_record(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return None
    try:
        return json.loads(lines[0])
    except json.JSONDecodeError:
        return None


def _adjacency_cache(text: str) -> Callable[[], dict[str, set[str]]]:
    cache: list[dict[str, set[str]]] = []

    def get() -> dict[str, set[str]]:
        if not cache:
            cache.append(checker.adjacency(text))
        return cache[0]

    return get


# -- structured -----------------------------------------------------------------


def _check_solve_json(text: str, optimum: int) -> Check:
    adj = _adjacency_cache(text)

    def check(rc: int, stdout: str, _: object) -> list[str]:
        record = _json_record(stdout)
        if rc != 0 or record is None:
            return [f"exit {rc}, output {stdout[:80]!r}"]
        problems = []
        if record["optimum"] != optimum:
            problems.append(f"optimum {record['optimum']}, expected {optimum}")
        if (record["n"], record["m"]) != (len(adj()), checker.edge_count(adj())):
            problems.append("n or m differs from the input")
        problems += checker.witness_problems(adj(), record["witness"], record["optimum"], True)
        return problems

    return check


def _check_spread(op: str, before: int, after: int) -> Check:
    spread = before - after if op == "contract-edge" else after - before

    def check(rc: int, stdout: str, _: object) -> list[str]:
        record = _json_record(stdout)
        if rc != 0 or record is None:
            return [f"exit {rc}, output {stdout[:80]!r}"]
        got = (record["before"], record["after"], record["spread"])
        if got != (before, after, spread):
            return [f"before/after/spread {got}, expected {(before, after, spread)}"]
        return []

    return check


# A cycle holds the n = 2000 solves twice, five spread ops and the n = 8000
# solves once, 17 ops. By latency the median then falls inside the two
# general/2000 solves (ranks 9-10 of 17) and the p75 tail inside the two
# spread ops on general/2000 (ranks 13-14), not on a gap between op kinds.
SPREAD_OPS = {
    "tree": ("subdivide-edge",),
    "cactus": ("subdivide-edge",),
    "block": ("subdivide-edge",),
    "general": ("subdivide-edge", "contract-edge"),
}


def structured(seed: int, table: dict) -> Workload:
    """A tree, a cactus, a block graph and a tree of small 2-connected
    blocks at n = 2000 and 8000, relabeled by the seed: ``solve --json`` on
    each, and spread ops on seeded edges of the n = 2000 graphs."""
    rng = random.Random(f"structured/{seed}")
    work = Workload([])
    small, spreads, large = [], [], []
    for family in corpus.STRUCTURED_FAMILIES:
        for n in corpus.STRUCTURED_SIZES:
            base = corpus.structured_graph(family, n)
            entry = _table_entry(table, "structured", f"{family}/{n}", base)
            edges, perm = corpus.relabel(base, rng)
            text = corpus.edgelist_text(edges)
            name = f"{family}{n}.edges"
            work.files[name] = text
            scale = "n" if n == corpus.STRUCTURED_SIZES[0] else "4n"
            solve = Op(f"solve {family}/{n}", ["solve", name, "--problem", "cpd", "--json"],
                       _check_solve_json(text, entry["optimum"]), (family, scale))
            if scale == "n":
                small += [solve, solve]
            else:
                large.append(solve)
            if scale == "n":
                for kind in SPREAD_OPS[family]:
                    u, v = rng.choice(corpus.spread_candidates(family, n, base))
                    before, after = entry["spread"][f"{kind} v{u},v{v}"]
                    target = f"v{perm[u]},v{perm[v]}"
                    spreads.append(Op(f"spread {kind} {family}/{n}",
                                      ["spread", name, "--op", kind, "--target", target,
                                       "--json"],
                                      _check_spread(kind, before, after)))
    work.ops = small + spreads + large
    return work


# -- chains --------------------------------------------------------------------


def _check_solve_trace(text: str) -> Check:
    adj = _adjacency_cache(text)

    def check(rc: int, stdout: str, _: object) -> list[str]:
        lines = stdout.splitlines()
        if rc != 0 or len(lines) < 4 or lines[3] != "trace:":
            return [f"exit {rc}, output {stdout[:80]!r}"]
        optimum = int(lines[0].split(": ", 1)[1])
        witness = lines[1].split(": ", 1)[1].split()
        if optimum != 1:  # paths, spiders and one-vertex cacti: gamma_Pc = 1
            return [f"optimum {optimum}, expected 1"]
        return (checker.witness_problems(adj(), witness, optimum, True)
                + checker.trace_problems(adj(), witness, lines[4:]))

    return check


def chains(seed: int, table: dict) -> Workload:
    """Paths, spiders with three long legs and four long cycles sharing a
    vertex, at n = 500 and 2000: ``solve --trace``. The n = 500 ops run
    twice per cycle and the n = 2000 spider three times, so the median
    falls inside the n = 500 paths and the p75 tail inside the n = 2000
    spiders, away from the gaps between op kinds."""
    work = Workload([])
    for n in corpus.CHAIN_SIZES:
        for family in corpus.CHAIN_FAMILIES:
            text = corpus.edgelist_text(corpus.chain_graph(family, n, seed))
            name = f"{family}{n}.edges"
            work.files[name] = text
            scale = "n" if n == corpus.CHAIN_SIZES[0] else "4n"
            op = Op(f"solve --trace {family}/{n}",
                    ["solve", name, "--problem", "cpd", "--trace"],
                    _check_solve_trace(text), (family, scale))
            work.ops += [op] * (2 if scale == "n" else 3 if family == "spider" else 1)
    return work


# -- oracle --------------------------------------------------------------------


def _check_batch(gamma_p: int, gamma_pc: int, ppt: int) -> Check:
    def check(rc: int, stdout: str, _: object) -> list[str]:
        record = _json_record(stdout)
        if rc != 0 or record is None or "error" in record:
            return [f"exit {rc}, output {stdout[:80]!r}"]
        got = (record["gamma_p"], record["gamma_pc"], record["ppt"])
        if got != (gamma_p, gamma_pc, ppt):
            return [f"gamma_p/gamma_pc/ppt {got}, expected {(gamma_p, gamma_pc, ppt)}"]
        return []

    return check


def _check_ppt(value: int) -> Check:
    def check(rc: int, stdout: str, _: object) -> list[str]:
        record = _json_record(stdout)
        if rc != 0 or record is None:
            return [f"exit {rc}, output {stdout[:80]!r}"]
        if record["ppt"] != value:
            return [f"connected ppt {record['ppt']}, expected {value}"]
        return []

    return check


def oracle(seed: int, table: dict) -> Workload:
    """hubs(k) for k = 1, 4, 5 and random graphs with 16..22 vertices,
    all relabeled by the seed: ``batch --json`` (gamma_P, gamma_Pc, ppt)
    and ``ppt --connected``. hubs(1) has a quarter of the vertices of
    hubs(4) and gives slope_4x."""
    rng = random.Random(f"oracle/{seed}")
    work = Workload([], tail_cap=95.0)
    graphs: list[tuple[str, str, tuple[int, int, int, int], tuple[str, str] | None]] = []
    for k in corpus.HUB_SIZES:
        # the spine dominates everything in round 1: gamma = k, ppt = 1
        slope = {1: ("hubs", "n"), 4: ("hubs", "4n")}.get(k)
        text = corpus.edgelist_text(corpus.relabel(corpus.hubs(k), rng)[0])
        graphs.append((f"hubs{k}", text, (k, k, 1, 1), slope))
    for family in corpus.ORACLE_FAMILIES:
        for index in range(corpus.ORACLE_GRAPHS):
            base = corpus.oracle_graph(family, index)
            entry = _table_entry(table, "oracle", f"{family}/{index}", base)
            text = corpus.edgelist_text(corpus.relabel(base, rng)[0])
            values = (entry["gamma_p"], entry["gamma_pc"], entry["ppt"], entry["ppt_connected"])
            graphs.append((f"{family}{index}", text, values, None))
    for name, text, (gamma_p, gamma_pc, ppt, ppt_connected), slope in graphs:
        file_name = f"{name}.edges"
        work.files[file_name] = text
        work.ops.append(Op(f"batch {name}", ["batch", file_name, "--json"],
                           _check_batch(gamma_p, gamma_pc, ppt), slope))
        work.ops.append(Op(f"ppt --connected {name}",
                           ["ppt", file_name, "--connected", "--json"],
                           _check_ppt(ppt_connected)))
    return work


# -- model ---------------------------------------------------------------------


def _check_model(text: str, problem: str, fmt: str) -> Check:
    from powerdom import graph_io, milp

    variables, rows = corpus.model_counts(
        [tuple(int(v[1:]) for v in line.split()) for line in text.splitlines()],
        problem == "cpd")

    def check(rc: int, stdout: str, parsed: object) -> list[str]:
        if rc != 0 or parsed is None:
            return [f"exit {rc}, output {stdout[:80]!r}"]
        problems = []
        got = (len(parsed.variables), len(parsed.constraints))
        if got != (variables, rows):
            problems.append(f"{fmt} model has {got} variables/rows, expected {(variables, rows)}")
        g = graph_io.load_graph(text)
        model = milp.build_model1(g)
        if problem == "cpd":
            model = milp.add_mtz_connectivity(model, g)
        if parsed.canonical() != model.canonical():
            problems.append(f"{fmt} text does not parse back to the exported model")
        return problems

    return check


def _reader(fmt: str) -> Callable[[str], object]:
    from powerdom import milp

    # resolved at call time, so the traced run sees the wrapped parser
    if fmt == "lp":
        return lambda text: milp.parse_lp(text)
    return lambda text: milp.parse_mps(text)


def model(seed: int, table: dict) -> Workload:
    """A sparse random connected graph and a cactus of 4-cycles at n = 50
    and 200, relabeled by the seed: ``model --problem pd|cpd --format
    lp|mps``, then the text is parsed back inside the timed op. The n = 50
    ops run twice per cycle, as in :func:`chains`."""
    rng = random.Random(f"model/{seed}")
    work = Workload([])
    for n in corpus.MODEL_SIZES:
        for family in corpus.MODEL_FAMILIES:
            text = corpus.edgelist_text(corpus.relabel(corpus.model_graph(family, n), rng)[0])
            name = f"{family}{n}.edges"
            work.files[name] = text
            scale = "n" if n == corpus.MODEL_SIZES[0] else "4n"
            for problem in ("pd", "cpd"):
                for fmt in ("lp", "mps"):
                    op = Op(f"model {problem} {fmt} {family}/{n}",
                            ["model", name, "--problem", problem, "--format", fmt],
                            _check_model(text, problem, fmt),
                            (f"{problem} {fmt} {family}", scale), _reader(fmt))
                    work.ops += [op, op] if scale == "n" else [op]
    return work


WORKLOADS: dict[str, Callable[[int, dict], Workload]] = {
    "structured": structured,
    "chains": chains,
    "oracle": oracle,
    "model": model,
}
