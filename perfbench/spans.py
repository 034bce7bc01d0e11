"""Span recorder for the traced run.

:func:`instrument` wraps the public functions of every ``powerdom`` module
and rebinds each name everywhere it was imported (``structural.blocks``,
``exact.classify_cut_vertices`` and ``cli.classify_cut_vertices`` are the
same function, so all three names get the same wrapper). The program's
source is untouched; :func:`restore` puts the originals back.

Spans live in flat arrays in start order, each with the index of the span
that was open when it started. Self time is a span's duration minus the
part of it that its children cover.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from typing import Any, Callable, Sequence

# span name -> group; a group is the layer a metric is reported for
GROUPS: dict[str, str] = {}
for _name in ("load_graph", "dump_edgelist"):
    GROUPS[f"graph_io.{_name}"] = "graph_io"
for _name in ("Graph.__init__", "Graph.from_labeled_edges", "path_graph",
              "cycle_graph", "complete_graph"):
    GROUPS[f"graphs.{_name}"] = "graphs.build"
for _name in ("reach_mask", "is_connected", "is_connected_mask",
              "component_masks", "components"):
    GROUPS[f"graphs.Graph.{_name}"] = "graphs.connectivity"
for _name in ("Graph.induced_subgraph", "Graph.delete_vertex", "Graph.delete_edge",
              "Graph.contract_edge", "Graph.subdivide_edge", "attach_leaves"):
    GROUPS[f"graphs.{_name}"] = "graphs.surgery"
for _name in ("blocks", "classify_cut_vertices", "recognize", "pendant_path_inventory",
              "is_path_graph", "cycle_order"):
    GROUPS[f"decomposition.{_name}"] = "decomposition"
for _name in ("dominate_step", "forcing_closure", "is_power_dominating", "is_zero_forcing",
              "colors_within", "ppt_of_set", "is_connected_set", "trace_lines",
              "replay_trace"):
    GROUPS[f"propagation.{_name}"] = "propagation"
for _name in ("certify", "min_pds", "min_cpds", "min_cpds_subject_to", "l_round_pd",
              "ppt", "min_zero_forcing", "zf_to_cpd_gadget", "l3_equivalent"):
    GROUPS[f"exact.{_name}"] = "exact"
for _name in ("tree_cpds", "tree_pd_equals_cpd", "block_graph_cpds", "feasible_segments",
              "cactus_cpds", "nontrivial_block_subgraphs", "decompose_cpds", "solve_cpds"):
    GROUPS[f"structural.{_name}"] = "structural"
for _name in ("vertex_spread", "edge_spread", "contract_edge_spread",
              "subdivide_edge_delta", "make_path_gadget", "make_cycle_gadget"):
    GROUPS[f"spread.{_name}"] = "spread"
for _name in ("build_model1", "add_mtz_connectivity"):
    GROUPS[f"milp.{_name}"] = "milp.build"
GROUPS["milp.export"] = "milp.export"
for _name in ("parse_lp", "parse_mps"):
    GROUPS[f"milp.{_name}"] = "milp.parse"
for _name in ("check_assignment", "decode_assignment", "solve_small", "round_number",
              "ppt_by_search"):
    GROUPS[f"milp.{_name}"] = "milp.solve"
for _name in ("main", "build_parser"):
    GROUPS[f"cli.{_name}"] = "cli"

OP_SPAN = "bench.op"
GROUPS[OP_SPAN] = "bench"

# enumeration oracles: a check made directly under one of these is a candidate
ENUM_BY_CONNECTIVITY = {"exact.min_cpds", "exact.min_cpds_subject_to"}
ENUM_BY_PROPAGATION = {"exact.min_pds", "exact.l_round_pd", "exact.min_zero_forcing"}


class Recorder:
    """In-memory spans plus counters; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open_spans: list[int] = []
        self.counts: Counter[str] = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.span_name(self.open_spans[-1]) if self.open_spans else None

    def begin(self, name: str, now: float) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.open_spans[-1] if self.open_spans else -1)
        self.start.append(now)
        self.end.append(now)
        self.open_spans.append(index)
        return index

    def finish(self, index: int, now: float) -> None:
        self.end[index] = now
        self.open_spans.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def span_name(self, index: int) -> str:
        return self.names[self.name_id[index]]

    def write(self, path: str) -> None:
        """Gzipped tab-separated spans: id, parent, name, start and end in
        nanoseconds since the first span."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.span_name(i)}\t"
                          f"{round((self.start[i] - origin) * 1e9)}\t"
                          f"{round((self.end[i] - origin) * 1e9)}\n")


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> array:
    """Duration minus the union of the children's intervals, per span.

    Spans must be listed in start order, so each parent sees its children
    in start order and one sweep per parent measures their union.
    """
    covered = array("d", [0.0]) * len(start)
    reach = array("d", start)  # end of the children's union so far, per parent
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], reach[p], start[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return array("d", (end[i] - start[i] - covered[i] for i in range(len(start))))


# -- instrumentation ----------------------------------------------------------

Note = Callable[[Recorder, "str | None", tuple, dict, Any], None]


def _note_propagation(rec, parent, args, kwargs, result) -> None:
    rec.count("propagation.checks")
    ok = result
    if isinstance(result, tuple):  # is_power_dominating returns (ok, trace)
        ok, trace = result
        rec.count("propagation.forces", len(trace.forces))
        rec.count("propagation.rounds", trace.rounds())
    if parent in ENUM_BY_PROPAGATION:
        rec.count("exact.candidates")
    if ok and (parent in ENUM_BY_PROPAGATION or parent in ENUM_BY_CONNECTIVITY):
        rec.count("exact.feasible")


def _note_connectivity_check(rec, parent, args, kwargs, result) -> None:
    if parent in ENUM_BY_CONNECTIVITY:
        rec.count("exact.candidates")


def _note_dispatch(rec, parent, args, kwargs, result) -> None:
    method = args[1] if len(args) > 1 else kwargs.get("method", "auto")
    if method == "auto":
        rec.count(f"structural.dispatch.{result.method}")


def _note_export(rec, parent, args, kwargs, result) -> None:
    rec.count("milp.export_bytes", len(result))
    rec.count("milp.rows", len(args[0].constraints))


NOTES: dict[str, Note] = {
    "propagation.is_power_dominating": _note_propagation,
    "propagation.colors_within": _note_propagation,
    "propagation.is_zero_forcing": _note_propagation,
    "graphs.Graph.is_connected_mask": _note_connectivity_check,
    "structural.solve_cpds": _note_dispatch,
    "milp.export": _note_export,
}


def _wrap(rec: Recorder, name: str, fn: Callable, clock: Callable[[], float]) -> Callable:
    note = NOTES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = rec.current()
        index = rec.begin(name, clock())
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                note(rec, parent, args, kwargs, result)
            return result
        finally:
            rec.finish(index, clock())

    return wrapper


def _wrap_load_graph(rec: Recorder, name: str, fn: Callable,
                     clock: Callable[[], float]) -> Callable:
    """load_graph takes text or a stream; read the stream here to count bytes."""

    @functools.wraps(fn)
    def wrapper(source, *args, **kwargs):
        index = rec.begin(name, clock())
        try:
            text = source.read() if hasattr(source, "read") else source
            rec.count("graph_io.bytes", len(text.encode()))
            return fn(text, *args, **kwargs)
        finally:
            rec.finish(index, clock())

    return wrapper


Restore = list[tuple[Any, str, Any]]


def instrument(rec: Recorder, clock: Callable[[], float]) -> Restore:
    """Wrap every function named in GROUPS; returns what :func:`restore` needs."""
    import sys

    from powerdom import graphs

    modules = [m for key, m in sorted(sys.modules.items())
               if key == "powerdom" or key.startswith("powerdom.")]
    undo: Restore = []
    for name in GROUPS:
        module_name, _, attr = name.partition(".")
        if module_name == "bench":
            continue
        make = _wrap_load_graph if name == "graph_io.load_graph" else _wrap
        if attr.startswith("Graph."):
            method = attr.split(".", 1)[1]
            raw = graphs.Graph.__dict__[method]
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(make(rec, name, raw.__func__, clock))
            else:
                replacement = make(rec, name, raw, clock)
            undo.append((graphs.Graph, method, raw))
            setattr(graphs.Graph, method, replacement)
            continue
        original = getattr(sys.modules[f"powerdom.{module_name}"], attr)
        wrapper = make(rec, name, original, clock)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)
    return undo


def restore(undo: Restore) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# -- per-layer metrics ----------------------------------------------------------

SELF_GROUPS = ("propagation", "decomposition", "structural", "exact", "graph_io", "cli",
               "graphs.connectivity", "graphs.build", "graphs.surgery",
               "milp.build", "milp.export", "milp.parse")
DISPATCH_METHODS = ("tree", "block", "cactus", "decomposition", "brute")
PER_OP_COUNTS = ("propagation.checks", "propagation.rounds", "propagation.forces",
                 "exact.candidates", "graph_io.bytes", "milp.export_bytes", "milp.rows")


def layer_metrics(rec: Recorder, ops: int) -> dict[str, float]:
    """Per-layer self times, inclusive times and counts, all per op."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    group_of = [GROUPS[name] for name in rec.names]
    group_self: Counter[str] = Counter()
    outer_calls: Counter[str] = Counter()  # spans whose parent is in another group
    outer_incl: Counter[str] = Counter()
    name_calls: Counter[str] = Counter()
    name_self: Counter[str] = Counter()
    name_incl: Counter[str] = Counter()
    for i, name_id in enumerate(rec.name_id):
        name, group = rec.names[name_id], group_of[name_id]
        duration = rec.end[i] - rec.start[i]
        group_self[group] += selfs[i]
        name_calls[name] += 1
        name_self[name] += selfs[i]
        name_incl[name] += duration
        p = rec.parent[i]
        if p < 0 or group_of[rec.name_id[p]] != group:
            outer_calls[group] += 1
            outer_incl[group] += duration

    metrics = {f"{group}.self_s": group_self[group] / ops for group in SELF_GROUPS}
    metrics["certify.incl_s"] = name_incl["exact.certify"] / ops
    metrics["spread.incl_s"] = outer_incl["spread"] / ops
    metrics["structural.feasible_segments.self_s"] = (
        name_self["structural.feasible_segments"] / ops)
    for short, name in (("blocks", "blocks"), ("recognize", "recognize"),
                        ("classify", "classify_cut_vertices")):
        metrics[f"decomposition.{short}.calls_per_op"] = (
            name_calls[f"decomposition.{name}"] / ops)
    metrics["structural.feasible_segments.calls"] = (
        name_calls["structural.feasible_segments"] / ops)
    metrics["graphs.connectivity.calls"] = outer_calls["graphs.connectivity"] / ops
    metrics["graphs.build.calls"] = outer_calls["graphs.build"] / ops
    for key in PER_OP_COUNTS:
        metrics[key] = rec.counts[key] / ops
    candidates = rec.counts["exact.candidates"]
    metrics["exact.feasible_ratio"] = (
        rec.counts["exact.feasible"] / candidates if candidates else 0.0)
    for method in DISPATCH_METHODS:
        metrics[f"structural.dispatch.{method}"] = (
            rec.counts[f"structural.dispatch.{method}"] / ops)
    op_time = outer_incl["bench"]
    layered = sum(t for group, t in group_self.items() if group != "bench")
    metrics["trace.accounted_share"] = layered / op_time if op_time else 0.0
    return metrics
