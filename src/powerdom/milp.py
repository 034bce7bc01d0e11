"""Integer programming formulation of (connected) power domination.

The base model selects a vertex set s, a coloring timestep x_v per vertex,
and an arc indicator y_uv meaning "u colors v". Every vertex is selected
or colored through exactly one incoming arc; an arc forces its head after
its tail, and after every other neighbor of the tail unless the tail is
selected. With horizon T = n the optimum is the power domination number;
horizon T = l gives the l-round variant, and binary search over T recovers
the propagation time.

Connectivity is added on top as an arborescence: each selected vertex gets
exactly one parent (an artificial root feeds exactly one of them), parents
must be selected, and ordering variables forbid directed cycles.

Every variable and row name is a prefix followed by a vertex label or an
arc suffix ``u__v``, one per direction of each edge; a label has each
character outside ``[A-Za-z0-9_]`` replaced by ``_``, and a label that
then clashes with an earlier vertex's gets ``_`` appended until it is
free. Names that still collide (``a`` with ``b__c`` against ``a__b`` with
``c``) raise :class:`ModelError`. The base model has variables
``s_v``, ``x_v``, ``y_u__v`` and rows ``cover_v``, ``order_u__v``,
``watch_u__v__w``; connectivity adds variables ``zr_v`` (root arc),
``z_u__v`` (parent arc), ``o_v`` (rank) and rows ``root_choice``,
``parent_v``, ``growth_u__v``, ``rank_u__v``.

A model is plain tuples: :class:`Variable` and :class:`Constraint` are
named tuples, and a term is a ``(coef, name)`` pair. The builders make
each distinct term of a model once, and every row that holds it shares
that object. The LP writer formats each distinct term once per export,
and the MPS writer files each column entry as its finished line. The
readers convert each distinct term or number once per text. They take
only ASCII integers, and they refuse text that is not one model: a
repeated row, right-hand side or bound, a variable whose kind disagrees
with its declarations, or no variable at all.

``solve_small`` is a validator, not a general solver: it takes the
selection from the exact oracle for the model's problem and horizon,
derives the remaining variables from a propagation run, and then checks
the assignment against every constraint row literally. ``solve_graph``
decodes that assignment and replays its schedule through ``exact.certify``;
``round_number``, ``ppt_by_search`` and ``solve --method milp`` answer
through it.
"""

from __future__ import annotations

import re
from functools import cache, partial
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import exact, propagation
from .decomposition import connected_profile
from .errors import GraphError, ModelError
from .graph_io import _INTEGER
from .graphs import Graph, _count, fresh_label

BINARY = "binary"
INTEGER = "integer"


class Variable(NamedTuple):
    """A column: ``kind`` is :data:`BINARY` or :data:`INTEGER`, bounded by
    ``lower`` and ``upper``. A plain named tuple, so a model of thousands
    of columns stays cheap to build and read; it compares equal to the
    tuple of its fields."""

    name: str
    kind: str
    lower: int
    upper: int


class Constraint(NamedTuple):
    """A row ``sum(coef * var for coef, var in terms) relation rhs`` with
    ``relation`` one of ``<=``, ``=``, ``>=``. The builders and readers give
    each distinct ``(coef, name)`` term of a model one tuple, shared by
    every row that holds it. A plain named tuple, like :class:`Variable`."""

    name: str
    terms: tuple[tuple[int, str], ...]
    relation: str
    rhs: int


# a Variable or Constraint from a 4-tuple, without the Python-level
# __new__: a model holds one per column and row
_variable = partial(tuple.__new__, Variable)
_row = partial(tuple.__new__, Constraint)


def _side_data(cls: type) -> type:
    """Leave the last field of named tuple ``cls``, a mapping of side data,
    out of ``==``, hash and repr: the other fields stand for the record."""
    cls.__eq__ = lambda self, other: (self[:-1] == other[:-1] if other.__class__ is cls
                                      else NotImplemented)
    cls.__ne__, cls.__hash__ = object.__ne__, lambda self: hash(self[:-1])
    cls.__repr__ = lambda self: "{}({})".format(
        cls.__name__, ", ".join(map("{}={!r}".format, cls._fields, self[:-1])))
    return cls


@_side_data
class MilpModel(NamedTuple):
    """Solver-agnostic variable/constraint container.

    ``meta`` carries the originating graph, its name table and the horizon
    so the built-in validator can reconstruct solutions; it is excluded
    from equality so that a model re-read from disk compares equal to the
    original. A model read from disk has an empty, read-only ``meta``.
    """

    name: str
    variables: tuple[Variable, ...]
    objective: tuple[tuple[int, str], ...]
    constraints: tuple[Constraint, ...]
    meta: Mapping = MappingProxyType({})

    def canonical(self) -> tuple:
        """Order-insensitive structural form (for round-trip comparisons;
        term order inside a row is not meaningful)."""
        return (
            tuple(sorted(self.variables, key=lambda v: v.name)),
            tuple(sorted(self.objective, key=lambda t: t[1])),
            tuple(
                sorted(
                    (c.name, tuple(sorted(c.terms, key=lambda t: t[1])), c.relation, c.rhs)
                    for c in self.constraints
                )
            ),
        )


class ModelSolution(NamedTuple):
    assignment: dict[str, int]
    objective_value: float


_SANITIZE = re.compile(r"[^A-Za-z0-9_]")


def _check_unique(names: list[str], what: str, taken: set[str] | None = None) -> None:
    """Raise on a repeated name, or on one already in ``taken``."""
    unique = set(names)
    if len(unique) == len(names) and (taken is None or unique.isdisjoint(taken)):
        return
    seen = set() if taken is None else set(taken)
    for name in names:
        if name in seen:
            raise ModelError(f"{what} name collision: {name!r}")
        seen.add(name)


def _names(g: Graph) -> tuple[list[str], list[tuple[int, int, str]]]:
    """The name table of the models over ``g``: the cleaned label of each
    vertex, and every arc (each edge in both directions, tail-major) with
    its ``u__v`` suffix. Every variable and row name is a prefix followed
    by one of these. A label that cleans to the name of an earlier vertex
    takes the first free name with underscores appended. :func:`build_model1`
    builds it once and keeps it in the model's ``meta``, where the
    connectivity extension, the encoder and the decoder read it."""
    labs = [_SANITIZE.sub("_", lab) for lab in g.labels]
    taken, seen = set(labs), set()
    for v, lab in enumerate(labs):
        if lab in seen:
            labs[v] = fresh_label(taken, lab)
            taken.add(labs[v])
        seen.add(lab)
    return labs, [(u, v, f"{labs[u]}__{labs[v]}") for u in range(g.n) for v in g.adj[u]]


def _terms(coef: int, names: list[str]) -> list[tuple[int, str]]:
    """The term ``(coef, name)`` of each name: a model makes each distinct
    term once, and every row that holds it shares the object."""
    return [(coef, name) for name in names]


def _incoming(first: list[tuple[int, str]], arcs: list[tuple[int, int, str]],
              arc_terms: list[tuple[int, str]]) -> list[list[tuple[int, str]]]:
    """Per vertex v, the term ``first[v]`` followed by the terms of the arcs
    into v, by ascending tail."""
    rows = [[term] for term in first]
    for (_, v, _), term in zip(arcs, arc_terms):
        rows[v].append(term)
    return rows


def _horizon(g: Graph, t: int | None) -> int:
    """The horizon ``t`` (default n) of a model of ``g``; a disconnected
    ``g`` is refused first, then a horizon that is not an int of at least 1."""
    connected_profile(g)
    horizon = g.n if t is None else _count("horizon", t)
    if horizon < 1:
        raise GraphError("horizon must be at least 1")
    return horizon


def build_model1(g: Graph, t: int | None = None) -> MilpModel:
    """Power domination model over ``g`` with horizon ``t`` (default n)."""
    horizon = _horizon(g, t)
    labs, arcs = _names(g)
    s = ["s_" + lab for lab in labs]
    x = ["x_" + lab for lab in labs]
    y = ["y_" + uv for _, _, uv in arcs]
    variables = [_variable((name, BINARY, 0, 1)) for name in s]
    variables += [_variable((name, INTEGER, 0, horizon)) for name in x]
    variables += [_variable((name, BINARY, 0, 1)) for name in y]
    big = horizon + 1
    s_one, x_one, x_minus = _terms(1, s), _terms(1, x), _terms(-1, x)
    s_minus_big, y_big = _terms(-big, s), _terms(big, y)
    constraints = [_row(("cover_" + lab, tuple(terms), "=", 1))
                   for lab, terms in zip(labs, _incoming(s_one, arcs, _terms(1, y)))]
    constraints += [_row(("order_" + uv, (x_one[u], x_minus[v], y_big[i]), "<=", horizon))
                    for i, (u, v, uv) in enumerate(arcs)]
    for i, (u, v, uv) in enumerate(arcs):
        xv, yi, su = x_minus[v], y_big[i], s_minus_big[u]
        constraints += [_row((f"watch_{uv}__{labs[w]}", (x_one[w], xv, yi, su), "<=", horizon))
                        for w in g.adj[u] if w != v]
    _check_unique([v.name for v in variables], "variable")
    _check_unique([c.name for c in constraints], "constraint")
    return MilpModel(
        name="power_domination",
        variables=tuple(variables),
        objective=tuple(s_one),
        constraints=tuple(constraints),
        meta={"graph": g, "names": (labs, arcs), "horizon": horizon, "connected": False},
    )


def add_mtz_connectivity(model: MilpModel, g: Graph) -> MilpModel:
    """Extend a power domination model with connectivity constraints.

    Selected vertices must form an arborescence fed by an artificial root:
    exactly one root arc, one parent per selected vertex, selected parents
    only, and rank variables that rise along arcs to rule out cycles.
    """
    if model.meta.get("connected"):
        raise ModelError("connectivity constraints already present")
    if model.meta.get("graph") is not g and model.meta.get("graph") != g:
        raise ModelError("model was not built from this graph")
    labs, arcs = model.meta["names"]
    root = ["zr_" + lab for lab in labs]
    z = ["z_" + uv for _, _, uv in arcs]
    rank = ["o_" + lab for lab in labs]
    variables = [_variable((name, BINARY, 0, 1)) for name in root]
    variables += [_variable((name, BINARY, 0, 1)) for name in z]
    variables += [_variable((name, INTEGER, 1, g.n)) for name in rank]
    # the base model holds s_v only with coefficients 1 and -(horizon + 1),
    # so -1 makes new terms
    s_minus = _terms(-1, ["s_" + lab for lab in labs])
    z_one, z_n = _terms(1, z), _terms(g.n, z)
    rank_one, rank_minus = _terms(1, rank), _terms(-1, rank)
    root_one = _terms(1, root)
    constraints = [_row(("root_choice", tuple(root_one), "=", 1))]
    constraints += [_row(("parent_" + lab, (*terms, s_minus[v]), "=", 0))
                    for v, (lab, terms) in enumerate(zip(labs, _incoming(root_one, arcs, z_one)))]
    constraints += [_row(("growth_" + uv, (z_one[i], s_minus[u]), "<=", 0))
                    for i, (u, _, uv) in enumerate(arcs)]
    constraints += [_row(("rank_" + uv, (rank_one[u], rank_minus[v], z_n[i]), "<=", g.n - 1))
                    for i, (u, v, uv) in enumerate(arcs)]
    # build_model1 checked the base's names, and export checks any model's
    _check_unique([v.name for v in variables], "variable", {v.name for v in model.variables})
    _check_unique([c.name for c in constraints], "constraint",
                  {c.name for c in model.constraints})
    return model._replace(name="connected_power_domination",
                          variables=model.variables + tuple(variables),
                          constraints=model.constraints + tuple(constraints),
                          meta={**model.meta, "connected": True})


# -- solution checking and the validator -----------------------------------


def _integral(value: object) -> bool:
    """True for an int, or a float without a fractional part (a solver's 2.0)."""
    return isinstance(value, int) or isinstance(value, float) and value.is_integer()


def check_assignment(model: MilpModel, assignment: dict[str, int]) -> list[str]:
    """All integrality, bound and constraint violations of a full assignment;
    a row that names a missing value or one other than an int or a float is
    skipped."""
    problems = []
    unread = set()
    for var in model.variables:
        if var.name not in assignment:
            problems.append(f"missing value for {var.name}")
            unread.add(var.name)
            continue
        val = assignment[var.name]
        if not _integral(val):
            problems.append(f"{var.name}={val!r} is not integral")
            if not isinstance(val, (int, float)):
                unread.add(var.name)
        elif not var.lower <= val <= var.upper:
            problems.append(f"{var.name}={val} outside [{var.lower}, {var.upper}]")
    for con in model.constraints:
        if unread and not unread.isdisjoint(name for _, name in con.terms):
            continue
        lhs = sum(coef * assignment.get(name, 0) for coef, name in con.terms)
        ok = (
            lhs <= con.rhs if con.relation == "<=" else
            lhs >= con.rhs if con.relation == ">=" else
            lhs == con.rhs
        )
        if not ok:
            problems.append(f"{con.name}: {lhs} {con.relation} {con.rhs} violated")
    return problems


def _encode(model: MilpModel, chosen: tuple[int, ...],
            trace: propagation.PropagationTrace) -> dict[str, int]:
    """Turn a propagation run into a full variable assignment."""
    g: Graph = model.meta["graph"]
    horizon: int = model.meta["horizon"]
    labs, arcs = model.meta["names"]
    chosen_set = set(chosen)
    assignment = {"s_" + lab: int(v in chosen_set) for v, lab in enumerate(labs)}
    colored_at = {v: 0 for v in chosen_set}
    parent_arc = set()
    for f in trace.forces:
        colored_at[f.target] = f.timestep
        parent_arc.add((f.source, f.target))
    for v, lab in enumerate(labs):
        assignment["x_" + lab] = min(colored_at[v], horizon)
    for u, v, uv in arcs:
        assignment["y_" + uv] = int((u, v) in parent_arc)
    if model.meta.get("connected"):
        root = min(chosen_set)
        left = bytearray(g.n)
        for v in chosen_set:
            left[v] = 1
        # ranks follow the breadth-first order from the root, and a vertex's
        # parent is the one that discovered it: its least-ranked neighbor
        rank = dict(zip(g._search(root, left), range(1, g.n + 1)))
        parent = {v: min([w for w in g.adj[v] if w in rank], key=rank.__getitem__)
                  for v in rank if v != root}
        for v, lab in enumerate(labs):
            assignment["zr_" + lab] = int(v == root)
            assignment["o_" + lab] = rank.get(v, g.n)
        for u, v, uv in arcs:
            assignment["z_" + uv] = int(parent.get(v) == u)
    return assignment


def decode_assignment(model: MilpModel, assignment: dict[str, int]) -> tuple[
        tuple[int, ...], propagation.PropagationTrace]:
    """Read the selected set and its force schedule back out of a feasible
    assignment produced by this module; the first variable it lacks, the
    first binary it sets to neither 0 nor 1, or the first integer variable
    it sets to a value that is not integral or lies outside the variable's
    bounds, raises :class:`ModelError`, as does a model read back from text."""
    if "names" not in model.meta:
        raise ModelError("decode_assignment only handles models built by this module")
    for var in model.variables:
        if var.name not in assignment:
            raise ModelError(f"assignment has no value for {var.name}")
        value = assignment[var.name]
        if var.kind == BINARY and value not in (0, 1):
            raise ModelError(f"binary {var.name} is {value!r}, not 0 or 1")
        if not (_integral(value) and var.lower <= value <= var.upper):
            raise ModelError(f"integer {var.name} is {value!r}, "
                             f"not an integer in [{var.lower}, {var.upper}]")
    labs, arcs = model.meta["names"]
    chosen = tuple(v for v, lab in enumerate(labs) if assignment["s_" + lab] == 1)
    chosen_set = set(chosen)
    forces = []
    for u, v, uv in arcs:
        if assignment["y_" + uv] == 1:
            kind = propagation.DOMINATE if u in chosen_set else propagation.FORCE
            forces.append(propagation.Force(int(assignment["x_" + labs[v]]), u, v, kind))
    forces.sort(key=lambda f: (f.timestep, f.target))
    final = tuple(sorted(chosen_set | {f.target for f in forces}))
    return chosen, propagation.PropagationTrace(chosen, tuple(forces), final)


def solve_small(model: MilpModel,
                budget: exact.Budget = exact.DEFAULT_BUDGET) -> ModelSolution:
    """Exact optimum of a model built here.

    The selection is the lexicographically smallest optimum of the exact
    oracle for the model's horizon: :func:`exact.l_round_pd` for a power
    domination model, :func:`exact.l_round_cpd` when the arborescence part
    is present. Both obey ``budget`` and raise
    :class:`BudgetExceededError` past it. The remaining variables follow
    from the selection's propagation run, and the assignment is verified
    against every constraint before it is returned.
    """
    if "graph" not in model.meta:
        raise ModelError("solve_small only handles models built by this module")
    oracle = exact.l_round_cpd if model.meta.get("connected") else exact.l_round_pd
    result = oracle(model.meta["graph"], model.meta["horizon"], budget)
    assignment = _encode(model, result.witness, result.trace)
    problems = check_assignment(model, assignment)
    if problems:
        raise ModelError("derived assignment violates the model: " + "; ".join(problems))
    return ModelSolution(assignment, float(result.optimum))


def solve_graph(g: Graph, t: int | None = None, connected: bool = False,
                budget: exact.Budget = exact.DEFAULT_BUDGET) -> exact.SolveResult:
    """The model of ``g`` (horizon ``t``, the arborescence if ``connected``)
    solved by :func:`solve_small` within ``budget``, decoded, and certified
    by replaying the decoded schedule. A graph over the vertex budget is
    refused after the checks of the graph and the horizon but before any
    row is built: the watch rows grow with the squared degrees."""
    _horizon(g, t)
    budget.check_size(g.n)
    model = build_model1(g, t)
    if connected:
        model = add_mtz_connectivity(model, g)
    chosen, trace = decode_assignment(model, solve_small(model, budget).assignment)
    return exact.certify(g, chosen, exact.METHOD_MILP, connected, trace=trace)


def round_number(g: Graph, rounds: int, connected: bool = False,
                 budget: exact.Budget = exact.DEFAULT_BUDGET) -> int:
    """Optimum of the model with horizon ``rounds``, from a certified schedule."""
    return solve_graph(g, rounds, connected, budget).optimum


def ppt_by_search(g: Graph, connected: bool = False,
                  budget: exact.Budget = exact.DEFAULT_BUDGET) -> int:
    """Smallest horizon whose optimum matches the unlimited-horizon one,
    found by binary search (logarithmically many solves). The time budget
    bounds the whole search: each solve gets only the time left."""
    deadline = budget.deadline()
    target = round_number(g, g.n, connected, budget.until(deadline))
    lo, hi = 1, g.n
    while lo < hi:
        mid = (lo + hi) // 2
        if round_number(g, mid, connected, budget.until(deadline)) == target:
            hi = mid
        else:
            lo = mid + 1
    return lo


# -- text export and the round-trip parsers --------------------------------


class _Shown(dict):
    """Each distinct term as LP text writes it after a row's first term,
    with its leading space (`` + x``, `` - 3 y``), formatted on first use."""

    def __missing__(self, term: tuple[int, str]) -> str:
        coef, name = term
        body = name if abs(coef) == 1 else f"{abs(coef)} {name}"
        text = self[term] = f" {'-' if coef < 0 else '+'} {body}"
        return text


def _expr(terms: tuple[tuple[int, str], ...], shown: _Shown) -> str:
    """A sum of terms; the first one drops its leading space and a plus
    sign, and keeps a minus sign unspaced."""
    if not terms:
        return ""
    text = "".join(map(shown.__getitem__, terms))
    return text[3:] if text[1] == "+" else "-" + text[3:]


def export(model: MilpModel, fmt: str = "lp") -> str:
    """Serialize to LP or (fixed-layout) MPS text, byte-deterministic."""
    if not model.variables:
        raise ModelError("model has no variables")
    _check_unique([v.name for v in model.variables], "variable")
    _check_unique([c.name for c in model.constraints], "constraint")
    if fmt == "lp":
        return _export_lp(model)
    if fmt == "mps":
        return _export_mps(model)
    raise ModelError(f"unknown export format {fmt!r}")


def _export_lp(model: MilpModel) -> str:
    shown = _Shown()
    lines = [f"\\ {model.name}", "Minimize", f" obj: {_expr(model.objective, shown)}",
             "Subject To"]
    lines += [f" {con.name}: {_expr(con.terms, shown)} {con.relation} {con.rhs}"
              for con in model.constraints]
    # bounds cover every variable in declaration order so a re-parse can
    # reconstruct the exact variable list
    lines.append("Bounds")
    for var in model.variables:
        lines.append(f" {var.lower} <= {var.name} <= {var.upper}")
    integers = [v for v in model.variables if v.kind == INTEGER]
    binaries = [v for v in model.variables if v.kind == BINARY]
    if integers:
        lines.append("Generals")
        lines += [f" {var.name}" for var in integers]
    if binaries:
        lines.append("Binaries")
        lines += [f" {var.name}" for var in binaries]
    lines.append("End")
    return "\n".join(lines) + "\n"


def _export_mps(model: MilpModel) -> str:
    rel_code = {"<=": "L", ">=": "G", "=": "E"}
    lines = [f"NAME          {model.name}", "ROWS", " N  obj"]
    for con in model.constraints:
        lines.append(f" {rel_code[con.relation]}  {con.name}")
    # each column's entry lines, in row order
    by_var: dict[str, list[str]] = {v.name: [] for v in model.variables}
    for coef, name in model.objective:
        by_var[name].append(f"    {name}    obj    {coef}")
    for con in model.constraints:
        row = con.name
        for coef, name in con.terms:
            by_var[name].append(f"    {name}    {row}    {coef}")
    lines.append("COLUMNS")
    lines.append("    MARKER_ALL    'MARKER'    'INTORG'")
    for entries in by_var.values():
        lines += entries
    lines.append("    MARKER_ALL    'MARKER'    'INTEND'")
    lines.append("RHS")
    for con in model.constraints:
        lines.append(f"    rhs    {con.name}    {con.rhs}")
    lines.append("BOUNDS")
    for var in model.variables:
        if var.kind == BINARY:
            lines.append(f" BV bnd    {var.name}")
        else:
            lines.append(f" LI bnd    {var.name}    {var.lower}")
            lines.append(f" UI bnd    {var.name}    {var.upper}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM_BODY = rf"(?:[0-9]+\s*)?{_NAME}"
# a sum of terms, each but the first joined by its sign; validated whole so
# that nothing between the terms is skipped
_EXPR = rf"(?:[+-]?\s*{_TERM_BODY}(?:\s*[+-]\s*{_TERM_BODY})*)?"
_LP_SECTIONS = frozenset(("minimize", "subject to", "bounds", "generals", "binaries", "end"))
_LP_SECTION_LENGTH = max(map(len, _LP_SECTIONS))
_MPS_SECTIONS = frozenset(("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"))
_REL_OF = {"L": "<=", "G": ">=", "E": "="}


@cache
def _lp_line_patterns() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """Objective, constraint and bound lines; compiled on first use, since
    importing the package should not pay for them."""
    return (re.compile(rf"(?:[^:]*:)?\s*({_EXPR})\s*"),
            re.compile(rf"([^:]*):\s*({_EXPR})\s*(<=|>=|=)\s*({_INTEGER})"),
            re.compile(rf"({_INTEGER})\s*<=\s*({_NAME})\s*<=\s*({_INTEGER})"))


class _LpTerms(dict):
    """Each distinct term text of one LP text (``x``, ``-3y``: no
    whitespace, no plus sign) to its term, read on first sight, so every
    row that holds the term shares one object."""

    def __missing__(self, text: str) -> tuple[int, str]:
        sign = -1 if text[0] == "-" else 1
        body = text[1:] if sign < 0 else text
        name = body.lstrip("0123456789")
        term = self[text] = (sign * int(body[:len(body) - len(name)] or 1), name)
        return term

    def of(self, expr: str) -> tuple[tuple[int, str], ...]:
        """The terms of an expression already matched by ``_EXPR``: a name
        holds no sign, so the signs alone cut the terms apart."""
        texts = "".join(expr.split()).replace("-", "+-").split("+")
        return tuple(map(self.__getitem__, texts if texts[0] else texts[1:]))


def parse_lp(text: str) -> MilpModel:
    """Parse LP text produced by :func:`export` back into a model.

    One pass over the lines, one regular expression per line, and each
    distinct term read once; malformed text raises :class:`ModelError`
    naming the line or the variable.
    """
    objective_line, constraint_line, bound_line = _lp_line_patterns()
    terms = _LpTerms()
    name = "parsed"
    objective: list[tuple[int, str]] = []
    rows: dict[str, Constraint] = {}
    bounds: dict[str, tuple[int, int]] = {}
    generals: set[str] = set()
    binaries: set[str] = set()
    declared: list[str] = []  # names listed under Generals or Binaries
    section = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "\\":
            name = line[1:].strip() or name
            continue
        if len(line) <= _LP_SECTION_LENGTH:
            lowered = line.lower()
            if lowered in _LP_SECTIONS:
                section = lowered
                continue
        if section == "subject to":
            if ":" not in line or line[0] == ":":
                raise ModelError(f"LP line {number}: constraint {line!r} has no label")
            match = constraint_line.fullmatch(line)
            if match is None:
                raise ModelError(f"LP line {number}: cannot parse constraint {line!r}")
            label, expr, relation, rhs = match.groups()
            label = label.strip()
            if label in rows:
                raise ModelError(f"LP line {number}: second constraint labelled {label!r}")
            rows[label] = _row((label, terms.of(expr), relation, int(rhs)))
        elif section == "bounds":
            match = bound_line.fullmatch(line)
            if match is None:
                raise ModelError(f"LP line {number}: cannot parse bound {line!r}")
            lo, var, hi = match.groups()
            if var in bounds:
                raise ModelError(f"LP line {number}: second bound line for {var!r}")
            bounds[var] = (int(lo), int(hi))
        elif section == "minimize":
            match = objective_line.fullmatch(line)
            if match is None:
                raise ModelError(f"LP line {number}: cannot parse objective {line!r}")
            objective += terms.of(match.group(1))
        elif section in ("generals", "binaries"):
            names = line.split()
            (generals if section == "generals" else binaries).update(names)
            declared += names
        else:
            raise ModelError(f"LP line {number}: {line!r} is outside the model sections")
    unbounded = [var for _, var in terms.values() if var not in bounds]
    unbounded += [var for var in declared if var not in bounds]
    if unbounded:
        raise ModelError(f"LP variable {unbounded[0]!r} has no bound line")
    variables = []
    for var, (lo, hi) in bounds.items():
        general = var in generals
        if general == (var in binaries):
            listed = "both Generals and Binaries" if general else "neither Generals nor Binaries"
            raise ModelError(f"LP variable {var!r} is listed under {listed}")
        variables.append(_variable((var, INTEGER if general else BINARY, lo, hi)))
    if not variables:
        raise ModelError("LP text declares no variables")
    return MilpModel(name, tuple(variables), tuple(objective), tuple(rows.values()))


def _integer(token: str, number: int, numbers: dict[str, int]) -> int:
    """A coefficient, right-hand side or bound from line ``number`` of MPS
    text, read once per distinct token into ``numbers``; every number in a
    model is an integer."""
    value = numbers.get(token)
    if value is None:
        if re.fullmatch(_INTEGER, token) is None:
            raise ModelError(f"MPS line {number}: {token!r} is not an integer")
        value = numbers[token] = int(token)
    return value


def parse_mps(text: str) -> MilpModel:
    """Parse MPS text produced by :func:`export` back into a model.

    One pass over the lines files every COLUMNS entry under its row, so
    each row's terms come out in column order at a cost linear in the
    text; each column makes one term per distinct coefficient. Variables
    follow the BOUNDS section, which lists every column in declaration
    order. Malformed text raises :class:`ModelError` naming the line, row
    or column.
    """
    name = "parsed"
    objective_row = None
    row_rel: dict[str, str] = {}
    terms_of: dict[str, list[tuple[int, str]]] = {}  # every row, the objective too
    rhs: dict[str, int] = {}
    numbers: dict[str, int] = {}
    columns: dict[str, str] = {}  # COLUMNS order; each name to its first object
    column_terms: dict[str, tuple[int, str]] = {}  # the current column's, by coefficient
    kinds: dict[str, str] = {}  # BOUNDS order
    lows: dict[str, int] = {}
    highs: dict[str, int] = {}
    section = None
    column = None
    for number, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        if raw[0] not in " \t":
            if parts[0] == "NAME":
                name = parts[1] if len(parts) > 1 else name
            elif len(parts) == 1 and parts[0] in _MPS_SECTIONS:
                section = parts[0]
            else:
                raise ModelError(f"MPS line {number}: unknown section {raw.strip()!r}")
            continue
        if section == "COLUMNS" and len(parts) == 3:
            col, row, value = parts
            terms = terms_of.get(row)
            if terms is None:
                if row == "'MARKER'":
                    continue
                raise ModelError(
                    f"MPS line {number}: column {col!r} has an entry in undeclared row {row!r}")
            if col != column:
                if col in columns:
                    raise ModelError(
                        f"MPS line {number}: the entries of column {col!r} are not contiguous")
                # one name object per column, however many rows and bounds name it
                columns[col] = column = col
                column_terms = {}
            term = column_terms.get(value)
            if term is None:
                term = column_terms[value] = (_integer(value, number, numbers), column)
            terms.append(term)
        elif section == "ROWS" and len(parts) == 2:
            code, row = parts
            if row in terms_of:
                raise ModelError(f"MPS line {number}: row {row!r} declared twice")
            if code == "N":
                if objective_row is not None:
                    raise ModelError(f"MPS line {number}: second objective row {row!r}")
                objective_row = row
            elif code in _REL_OF:
                row_rel[row] = _REL_OF[code]
            else:
                raise ModelError(f"MPS line {number}: unknown row type {code!r}")
            terms_of[row] = []
        elif section == "RHS" and len(parts) == 3:
            row = parts[1]
            if row not in row_rel:
                raise ModelError(f"MPS line {number}: RHS entry for {row!r}, "
                                 f"which is not a constraint row")
            if row in rhs:
                raise ModelError(f"MPS line {number}: second RHS entry for {row!r}")
            rhs[row] = _integer(parts[2], number, numbers)
        elif section == "BOUNDS" and parts[0] == "BV" and len(parts) == 3:
            col = parts[2]
            if kinds.get(col) == INTEGER:
                raise ModelError(f"MPS line {number}: column {col!r} is both BV and LI/UI")
            kinds[col] = BINARY
            lows[col], highs[col] = 0, 1
        elif section == "BOUNDS" and parts[0] in ("LI", "UI") and len(parts) == 4:
            col = parts[2]
            if kinds.setdefault(col, INTEGER) == BINARY:
                raise ModelError(f"MPS line {number}: column {col!r} is both BV and LI/UI")
            bound = lows if parts[0] == "LI" else highs
            if col in bound:
                raise ModelError(f"MPS line {number}: second {parts[0]} bound for {col!r}")
            bound[col] = _integer(parts[3], number, numbers)
        else:
            raise ModelError(f"MPS line {number}: cannot read {raw.strip()!r} "
                             f"in section {section or 'none'}")
    for col in columns:
        if col not in kinds:
            raise ModelError(f"MPS column {col!r} has no BOUNDS entry")
    variables = []
    for col, kind in kinds.items():
        if col not in lows or col not in highs:
            raise ModelError(f"MPS column {col!r} lacks its LI or UI bound")
        variables.append(_variable((columns.get(col, col), kind, lows[col], highs[col])))
    if not variables:
        raise ModelError("MPS text declares no variables")
    objective = tuple(terms_of[objective_row]) if objective_row is not None else ()
    constraints = tuple(_row((row, tuple(terms_of[row]), rel, rhs.get(row, 0)))
                        for row, rel in row_rel.items())
    return MilpModel(name, tuple(variables), objective, constraints)
