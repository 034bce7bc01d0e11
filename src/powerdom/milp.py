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

``solve_small`` is a validator, not a general solver: it takes the
selection from the exact oracle for the model's problem and horizon,
derives the remaining variables from a propagation run, and then checks
the assignment against every constraint row literally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache

from . import exact, propagation
from .errors import DisconnectedError, GraphError, ModelError
from .graphs import Graph, fresh_label

BINARY = "binary"
INTEGER = "integer"

OPTIMAL = "optimal"


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lower: int
    upper: int


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, str], ...]
    relation: str  # "<=", "=", ">="
    rhs: int


@dataclass(frozen=True)
class MilpModel:
    """Solver-agnostic variable/constraint container.

    ``meta`` carries the originating graph and horizon so the built-in
    validator can reconstruct solutions; it is excluded from equality so
    that a model re-read from disk compares equal to the original.
    """

    name: str
    variables: tuple[Variable, ...]
    objective: tuple[tuple[int, str], ...]
    constraints: tuple[Constraint, ...]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

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


@dataclass(frozen=True)
class ModelSolution:
    assignment: dict[str, int]
    objective_value: float
    status: str


_SANITIZE = re.compile(r"[^A-Za-z0-9_]")


def _check_unique(names: list[str], what: str, taken: set[str] | None = None) -> None:
    """Raise on a repeated name, or on one already in ``taken`` (which the
    check fills in)."""
    seen = set() if taken is None else taken
    for name in names:
        if name in seen:
            raise ModelError(f"{what} name collision: {name!r}")
        seen.add(name)


def _names(g: Graph) -> tuple[list[str], list[tuple[int, int, str]]]:
    """The name table of the models over ``g``: the cleaned label of each
    vertex, and every arc (each edge in both directions, tail-major) with
    its ``u__v`` suffix. Every variable and row name is a prefix followed
    by one of these. A label that cleans to the name of an earlier vertex
    takes the first free name with underscores appended."""
    labs = [_SANITIZE.sub("_", lab) for lab in g.labels]
    taken, seen = set(labs), set()
    for v, lab in enumerate(labs):
        if lab in seen:
            labs[v] = fresh_label(taken, lab)
            taken.add(labs[v])
        seen.add(lab)
    return labs, [(u, v, f"{labs[u]}__{labs[v]}") for u in range(g.n) for v in g.adj[u]]


def _incoming(first: list[str], arcs: list[tuple[int, int, str]],
              names: list[str]) -> list[list[tuple[int, str]]]:
    """Per vertex v, the term of ``first[v]`` followed by the terms of the
    arc variables ``names`` into v, by ascending tail."""
    terms = [[(1, name)] for name in first]
    for (_, v, _), name in zip(arcs, names):
        terms[v].append((1, name))
    return terms


def build_model1(g: Graph, t: int | None = None) -> MilpModel:
    """Power domination model over ``g`` with horizon ``t`` (default n)."""
    if not g.is_connected():
        raise DisconnectedError("model requires a connected graph")
    horizon = g.n if t is None else t
    if horizon < 1:
        raise GraphError("horizon must be at least 1")
    labs, arcs = _names(g)
    s = ["s_" + lab for lab in labs]
    x = ["x_" + lab for lab in labs]
    y = ["y_" + uv for _, _, uv in arcs]
    variables = [Variable(name, BINARY, 0, 1) for name in s]
    variables += [Variable(name, INTEGER, 0, horizon) for name in x]
    variables += [Variable(name, BINARY, 0, 1) for name in y]
    big = horizon + 1
    constraints = [Constraint("cover_" + lab, tuple(terms), "=", 1)
                   for lab, terms in zip(labs, _incoming(s, arcs, y))]
    constraints += [Constraint("order_" + uv, ((1, x[u]), (-1, x[v]), (big, name)), "<=", horizon)
                    for (u, v, uv), name in zip(arcs, y)]
    for (u, v, uv), name in zip(arcs, y):
        for w in g.adj[u]:
            if w != v:
                constraints.append(Constraint(
                    f"watch_{uv}__{labs[w]}",
                    ((1, x[w]), (-1, x[v]), (big, name), (-big, s[u])), "<=", horizon))
    _check_unique([v.name for v in variables], "variable")
    _check_unique([c.name for c in constraints], "constraint")
    return MilpModel(
        name="power_domination",
        variables=tuple(variables),
        objective=tuple((1, name) for name in s),
        constraints=tuple(constraints),
        meta={"graph": g, "horizon": horizon, "connected": False},
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
    labs, arcs = _names(g)
    s = ["s_" + lab for lab in labs]
    root = ["zr_" + lab for lab in labs]
    z = ["z_" + uv for _, _, uv in arcs]
    rank = ["o_" + lab for lab in labs]
    variables = [Variable(name, BINARY, 0, 1) for name in root]
    variables += [Variable(name, BINARY, 0, 1) for name in z]
    variables += [Variable(name, INTEGER, 1, g.n) for name in rank]
    constraints = [Constraint("root_choice", tuple((1, name) for name in root), "=", 1)]
    constraints += [Constraint("parent_" + lab, (*terms, (-1, s[v])), "=", 0)
                    for v, (lab, terms) in enumerate(zip(labs, _incoming(root, arcs, z)))]
    constraints += [Constraint("growth_" + uv, ((1, name), (-1, s[u])), "<=", 0)
                    for (u, _, uv), name in zip(arcs, z)]
    constraints += [Constraint("rank_" + uv, ((1, rank[u]), (-1, rank[v]), (g.n, name)),
                               "<=", g.n - 1)
                    for (u, v, uv), name in zip(arcs, z)]
    # build_model1 checked the base's names, and export checks any model's
    _check_unique([v.name for v in variables], "variable", {v.name for v in model.variables})
    _check_unique([c.name for c in constraints], "constraint",
                  {c.name for c in model.constraints})
    meta = dict(model.meta)
    meta["connected"] = True
    return MilpModel(
        name="connected_power_domination",
        variables=model.variables + tuple(variables),
        objective=model.objective,
        constraints=model.constraints + tuple(constraints),
        meta=meta,
    )


# -- solution checking and the validator -----------------------------------


def check_assignment(model: MilpModel, assignment: dict[str, int]) -> list[str]:
    """All bound and constraint violations of a full assignment."""
    problems = []
    for var in model.variables:
        if var.name not in assignment:
            problems.append(f"missing value for {var.name}")
            continue
        val = assignment[var.name]
        if not var.lower <= val <= var.upper:
            problems.append(f"{var.name}={val} outside [{var.lower}, {var.upper}]")
    for con in model.constraints:
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
    labs, arcs = _names(g)
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
        order: dict[int, int] = {}
        tree_parent: dict[int, int] = {}
        queue = [root]
        order[root] = 1
        while queue:
            u = queue.pop(0)
            for w in g.adj[u]:
                if w in chosen_set and w not in order:
                    order[w] = len(order) + 1
                    tree_parent[w] = u
                    queue.append(w)
        for v, lab in enumerate(labs):
            assignment["zr_" + lab] = int(v == root)
            assignment["o_" + lab] = order.get(v, g.n)
        for u, v, uv in arcs:
            assignment["z_" + uv] = int(tree_parent.get(v) == u)
    return assignment


def decode_assignment(model: MilpModel, assignment: dict[str, int]) -> tuple[
        tuple[int, ...], propagation.PropagationTrace]:
    """Read the selected set and its force schedule back out of a feasible
    assignment produced by this module."""
    g: Graph = model.meta["graph"]
    labs, arcs = _names(g)
    chosen = tuple(v for v, lab in enumerate(labs) if assignment["s_" + lab] == 1)
    chosen_set = set(chosen)
    forces = []
    for u, v, uv in arcs:
        if assignment["y_" + uv] == 1:
            kind = propagation.DOMINATE if u in chosen_set else propagation.FORCE
            forces.append(propagation.Force(assignment["x_" + labs[v]], u, v, kind))
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
    return ModelSolution(assignment, float(result.optimum), OPTIMAL)


def round_number(g: Graph, rounds: int, connected: bool = False,
                 budget: exact.Budget = exact.DEFAULT_BUDGET) -> int:
    """Optimum of the model with horizon ``rounds``."""
    model = build_model1(g, rounds)
    if connected:
        model = add_mtz_connectivity(model, g)
    return int(solve_small(model, budget).objective_value)


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


def _fmt_term(coef: int, name: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    mag = abs(coef)
    body = name if mag == 1 else f"{mag} {name}"
    if first:
        return f"{sign}{body}" if sign else body
    return f"{sign} {body}"


def _expr(terms: tuple[tuple[int, str], ...]) -> str:
    return " ".join(_fmt_term(c, n, i == 0) for i, (c, n) in enumerate(terms))


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
    lines = [f"\\ {model.name}", "Minimize", f" obj: {_expr(model.objective)}", "Subject To"]
    for con in model.constraints:
        lines.append(f" {con.name}: {_expr(con.terms)} {con.relation} {con.rhs}")
    # bounds cover every variable in declaration order so a re-parse can
    # reconstruct the exact variable list
    lines.append("Bounds")
    for var in model.variables:
        lines.append(f" {var.lower} <= {var.name} <= {var.upper}")
    integers = [v for v in model.variables if v.kind == INTEGER]
    binaries = [v for v in model.variables if v.kind == BINARY]
    if integers:
        lines.append("Generals")
        for var in integers:
            lines.append(f" {var.name}")
    if binaries:
        lines.append("Binaries")
        for var in binaries:
            lines.append(f" {var.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _export_mps(model: MilpModel) -> str:
    rel_code = {"<=": "L", ">=": "G", "=": "E"}
    lines = [f"NAME          {model.name}", "ROWS", " N  obj"]
    for con in model.constraints:
        lines.append(f" {rel_code[con.relation]}  {con.name}")
    by_var: dict[str, list[tuple[str, int]]] = {v.name: [] for v in model.variables}
    for coef, name in model.objective:
        by_var[name].append(("obj", coef))
    for con in model.constraints:
        for coef, name in con.terms:
            by_var[name].append((con.name, coef))
    lines.append("COLUMNS")
    lines.append("    MARKER_ALL    'MARKER'    'INTORG'")
    for var in model.variables:
        for row, coef in by_var[var.name]:
            lines.append(f"    {var.name}    {row}    {coef}")
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
_TERM_BODY = rf"(?:\d+\s*)?{_NAME}"
# a sum of terms, each but the first joined by its sign; validated whole so
# that nothing between the terms is skipped
_EXPR = rf"(?:[+-]?\s*{_TERM_BODY}(?:\s*[+-]\s*{_TERM_BODY})*)?"
_TERM = re.compile(rf"([+-]?)\s*(\d*)\s*({_NAME})")
_LP_SECTIONS = frozenset(("minimize", "subject to", "bounds", "generals", "binaries", "end"))
_MPS_SECTIONS = frozenset(("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"))
_REL_OF = {"L": "<=", "G": ">=", "E": "="}


def _integer(token: str, number: int) -> int:
    """A coefficient, right-hand side or bound from line ``number`` of MPS
    text; every number in a model is an integer."""
    try:
        return int(token)
    except ValueError:
        raise ModelError(f"MPS line {number}: {token!r} is not an integer") from None


@cache
def _lp_line_patterns() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """Objective, constraint and bound lines; compiled on first use, since
    importing the package should not pay for them."""
    return (re.compile(rf"(?:[^:]*:)?\s*({_EXPR})\s*"),
            re.compile(rf"([^:]*):\s*({_EXPR})\s*(<=|>=|=)\s*(-?\d+)"),
            re.compile(rf"(-?\d+)\s*<=\s*({_NAME})\s*<=\s*(-?\d+)"))


def _parse_expr(text: str) -> list[tuple[int, str]]:
    """The terms of an expression already matched by ``_EXPR``."""
    return [(-int(coef or 1) if sign == "-" else int(coef or 1), name)
            for sign, coef, name in _TERM.findall(text)]


def parse_lp(text: str) -> MilpModel:
    """Parse LP text produced by :func:`export` back into a model.

    One pass over the lines, one regular expression per line; malformed
    text raises :class:`ModelError` naming the line.
    """
    objective_line, constraint_line, bound_line = _lp_line_patterns()
    name = "parsed"
    objective: list[tuple[int, str]] = []
    constraints: list[Constraint] = []
    bounds: dict[str, tuple[int, int]] = {}
    generals: set[str] = set()
    declared: list[str] = []  # names listed under Generals or Binaries
    section = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "\\":
            name = line[1:].strip() or name
            continue
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
            constraints.append(Constraint(label.strip(), tuple(_parse_expr(expr)),
                                          relation, int(rhs)))
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
            objective += _parse_expr(match.group(1))
        elif section == "generals":
            names = line.split()
            generals.update(names)
            declared += names
        elif section == "binaries":
            declared += line.split()
        else:
            raise ModelError(f"LP line {number}: {line!r} is outside the model sections")
    unbounded = [var for _, var in objective if var not in bounds]
    unbounded += [var for con in constraints for _, var in con.terms if var not in bounds]
    unbounded += [var for var in declared if var not in bounds]
    if unbounded:
        raise ModelError(f"LP variable {unbounded[0]!r} has no bound line")
    variables = tuple(Variable(var, INTEGER if var in generals else BINARY, lo, hi)
                      for var, (lo, hi) in bounds.items())
    return MilpModel(name, variables, tuple(objective), tuple(constraints))


def parse_mps(text: str) -> MilpModel:
    """Parse MPS text produced by :func:`export` back into a model.

    One pass over the lines files every COLUMNS entry under its row, so
    each row's terms come out in column order at a cost linear in the
    text. Variables follow the BOUNDS section, which lists every column in
    declaration order. Malformed text raises :class:`ModelError` naming the
    line, row or column.
    """
    name = "parsed"
    objective_row = None
    row_rel: dict[str, str] = {}
    terms_of: dict[str, list[tuple[int, str]]] = {}  # every row, the objective too
    rhs: dict[str, int] = {}
    columns: dict[str, str] = {}  # COLUMNS order; each name to its first object
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
                columns[col] = column = col
            # one name object per column, however many rows and bounds name it
            terms.append((_integer(value, number), column))
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
            rhs[row] = _integer(parts[2], number)
        elif section == "BOUNDS" and parts[0] == "BV" and len(parts) == 3:
            col = parts[2]
            kinds[col] = BINARY
            lows[col], highs[col] = 0, 1
        elif section == "BOUNDS" and parts[0] in ("LI", "UI") and len(parts) == 4:
            col = parts[2]
            kinds.setdefault(col, INTEGER)
            value = _integer(parts[3], number)
            if parts[0] == "LI":
                lows[col] = value
            else:
                highs[col] = value
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
        variables.append(Variable(columns.get(col, col), kind, lows[col], highs[col]))
    objective = tuple(terms_of[objective_row]) if objective_row is not None else ()
    constraints = tuple(Constraint(row, tuple(terms_of[row]), rel, rhs.get(row, 0))
                        for row, rel in row_rel.items())
    return MilpModel(name, tuple(variables), objective, constraints)
