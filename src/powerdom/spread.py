"""How graph surgery moves the connected power domination number.

The spread of an operation is the before-minus-after difference of the
optimum (after-minus-before for subdivision, which can never lose). The
two generators build families where a single deletion, contraction, or
subdivision shifts the optimum by any requested amount.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .decomposition import blocks, profile
from .errors import GraphError, SolverInternalError
from .exact import SolveResult
from .graphs import Graph, _count
from . import structural

DELETE_VERTEX = "delete_vertex"
DELETE_EDGE = "delete_edge"
CONTRACT_EDGE = "contract_edge"
SUBDIVIDE_EDGE = "subdivide_edge"

Solver = Callable[[Graph], SolveResult]


class SpreadReport(NamedTuple):
    """Certified before/after optima for one surgical operation.

    ``spread`` is before minus after except for subdivision, where it is
    the (provably nonnegative) increase after minus before.
    """

    operation: str
    target: tuple[str, ...]
    before: SolveResult
    after: SolveResult
    spread: int


def _spread(operation: str, g: Graph, target: tuple[int, ...], changed: Graph,
            solver: Solver | None) -> SpreadReport:
    """Solve ``changed`` (the caller built it, so its refusals come before
    any solve), then ``g``, and report how the optimum moved. Without a
    ``solver``, :func:`structural.solve_cpds` solves both."""
    solve = solver or structural.solve_cpds
    after = solve(changed)
    before = solve(g)
    spread = before.optimum - after.optimum
    if operation == SUBDIVIDE_EDGE:
        spread = -spread
        if spread < 0:
            raise SolverInternalError(
                f"subdivision lowered the optimum from {before.optimum} to {after.optimum}"
            )
    return SpreadReport(operation, g.labels_of(target), before, after, spread)


def vertex_spread(g: Graph, v: int, solver: Solver | None = None) -> SpreadReport:
    """Spread under deletion of a non-cut vertex."""
    removed = g.delete_vertex(v)
    if v in blocks(g).cut_vertices:
        raise GraphError(f"vertex {g.labels[v]} is a cut vertex; deletion disconnects")
    return _spread(DELETE_VERTEX, g, (v,), removed, solver)


def edge_spread(g: Graph, u: int, v: int, solver: Solver | None = None) -> SpreadReport:
    """Spread under deletion of a non-cut edge."""
    removed = g.delete_edge(u, v)
    if not profile(removed).connected:
        raise GraphError(f"edge {g.labels[u]},{g.labels[v]} is a cut edge; deletion disconnects")
    return _spread(DELETE_EDGE, g, (u, v), removed, solver)


def contract_edge_spread(g: Graph, u: int, v: int,
                         solver: Solver | None = None) -> SpreadReport:
    """Spread under contraction of an edge (result kept simple)."""
    return _spread(CONTRACT_EDGE, g, (u, v), g.contract_edge(u, v), solver)


def subdivide_edge_delta(g: Graph, u: int, v: int,
                         solver: Solver | None = None) -> SpreadReport:
    """Increase of the optimum when one edge is subdivided.

    Subdividing can never decrease the connected power domination number;
    a negative delta therefore means a solver bug and raises.
    """
    return _spread(SUBDIVIDE_EDGE, g, (u, v), g.subdivide_edge(u, v), solver)


def make_path_gadget(c: int) -> Graph:
    """Deletion gadget with tunable swing ``c``.

    A path a1..a{c+3} plus three extra vertices: b1 adjacent to a1 and a2,
    a chain b1-b2-b3, and b3 adjacent to a{c+2}. The whole graph needs one
    vertex; deleting b2 (or either of its incident edges near b1) exposes a
    long chain of mandatory vertices, raising the optimum to c + 1.
    """
    if _count("c", c) < 1:
        raise GraphError("c must be positive")
    n = c + 3
    labels = [f"a{i + 1}" for i in range(n)] + ["b1", "b2", "b3"]
    b1, b2, b3 = n, n + 1, n + 2
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(b1, 0), (b1, 1), (b1, b2), (b2, b3), (b3, n - 2)]
    return Graph(labels, edges)


def make_cycle_gadget(c: int) -> Graph:
    """Contraction/subdivision gadget with tunable swing ``c``.

    An odd cycle c1..c{2c+1} with two leaves t1, t2 on the vertex opposite
    the edge c1-c2, plus leaves t3 on c1 and t4 on c2. One vertex suffices,
    but subdividing or contracting c1-c2 moves the optimum to c + 1.
    """
    if _count("c", c) < 1:
        raise GraphError("c must be positive")
    size = 2 * c + 1
    far = c + 1  # index of the cycle vertex at maximum distance from c1-c2
    labels = [f"c{i + 1}" for i in range(size)] + ["t1", "t2", "t3", "t4"]
    t1, t2, t3, t4 = size, size + 1, size + 2, size + 3
    edges = [(i, (i + 1) % size) for i in range(size)]
    edges += [(far, t1), (far, t2), (0, t3), (1, t4)]
    return Graph(labels, edges)
