"""The color-change engine.

Two rules drive everything here. The domination step colors the closed
neighborhood of the chosen set. The forcing rule lets a colored vertex
with exactly one uncolored neighbor color that neighbor. A set is power
dominating when one domination step followed by exhaustive forcing colors
the whole graph; it is zero forcing when forcing alone suffices.

Forcing runs in synchronized rounds: every force eligible at the start of
a round fires in that round. That convention makes the propagation time of
a set well defined (round 1 is the domination step). Within a round, when
several vertices could force the same target, the trace credits the
smallest-index source, so traces are deterministic.

Every public check runs on one frontier engine, :func:`_propagate`, which
costs O(n + m) per run: it keeps, for each colored vertex, the number of
its uncolored neighbors, and each round it looks only at the vertices
whose number dropped to one in the round before. Recording the trace
(one :class:`Force` per colored vertex) is opt-in for internal callers:
the functions that return a trace record it, while the yes/no checks used
inside the enumeration oracles (:func:`colors_within`,
:func:`is_zero_forcing`, :func:`ppt_of_set`, and :func:`_uncolored`, the
closure of the fort-driven search) skip it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .errors import NotPowerDominatingError, PowerDomError
from .graphs import Graph

DOMINATE = "dominate"
FORCE = "force"

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mask_of(flags: bytes | bytearray) -> int:
    """Bitmask with bit v set iff ``flags[v]`` is 1, built in linear time."""
    return int(flags[::-1].translate(_TO_DIGITS) or b"0", 2)


def _members(mask: int) -> list[int]:
    """Set bit positions of a non-negative mask, ascending, in linear time."""
    flags = bin(mask)[:1:-1].encode().translate(_TO_FLAGS)
    return list(compress(range(len(flags)), flags))


@dataclass(frozen=True)
class Force:
    timestep: int
    source: int
    target: int
    kind: str


@dataclass(frozen=True)
class ColorState:
    """Colored-vertex bitmask together with the round that produced it."""

    colored: int
    timestep: int

    def vertices(self) -> tuple[int, ...]:
        return tuple(_members(self.colored))


@dataclass(frozen=True)
class PropagationTrace:
    """Chronological record of one propagation run.

    Every target appears exactly once and never lies in the initial set;
    all domination entries carry timestep 1 and forces come strictly later
    (or from 1 upward when there was no domination step).
    """

    initial: tuple[int, ...]
    forces: tuple[Force, ...]
    final_colored: tuple[int, ...]

    @property
    def final_mask(self) -> int:
        flags = bytearray(max(self.final_colored, default=-1) + 1)
        for v in self.final_colored:
            flags[v] = 1
        return _mask_of(flags)

    def rounds(self) -> int:
        """Last round that colored a vertex (at least 1)."""
        last = max((f.timestep for f in self.forces), default=1)
        return max(last, 1)


def _seeds(g: Graph, s: Iterable[int] | int) -> list[int]:
    """The vertices of ``s`` (a bitmask or an iterable), sorted and unique."""
    if isinstance(s, int):
        if s < 0 or s >> g.n:
            raise PowerDomError("vertex mask out of range")
        return _members(s)
    vertices = list(s)
    for v in vertices:
        if not 0 <= v < g.n:
            raise PowerDomError(f"vertex {v} not in graph")
    return sorted(set(vertices))


class _Frontier:
    """Colored vertices, and for each colored vertex the number and the XOR
    of its uncolored neighbors; the XOR names the only uncolored neighbor
    once the number is 1."""

    def __init__(self, g: Graph) -> None:
        self.adj = g.adj
        self.colored = bytearray(g.n)
        self.left = [0] * g.n
        self.xor = [0] * g.n
        self.total = 0

    def color(self, batch: list[int]) -> list[int]:
        """Color the distinct, uncolored vertices of ``batch`` as one step;
        returns the colored vertices now left with one uncolored neighbor."""
        adj, colored, left, xor = self.adj, self.colored, self.left, self.xor
        ready = []
        if self.total:
            # Old neighbors first, while the batch still reads as uncolored,
            # so that two adjacent vertices of the batch never count each other.
            for w in batch:
                for u in adj[w]:
                    if colored[u]:
                        k = left[u] - 1
                        left[u] = k
                        xor[u] ^= w
                        if k == 1:
                            ready.append(u)
        for w in batch:
            colored[w] = 1
        for v in batch:
            k = x = 0
            for w in adj[v]:
                if not colored[w]:
                    k += 1
                    x ^= w
            left[v] = k
            xor[v] = x
            if k == 1:
                ready.append(v)
        self.total += len(batch)
        return ready

    def vertices(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.colored)), self.colored))

    def mask(self) -> int:
        return _mask_of(self.colored)


def _propagate(g: Graph, seeds: list[int], dominate: bool, start: int,
               limit: int | None = None, record: bool = False
               ) -> tuple[_Frontier, list[Force] | None, int]:
    """Color ``seeds``, apply the domination step if asked (round 1), then
    run synchronized forcing rounds ``start``, ``start + 1``, ... until no
    force fires or round ``limit`` is done.

    Returns the final frontier, the entries when ``record`` is set, and
    the last round that colored a vertex (``start - 1`` if none did). A
    vertex can force only when its number of uncolored neighbors is 1,
    and that number changes only when a neighbor gets colored, so each
    round rechecks only the vertices whose number reached 1 in the round
    before. Each edge is looked at a bounded number of times.
    """
    forces: list[Force] | None = [] if record else None
    batch = list(seeds)
    if dominate:
        taken = set(seeds)
        for v in seeds:
            for w in g.adj[v]:
                if w not in taken:
                    taken.add(w)
                    batch.append(w)
                    if forces is not None:
                        forces.append(Force(1, v, w, DOMINATE))
    front = _Frontier(g)
    ready = front.color(batch)
    left, xor = front.left, front.xor
    last = start - 1
    t = start
    while ready and front.total < g.n and (limit is None or t <= limit):
        fired: dict[int, int] = {}  # target -> smallest source
        for v in ready:
            if left[v] == 1:
                w = xor[v]
                if fired.get(w, g.n) > v:
                    fired[w] = v
        if not fired:
            break
        targets = sorted(fired)
        if forces is not None:
            forces.extend(Force(t, fired[w], w, FORCE) for w in targets)
        ready = front.color(targets)
        last = t
        t += 1
    return front, forces, last


def dominate_step(g: Graph, s: Iterable[int] | int) -> ColorState:
    """Apply the domination rule once: color the closed neighborhood of s."""
    front, _, _ = _propagate(g, _seeds(g, s), dominate=True, start=2, limit=1)
    return ColorState(front.mask(), 1)


def forcing_closure(
    g: Graph, colored: Iterable[int] | int, start_time: int = 1
) -> tuple[ColorState, tuple[Force, ...]]:
    """Close ``colored`` under the forcing rule; returns state and forces."""
    front, forces, last = _propagate(g, _seeds(g, colored), dominate=False,
                                     start=start_time, record=True)
    return ColorState(front.mask(), last), tuple(forces)


def is_power_dominating(g: Graph, s: Iterable[int] | int) -> tuple[bool, PropagationTrace]:
    """Check rule 1 once plus rule 2 to exhaustion; the trace is always
    returned, on failure it records the partial run."""
    seeds = _seeds(g, s)
    front, forces, _ = _propagate(g, seeds, dominate=True, start=2, record=True)
    trace = PropagationTrace(tuple(seeds), tuple(forces), front.vertices())
    return front.total == g.n, trace


def is_zero_forcing(g: Graph, s: Iterable[int] | int) -> bool:
    """True iff forcing alone (no domination step) colors every vertex."""
    front, _, _ = _propagate(g, _seeds(g, s), dominate=False, start=1)
    return front.total == g.n


def colors_within(g: Graph, s: Iterable[int] | int, rounds: int) -> bool:
    """True iff s power dominates g in at most ``rounds`` rounds.

    With ``rounds = g.n`` this is the trace-free power domination check:
    n rounds always suffice for a non-empty set.
    """
    if rounds < 1:
        return False
    seeds = _seeds(g, s)
    if not seeds:
        return False
    front, _, _ = _propagate(g, seeds, dominate=True, start=2, limit=rounds)
    return front.total == g.n


def _uncolored(g: Graph, s: int) -> tuple[int, int]:
    """Trace-free power domination closure of the vertex mask ``s``: the
    mask of the vertices it leaves uncolored, and the last round that
    colored a vertex. A non-empty uncolored set is a fort: no colored
    vertex has exactly one neighbor in it."""
    front, _, last = _propagate(g, _members(s), dominate=True, start=2)
    return front.mask() ^ g.full_mask, last


def ppt_of_set(g: Graph, s: Iterable[int] | int) -> int:
    """Power propagation time of a power dominating set (rounds to color V)."""
    front, _, last = _propagate(g, _seeds(g, s), dominate=True, start=2)
    if front.total != g.n:
        raise NotPowerDominatingError("set does not power dominate the graph")
    return last


def is_connected_set(g: Graph, s: Iterable[int] | int) -> bool:
    """True iff s is nonempty and induces a connected subgraph."""
    flags = bytearray(g.n)
    for v in _seeds(g, s):
        flags[v] = 1
    return g.is_connected_mask(_mask_of(flags))


def trace_lines(g: Graph, trace: PropagationTrace) -> list[str]:
    """Line-oriented serialization: ``t=<k> <src> -> <tgt> [kind]``."""
    return [
        f"t={f.timestep} {g.labels[f.source]} -> {g.labels[f.target]} [{f.kind}]"
        for f in trace.forces
    ]


def replay_trace(g: Graph, trace: PropagationTrace) -> int:
    """Re-run a trace step by step, validating every entry.

    Returns the final colored mask; raises PowerDomError on any entry that
    is not legal at its recorded timestep (synchronized semantics). Runs in
    O(n + m) on the engine's uncolored-neighbor counts.
    """
    front = _Frontier(g)
    front.color(_seeds(g, trace.initial))
    initial = bytes(front.colored)
    claimed = bytearray(initial)
    by_time: dict[int, list[Force]] = {}
    for f in trace.forces:
        for v in (f.source, f.target):
            if not 0 <= v < g.n:
                raise PowerDomError(f"vertex {v} not in graph")
        if claimed[f.target]:
            raise PowerDomError(f"target {f.target} colored twice")
        claimed[f.target] = 1
        by_time.setdefault(f.timestep, []).append(f)
    for t in sorted(by_time):
        entries = by_time[t]
        for f in entries:
            if f.kind == DOMINATE:
                if t != 1 or not initial[f.source]:
                    raise PowerDomError("domination entry outside round 1")
                row = g.adj[f.source]
                i = bisect_left(row, f.target)
                if i == len(row) or row[i] != f.target:
                    raise PowerDomError("domination along a non-edge")
            else:
                if not front.colored[f.source]:
                    raise PowerDomError(f"source {f.source} not colored at t={t}")
                if front.left[f.source] != 1 or front.xor[f.source] != f.target:
                    raise PowerDomError(
                        f"source {f.source} cannot force {f.target} at t={t}"
                    )
        front.color([f.target for f in entries])
    if set(trace.final_colored) != set(front.vertices()):
        raise PowerDomError("replay does not reproduce the recorded final set")
    return front.mask()
