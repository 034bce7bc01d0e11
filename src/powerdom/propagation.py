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
whose number dropped to one in the round before. Recording is opt-in.
Every check takes its set as an iterable of vertex ids, which
``Graph._vertex_ids`` validates (a bitmask is not a set here).
A run that returns its coloring (:func:`dominate_step`,
:func:`forcing_closure`, :func:`is_power_dominating`) returns it as one
:class:`PropagationTrace`, built by :func:`_traced`: the trace keeps the
round, source and target of every coloring, the domination step's
included, as plain integers in one flat list, which :func:`trace_lines`
prints directly, and builds its :class:`Force` entries only when
``forces`` is read. The yes/no checks record nothing.
The closures of the exact searches run the same rounds on neighbor
bitmasks instead (:func:`_resume`), from the mask a search colors at once.
"""

from __future__ import annotations

from functools import partial
from itertools import compress
from operator import attrgetter
from typing import Iterable, NamedTuple

from .errors import NotPowerDominatingError, PowerDomError
from .graphs import Graph, _count, _mask_of

DOMINATE = "dominate"
FORCE = "force"


class Force(NamedTuple):
    """One trace entry: ``source`` colored ``target`` in round ``timestep``
    by ``kind`` (:data:`DOMINATE` or :data:`FORCE`). A plain named tuple,
    so recording a trace stays cheap; it compares equal to the tuple of
    its fields."""

    timestep: int
    source: int
    target: int
    kind: str


# a Force from a 4-tuple, without the Python-level __new__: the engine
# records one per colored vertex
_force = partial(tuple.__new__, Force)


class PropagationTrace:
    """Chronological record of one propagation run.

    Every target appears exactly once and never lies in the initial set;
    all domination entries carry timestep 1 and forces come strictly later
    (or from 1 upward when there was no domination step). ``forces`` holds
    :class:`Force` tuples, one per vertex colored after the initial set.
    A trace the engine records builds both from its run (its colorings as
    flat round, source, target triples, whether round 1 was the domination
    step, and the colored flags) on first read, and keeps the run for
    :func:`trace_lines` and :meth:`rounds`. Frozen:
    its fields refuse assignment, and ``==`` and hash compare them.
    """

    _fields = ("initial", "forces", "final_colored")
    __slots__ = _fields + ("_run",)

    def __init__(self, initial: tuple[int, ...], forces: tuple[Force, ...],
                 final_colored: tuple[int, ...]) -> None:
        for name, value in zip(self.__slots__, (initial, forces, final_colored, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a PropagationTrace is frozen: cannot assign {name!r}")

    def __getattr__(self, name: str):
        """``forces`` and ``final_colored`` of a recorded trace, built once."""
        if name not in ("forces", "final_colored") or self._run is None:
            raise AttributeError(name)
        steps, dominate, colored = self._run
        kinds = (FORCE, DOMINATE if dominate else FORCE)  # by whether the round is 1
        triples = iter(steps)
        object.__setattr__(self, "forces", tuple(
            _force((t, v, w, kinds[t == 1])) for t, v, w in zip(triples, triples, triples)))
        object.__setattr__(self, "final_colored", tuple(compress(range(len(colored)), colored)))
        return getattr(self, name)

    _key = property(attrgetter(*_fields))

    def __eq__(self, other: object) -> bool:
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return "PropagationTrace(initial={!r}, forces={!r}, final_colored={!r})".format(*self._key)

    def __reduce__(self):  # copy and pickle remake it from its fields
        return PropagationTrace, self._key

    def rounds(self) -> int:
        """Last round that colored a vertex (at least 1)."""
        run = self._run
        if run is not None:  # the run lists its colorings by round
            return run[0][-3] if run[0] else 1
        return max(1, max((f.timestep for f in self.forces), default=1))


def _propagate(g: Graph, seeds: list[int], dominate: bool,
               limit: int | None = None, record: bool = False
               ) -> tuple[bytearray, int, list[int] | None, int]:
    """Color ``seeds``, apply the domination step if asked (round 1), then
    run synchronized forcing rounds from round 2 (1 without that step)
    until no force fires or round ``limit`` is done.

    Returns the colored flags, their number, with ``record`` each coloring
    after the seeds as round, source, target in one flat list (a target of
    the domination step credited to its least neighbor in ``seeds``), and
    the last round that colored a vertex (the round before forcing began if
    none did). Each colored vertex keeps the number and the XOR of its
    uncolored neighbors; the XOR names the only one once the number is 1.
    That number drops only when a neighbor gets colored, so each round
    rechecks only the vertices whose number reached 1 in the round before.
    """
    adj, n = g.adj, g.n
    colored = bytearray(n)
    left = [0] * n
    xor = [0] * n
    steps: list[int] | None = [] if record else None
    batch = list(seeds)
    if dominate:
        for v in seeds:
            colored[v] = 1
        for v in seeds:
            for w in adj[v]:
                if not colored[w]:
                    colored[w] = 1
                    batch.append(w)
                    if steps is not None:
                        steps += (1, v, w)
    total = 0
    t = 2 if dominate else 1
    last = t - 1
    while True:
        ready = []
        if total:
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
        total += len(batch)
        if not ready or total == n or limit is not None and t > limit:
            return colored, total, steps, last
        fired: dict[int, int] = {}  # target -> smallest source
        for v in ready:
            if left[v] == 1:
                w = xor[v]
                if fired.get(w, n) > v:
                    fired[w] = v
        if not fired:
            return colored, total, steps, last
        batch = sorted(fired)
        if steps is not None:
            for w in batch:
                steps += (t, fired[w], w)
        last = t
        t += 1


def _traced(g: Graph, s: Iterable[int], dominate: bool,
            limit: int | None = None) -> tuple[bool, PropagationTrace]:
    """Run :func:`_propagate` recording its colorings; returns whether every
    vertex got colored, and the run's trace, which builds its entries and
    final set on first read."""
    seeds = g._vertex_ids(s)
    colored, total, steps, _ = _propagate(g, seeds, dominate, limit, record=True)
    trace = PropagationTrace.__new__(PropagationTrace)
    object.__setattr__(trace, "initial", tuple(seeds))
    object.__setattr__(trace, "_run", (steps, dominate, colored))
    return total == g.n, trace


def dominate_step(g: Graph, s: Iterable[int]) -> PropagationTrace:
    """Apply the domination rule once: the trace colors the closed
    neighborhood of s, all of it in round 1."""
    return _traced(g, s, dominate=True, limit=1)[1]


def forcing_closure(g: Graph, colored: Iterable[int]) -> PropagationTrace:
    """Close ``colored`` under the forcing rule alone; the trace's forces
    run from round 1 and it has no domination entry."""
    return _traced(g, colored, dominate=False)[1]


def is_power_dominating(g: Graph, s: Iterable[int]) -> tuple[bool, PropagationTrace]:
    """Check rule 1 once plus rule 2 to exhaustion; the trace is always
    returned, on failure it records the partial run."""
    return _traced(g, s, dominate=True)


def is_zero_forcing(g: Graph, s: Iterable[int]) -> bool:
    """True iff forcing alone (no domination step) colors every vertex."""
    return _propagate(g, g._vertex_ids(s), dominate=False)[1] == g.n


def colors_within(g: Graph, s: Iterable[int], rounds: int) -> bool:
    """True iff s power dominates g in at most ``rounds`` rounds.

    With ``rounds = g.n`` this is the trace-free power domination check:
    n rounds always suffice for a non-empty set.
    """
    seeds = g._vertex_ids(s)
    if _count("rounds", rounds) < 1 or not seeds:
        return False
    return _propagate(g, seeds, dominate=True, limit=rounds)[1] == g.n


def _resume(nbr: list[int], closed: list[int], colored: int, active: int,
            t: int) -> tuple[int, int]:
    """Synchronized forcing rounds ``t``, ``t + 1``, ... from the mask
    ``colored``, on masks ``nbr[v]`` and ``closed[v] = nbr[v] | 1 << v``, until
    no force fires. Round ``t`` checks only ``active`` (no other colored vertex
    may have one uncolored neighbor), each later round the colored closed
    neighbors of the round's targets. A set's closure starts from what it
    colors at once, with ``active`` the same mask: N[S] from round 2 after the
    domination step, S from round 1 without it. Returns the uncolored mask, a
    fort when not empty, and the last round that colored a vertex."""
    uncolored = ((1 << len(nbr)) - 1) ^ colored
    last = t - 1
    while active and uncolored:
        targets = 0
        while active:
            low = active & -active
            left = nbr[low.bit_length() - 1] & uncolored
            if left and not left & (left - 1):
                targets |= left
            active ^= low
        if not targets:
            break
        uncolored ^= targets
        while targets:
            low = targets & -targets
            active |= closed[low.bit_length() - 1]
            targets ^= low
        active &= ~uncolored
        last, t = t, t + 1
    return uncolored, last


def ppt_of_set(g: Graph, s: Iterable[int]) -> int:
    """Power propagation time of a power dominating set (rounds to color V)."""
    _, total, _, last = _propagate(g, g._vertex_ids(s), dominate=True)
    if total != g.n:
        raise NotPowerDominatingError("set does not power dominate the graph")
    return last


def is_connected_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff s is nonempty and induces a connected subgraph."""
    ids = g._vertex_ids(s)
    left = bytearray(g.n)
    for v in ids:
        left[v] = 1
    return bool(ids) and len(g._search(ids[0], left)) == len(ids)


def trace_lines(g: Graph, trace: PropagationTrace) -> list[str]:
    """Line-oriented serialization: ``t=<k> <src> -> <tgt> [kind]``. A
    recorded trace prints straight from its run, built entries or not;
    given entries are printed after ``Graph._vertex_ids`` checks their ids."""
    labels = g.labels
    run = trace._run
    if run is None:
        entries = trace.forces
        g._vertex_ids([v for _, s, w, _ in entries for v in (s, w)])
        return [f"t={t} {labels[s]} -> {labels[w]} [{kind}]" for t, s, w, kind in entries]
    steps, dominate, _ = run
    kinds = (FORCE, DOMINATE if dominate else FORCE)  # by whether the round is 1
    triples = iter(steps)
    return [f"t={t} {labels[s]} -> {labels[w]} [{kinds[t == 1]}]"
            for t, s, w in zip(triples, triples, triples)]


def replay_trace(g: Graph, trace: PropagationTrace) -> int:
    """Check a trace against the engine's synchronized run from its initial
    set (with the domination step if the trace has a domination entry) and
    return the final colored mask. Raises PowerDomError on an entry that is
    not legal at its recorded timestep, and when a round before the trace's
    last one does not color exactly what the run colors in it: so a prefix
    of a run replays, its last round possibly cut short, a run with a gap
    does not, and any legal source is accepted. Runs in O(n + m).
    """
    seeds = g._vertex_ids(trace.initial)
    g._vertex_ids([v for f in trace.forces for v in (f.source, f.target)])
    when = [-1] * g.n  # the round the trace colors each vertex in, 0 for the initial set
    for v in seeds:
        when[v] = 0
    for t, _, w, kind in trace.forces:
        if kind not in (DOMINATE, FORCE):
            raise PowerDomError(f"unknown entry kind {kind!r}")
        if type(t) is not int or t < 1:
            raise PowerDomError(f"timestep {t!r} of target {w} is not an int of at least 1")
        if when[w] >= 0:
            raise PowerDomError(f"target {w} colored twice")
        when[w] = t
    last = max([f.timestep for f in trace.forces], default=0)
    dominate = any(f.kind == DOMINATE for f in trace.forces)
    steps = _propagate(g, seeds, dominate, last, record=True)[2]
    at = [0 if t == 0 else last + 1 for t in when]  # the round the run colors each vertex in
    triples = iter(steps)
    for t, _, w in zip(triples, triples, triples):
        at[w] = t
    for t, v, w, kind in trace.forces:
        if kind == DOMINATE:
            if t != 1 or when[v] != 0:
                raise PowerDomError("domination entry outside round 1")
            if not g.has_edge(v, w):
                raise PowerDomError("domination along a non-edge")
        elif at[v] >= t:
            raise PowerDomError(f"source {v} not colored at t={t}")
        # a target the run colors before t leaves a gap, refused below
        elif at[w] > t or at[w] == t and any(at[x] >= t for x in g.adj[v] if x != w):
            raise PowerDomError(f"source {v} cannot force {w} at t={t}")
    missed = [(at[w], w) for w in range(g.n) if 0 < at[w] < last and when[w] != at[w]]
    if missed:
        raise PowerDomError("round %d leaves %d uncolored, which synchronized propagation "
                            "colors in it" % min(missed))
    colored = bytes([t >= 0 for t in when])
    if set(trace.final_colored) != set(compress(range(g.n), colored)):
        raise PowerDomError("replay does not reproduce the recorded final set")
    return _mask_of(colored)
