"""Exact solvers by explicit search, plus the hardness gadget builder.

These are the oracles everything else is validated against, the integer
programming validator included. They search level by level in ascending
cardinality and return every optimum of the first level that has one, the
least propagation time over them, and the lexicographically smallest as
the witness. Power domination, with or without a round limit, and zero
forcing run on one fort-driven search. It
shrinks each fort a failed closure leaves behind to a minimal fort, prunes
with the forts it has learned, cuts a node when a packing of disjoint
missed forts needs more vertices than the level has left, and reads the
propagation time of each optimum off the closure that accepts it.
Exceeding the configured budget raises a typed error rather than degrading
to a heuristic. Every result of every solver is made by :func:`certify`,
which re-verifies the witness, or replays the trace it is given, first.

The connected solvers, with or without a round limit, exploit one
structural fact: every connected power dominating set of a non-path graph
contains the mandatory set (r2 | r3 cut vertices). They run one
depth-first search that grows sets outward from that set, one neighbor at
a time, instead of filtering all 2^n subsets, and test each grown set
where the search reaches it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable

from . import propagation
from .decomposition import connected_profile
from .errors import BudgetExceededError, GraphError, PowerDomError, SolverInternalError
from .graphs import Graph, _count, attach_leaves, bits_of, fresh_label, iter_bits

METHOD_BRUTE = "brute"
METHOD_TREE = "tree"
METHOD_BLOCK = "block"
METHOD_CACTUS = "cactus"
METHOD_DECOMPOSITION = "decomposition"
METHOD_MILP = "milp"


@dataclass(frozen=True)
class Budget:
    """Hard ceilings for the enumeration oracles."""

    max_vertices: int = 24
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        n, s = self.max_vertices, self.max_seconds
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise PowerDomError(f"Budget max_vertices must be an int >= 0, not {n!r}")
        if s is not None and (isinstance(s, bool) or not isinstance(s, (int, float))
                              or not s >= 0):  # nan >= 0 is False
            raise PowerDomError(f"Budget max_seconds must be None or a number >= 0, not {s!r}")

    def check_size(self, n: int) -> None:
        if n > self.max_vertices:
            raise BudgetExceededError(
                f"graph has {n} vertices, budget allows {self.max_vertices}"
            )

    def deadline(self) -> float | None:
        if self.max_seconds is None:
            return None
        return time.perf_counter() + self.max_seconds

    def until(self, deadline: float | None) -> "Budget":
        """This budget with only the time left before ``deadline``, so that
        several searches share one deadline; raises once it has passed."""
        if deadline is None:
            return self
        left = deadline - time.perf_counter()
        if left < 0:
            raise BudgetExceededError("time budget exhausted")
        return replace(self, max_seconds=left)


DEFAULT_BUDGET = Budget()


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceededError("time budget exhausted")


@dataclass(frozen=True)
class SolveResult:
    """Optimal set plus its certificate.

    The witness always verifies through the propagation engine, whose run
    is the ``trace`` (entries built on first read), and, for the
    enumeration methods, is the lexicographically smallest optimum. The
    exact searches also set ``all_optima``, every optimum in sorted order,
    and ``ppt``, the least propagation time over them (for zero forcing,
    the least last round of their forcing closures); the structural and
    milp methods leave both ``None``.
    """

    optimum: int
    witness: tuple[int, ...]
    trace: propagation.PropagationTrace
    method: str
    all_optima: tuple[tuple[int, ...], ...] | None = None
    ppt: int | None = None

    def witness_labels(self, g: Graph) -> tuple[str, ...]:
        return g.labels_of(self.witness)


def certify(g: Graph, witness: Iterable[int], method: str, connected: bool,
            optima: tuple[tuple[int, ...], ...] | None = None, ppt: int | None = None,
            trace: propagation.PropagationTrace | None = None) -> SolveResult:
    """Wrap a witness in a SolveResult after re-verifying it; the only
    place a SolveResult is made. A given ``trace`` (a decoded schedule, a
    forcing closure) must start from the witness and replay to every
    vertex; without one the witness must power dominate, and its run
    becomes the trace."""
    wit = tuple(sorted(witness))
    if trace is None:
        ok, trace = propagation.is_power_dominating(g, wit)
    else:
        ok = trace.initial == wit and propagation.replay_trace(g, trace) == g.full_mask
    if not ok:
        raise SolverInternalError(f"method {method} produced a non power dominating set")
    if connected and not propagation.is_connected_set(g, wit):
        raise SolverInternalError(f"method {method} produced a disconnected set")
    return SolveResult(len(wit), wit, trace, method, optima, ppt)


def _sorted_sets(masks: Iterable[int]) -> list[tuple[int, ...]]:
    return sorted(tuple(iter_bits(m)) for m in masks)


def _minimal_fort(nbr: list[int], closed: list[int], fort: int, deadline: float | None) -> int:
    """A minimal fort inside the fort ``fort``.

    The forcing closure of a set leaves uncolored the union of the forts it
    misses. So for each vertex v of the fort in ascending order that is
    still in it, the closure of the vertices outside it plus v leaves the
    union of the forts inside it without v; when that is not empty it
    becomes the fort. Afterwards no vertex can be left out, so the fort is
    minimal. Each closure resumes from the stalled coloring outside the
    fort and first checks only v's colored closed neighbors, not all of V.
    """
    everyone = (1 << len(nbr)) - 1
    for v in iter_bits(fort):
        if fort >> v & 1:
            _check_deadline(deadline)
            colored = (everyone ^ fort) | 1 << v
            rest, _ = propagation._resume(nbr, closed, colored, closed[v] & colored, 1)
            if rest:
                fort = rest
    return fort


def _packs_more_than(free: list[int], room: int) -> bool:
    """True when more than ``room`` of the hitter masks ``free`` are
    pairwise disjoint, taking them greedily, fewest hitters first."""
    taken = count = 0
    for hit in sorted(free, key=int.bit_count):
        if not hit & taken:
            count += 1
            if count > room:
                return True
            taken |= hit
    return False


def _min_coloring(g: Graph, rounds: int, budget: Budget, forcing: bool = False) -> SolveResult:
    """Smallest sets that color ``g`` within ``rounds`` rounds, by a
    fort-driven search over the levels k = 1, 2, ...

    A fort is a non-empty vertex set that no outside vertex has exactly one
    neighbor in. A set colors ``g`` only if its closed neighborhood meets
    every fort, and a failed closure leaves a fort uncolored. The search
    shrinks that fort to a minimal one (:func:`_minimal_fort`) and keeps
    the forts it learns across levels, each as the mask of its hitters
    (the vertices whose closed neighborhood meets it). A node is a chosen
    set and a banned set. When more forts are missed than the level has
    vertices left, and a greedy packing of missed forts whose unbanned
    hitters are pairwise disjoint needs more than that, the node is cut:
    every completion needs a new vertex for each of them. Otherwise it
    branches on the unbanned hitters of the missed fort with the fewest of
    them, in ascending order, banning each hitter after its branch, so
    every k-set is reached at most once. When every learned fort is hit,
    one closure on the neighbor masks either yields a new fort to branch
    on, an optimum (k vertices that color ``g`` within ``rounds``), or, for
    a smaller set that colors ``g`` too slowly, branches on every unbanned
    vertex. Every optimum of the first level that has one is found, and
    they are returned sorted, with the least last round of the closures
    that accepted them as the result's ``ppt``.

    With ``forcing`` set the search finds zero forcing sets: the closure
    skips the domination step, and a set is zero forcing exactly when it
    meets every fort, so each fort's hitters are the fort itself.
    """
    if _count("rounds", rounds) < 1:
        raise GraphError("round budget must be at least 1")
    if not forcing:
        connected_profile(g)
    budget.check_size(g.n)
    deadline = budget.deadline()
    closure = propagation._unforced if forcing else propagation._uncolored
    nbr = [bits_of(row) for row in g.adj]
    closed = [m | 1 << v for v, m in enumerate(nbr)]
    everyone = g.full_mask
    hitters: list[int] = []
    for k in range(1, g.n + 1):
        found: list[tuple[int, int]] = []  # last round, chosen
        stack = [(0, 0, 0)]  # chosen, banned, number chosen
        while stack:
            _check_deadline(deadline)
            chosen, banned, size = stack.pop()
            missed = [hit & ~banned for hit in hitters if not hit & chosen]
            if missed:
                if len(missed) > k - size and _packs_more_than(missed, k - size):
                    continue
                branch = min(missed, key=int.bit_count)
            else:
                gap, last = closure(nbr, closed, chosen)
                if gap:
                    hit = _minimal_fort(nbr, closed, gap, deadline)
                    if not forcing:
                        for v in iter_bits(hit):
                            hit |= closed[v]
                    hitters.append(hit)
                    branch = hit & ~banned
                elif size == k:
                    if last <= rounds:
                        found.append((last, chosen))
                    continue
                else:
                    branch = everyone & ~chosen & ~banned
            if size == k:
                continue
            for v in reversed(list(iter_bits(branch))):
                low = 1 << v
                stack.append((chosen | low, banned | (branch & (low - 1)), size + 1))
        if found:
            optima = _sorted_sets(s for _, s in found)
            # every zero forcing set power dominates, so only its forcing
            # closure certifies it; a closure that forces nothing still
            # counts round 1, as its trace does
            return certify(g, optima[0], METHOD_BRUTE, connected=False,
                           optima=tuple(optima), ppt=max(1, min(found)[0]),
                           trace=propagation.forcing_closure(g, optima[0]) if forcing else None)
    raise SolverInternalError("no set colors the graph (unreachable)")


def min_pds(g: Graph, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum power dominating set by cardinality-ascending enumeration."""
    return _min_coloring(g, g.n, budget)


def _connected(nbr: list[int], mask: int) -> bool:
    """Is ``mask`` non-empty and connected in the graph of neighbor masks ``nbr``?"""
    reach = frontier = mask & -mask
    while frontier:
        for v in iter_bits(frontier):
            frontier |= nbr[v]
        frontier &= mask & ~reach
        reach |= frontier
    return mask != 0 and reach == mask


def _grow(nbr: list[int], seed: int, rounds: int,
          deadline: float | None) -> tuple[list[tuple[int, ...]], int]:
    """The sorted smallest connected sets that contain the mask ``seed``
    and color the graph with neighbor masks ``nbr`` (all it reads) within
    ``rounds`` rounds, and their least last round, by a growth search over
    the levels k = |seed|, |seed| + 1, ... (from 1 when the seed is empty).

    A node is a chosen set, the union of its members' neighborhoods, a
    banned set and the number chosen. It branches on the unbanned neighbors
    of the chosen set (on every vertex at the empty root) in ascending
    order, banning each after its branch, so every k-set grown from the
    seed is reached exactly once. A k-set is tested where the search
    reaches it: a disconnected seed can grow into a disconnected set, so
    connectivity first (:func:`_connected`), then one closure on neighbor
    masks that stops after round ``rounds``. Every optimum of the first
    level that has one is found.
    """
    closed = [m | 1 << v for v, m in enumerate(nbr)]
    seed_reach = 0
    for v in iter_bits(seed):
        seed_reach |= nbr[v]
    everyone = (1 << len(nbr)) - 1
    start = seed.bit_count()
    for k in range(max(1, start), len(nbr) + 1):
        found: list[tuple[int, int]] = []  # last round, chosen
        stack = [(seed, seed_reach, 0, start)]  # chosen, reach, banned, number chosen
        while stack:
            _check_deadline(deadline)
            chosen, reach, banned, size = stack.pop()
            if size == k:
                if _connected(nbr, chosen):
                    gap, last = propagation._uncolored(nbr, closed, chosen, rounds)
                    if not gap:
                        found.append((last, chosen))
                continue
            branch = (reach if chosen else everyone) & ~chosen & ~banned
            for v in reversed(list(iter_bits(branch))):
                low = 1 << v
                stack.append((chosen | low, reach | nbr[v], banned | (branch & (low - 1)),
                              size + 1))
        if found:
            return _sorted_sets(s for _, s in found), min(found)[0]
    raise SolverInternalError("no connected power dominating set found (unreachable)")


def _min_connected(g: Graph, x: Iterable[int], rounds: int, budget: Budget) -> SolveResult:
    """Smallest connected sets that contain ``x`` and color ``g`` within
    ``rounds`` rounds, by :func:`_grow` from ``x`` plus the mandatory set,
    which every connected power dominating set of a non-path graph
    contains. They are returned sorted, with the least last round of the
    closures that accepted them as the result's ``ppt``.
    """
    if _count("rounds", rounds) < 1:
        raise GraphError("round budget must be at least 1")
    info = connected_profile(g)
    x = g._vertex_ids(x)
    budget.check_size(g.n)
    seed = bits_of(x) | bits_of(info.taxonomy.mandatory)
    optima, last = _grow([bits_of(row) for row in g.adj], seed, rounds, budget.deadline())
    return certify(g, optima[0], METHOD_BRUTE, connected=True, optima=tuple(optima), ppt=last)


def min_cpds(g: Graph, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum connected power dominating set."""
    return _min_connected(g, (), g.n, budget)


def min_cpds_subject_to(g: Graph, x: Iterable[int],
                        budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum connected power dominating set containing all of ``x``."""
    return _min_connected(g, x, g.n, budget)


def l_round_pd(g: Graph, rounds: int, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum set that power dominates within the given number of rounds."""
    return _min_coloring(g, rounds, budget)


def l_round_cpd(g: Graph, rounds: int, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum connected set that power dominates within the given number
    of rounds."""
    return _min_connected(g, (), rounds, budget)


def ppt(g: Graph, budget: Budget = DEFAULT_BUDGET, connected: bool = False) -> int:
    """Minimum propagation time over all minimum (connected) power
    dominating sets."""
    return (min_cpds if connected else min_pds)(g, budget).ppt


def min_zero_forcing(g: Graph, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum zero forcing set (forcing rule only, works on disconnected
    graphs too): the lexicographically smallest optimum of the fort search,
    with the trace of its forcing closure."""
    return _min_coloring(g, g.n, budget, forcing=True)


def zf_to_cpd_gadget(g: Graph, k: int) -> tuple[Graph, int]:
    """Expand a zero-forcing instance (g, k) into a connected power
    domination instance (g', k + 1).

    For each original vertex the expansion adds a probe vertex wired to two
    disjoint paths of length n, one capped by a private leaf, both funneled
    into a hub vertex that also carries two leaves of its own. The hub plus
    its funnel ends are the only vertices a small connected solution can
    use, which is what ties the two problems together.
    """
    if _count("k", k) < 0:
        raise GraphError(f"zero forcing bound must be at least 0, got {k}")
    n = g.n
    labels = list(g.labels)
    taken = set(labels)
    edges = list(g.edges())

    def add(stem: str) -> int:
        label = fresh_label(taken, stem)
        taken.add(label)
        labels.append(label)
        return len(labels) - 1

    hub = add("hub")
    hub_leaf1 = add("hubleaf1")
    hub_leaf2 = add("hubleaf2")
    edges += [(hub, hub_leaf1), (hub, hub_leaf2)]
    for i in range(n):
        probe = add(f"probe{i + 1}")
        cap = add(f"cap{i + 1}")
        p_chain = [add(f"pa{i + 1}_{j + 1}") for j in range(n)]
        q_chain = [add(f"qa{i + 1}_{j + 1}") for j in range(n)]
        edges.append((i, probe))
        edges.append((p_chain[0], probe))
        edges.append((q_chain[0], probe))
        edges.append((p_chain[n - 1], cap))
        edges.append((p_chain[n - 1], hub))
        edges.append((q_chain[n - 1], hub))
        edges += [(p_chain[j], p_chain[j + 1]) for j in range(n - 1)]
        edges += [(q_chain[j], q_chain[j + 1]) for j in range(n - 1)]
    return Graph(labels, edges), k + 1


def l3_equivalent(g: Graph, x: Iterable[int]) -> Graph:
    """Attach three leaves to every vertex of ``x``; the minimum connected
    power dominating sets of the result are exactly the minimum connected
    power dominating sets of ``g`` containing ``x``."""
    return attach_leaves(g, x, 3)
