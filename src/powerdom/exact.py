"""Exact solvers by explicit enumeration, plus the hardness gadget builder.

These are the oracles everything else is validated against. They search
level by level in ascending cardinality and return every optimum of the
first level that has one, with the lexicographically smallest as the
witness. Power domination, with or without a round limit, runs on a
fort-driven search that prunes with the forts its failed closures leave
behind. Exceeding the configured budget raises a typed error rather than
degrading to a heuristic.

The connected solvers exploit one structural fact: every connected power
dominating set of a non-path graph contains the mandatory set (r2 | r3 cut
vertices). Candidates are therefore grown outward from that set, which
enumerates exactly the connected supersets instead of filtering all 2^n
subsets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from . import propagation
from .decomposition import classify_cut_vertices
from .errors import (
    BudgetExceededError,
    DisconnectedError,
    GraphError,
    SolverInternalError,
)
from .graphs import Graph, attach_leaves, bits_of, fresh_label, iter_bits

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

    def check_size(self, g: Graph) -> None:
        if g.n > self.max_vertices:
            raise BudgetExceededError(
                f"graph has {g.n} vertices, budget allows {self.max_vertices}"
            )

    def deadline(self) -> float | None:
        if self.max_seconds is None:
            return None
        return time.perf_counter() + self.max_seconds


DEFAULT_BUDGET = Budget()


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceededError("time budget exhausted")


@dataclass(frozen=True)
class SolveResult:
    """Optimal set plus its certificate.

    The witness always verifies through the propagation engine and, for the
    enumeration methods, is the lexicographically smallest optimum.
    ``all_optima`` is populated only on request since it can be huge.
    """

    optimum: int
    witness: tuple[int, ...]
    trace: propagation.PropagationTrace
    method: str
    all_optima: tuple[tuple[int, ...], ...] | None = None

    def witness_labels(self, g: Graph) -> tuple[str, ...]:
        return g.labels_of(self.witness)


def certify(g: Graph, witness: Iterable[int], method: str, connected: bool,
            all_optima: tuple[tuple[int, ...], ...] | None = None) -> SolveResult:
    """Wrap a witness in a SolveResult after re-verifying it."""
    wit = tuple(sorted(witness))
    ok, trace = propagation.is_power_dominating(g, wit)
    if not ok:
        raise SolverInternalError(f"method {method} produced a non power dominating set")
    if connected and not propagation.is_connected_set(g, wit):
        raise SolverInternalError(f"method {method} produced a disconnected set")
    return SolveResult(len(wit), wit, trace, method, all_optima)


# -- candidate enumeration ------------------------------------------------


def _connected_supersets(g: Graph, seed: int, size: int, banned: int,
                         deadline: float | None) -> list[int]:
    """All sets of ``size`` vertices reachable from ``seed`` by repeatedly
    adding a neighbor of the current set, each emitted exactly once.

    Depth first with an explicit stack: a node's children add its
    unblocked frontier vertices in ascending order, and each child blocks
    the vertices of its earlier siblings."""
    out: list[int] = []
    nbr = g.nbr_bits
    if seed.bit_count() > size:
        return out
    reach0 = 0
    for v in iter_bits(seed):
        reach0 |= nbr[v]
    stack = [(seed, reach0, banned)]
    calls = 0
    while stack:
        calls += 1
        if calls & 0xFFF == 0:
            _check_deadline(deadline)
        cur, reach, blocked = stack.pop()
        if cur.bit_count() == size:
            out.append(cur)
            continue
        cand = reach & ~cur & ~blocked
        for v in reversed(list(iter_bits(cand))):
            low = 1 << v
            stack.append((cur | low, reach | nbr[v], blocked | (cand & (low - 1))))
    return out


def _level_candidates(g: Graph, seed_mask: int, size: int,
                      deadline: float | None) -> list[int]:
    """Size-``size`` connected-growth candidates; with an empty seed the
    enumeration runs once per smallest contained vertex."""
    if seed_mask:
        return _connected_supersets(g, seed_mask, size, 0, deadline)
    out: list[int] = []
    banned = 0
    for v in range(g.n):
        low = 1 << v
        out.extend(_connected_supersets(g, low, size, banned, deadline))
        banned |= low
    return out


def _sorted_sets(masks: Iterable[int]) -> list[tuple[int, ...]]:
    return sorted(tuple(iter_bits(m)) for m in masks)


# -- solvers ---------------------------------------------------------------


def _min_coloring(g: Graph, rounds: int, budget: Budget, all_optima: bool) -> SolveResult:
    """Smallest sets that color ``g`` within ``rounds`` rounds, by a
    fort-driven search over the levels k = 1, 2, ...

    A fort is a non-empty vertex set that no outside vertex has exactly one
    neighbor in. A set colors ``g`` only if its closed neighborhood meets
    every fort, and a failed closure leaves a fort uncolored. The search
    keeps the forts it learns across levels, each as the mask of its
    hitters (the vertices whose closed neighborhood meets it). A node is a
    chosen set and a banned set. It branches on the unbanned hitters of
    the missed fort with the fewest of them, in ascending order, banning
    each hitter after its branch, so every k-set is reached at most once.
    When every learned fort is hit, one closure either yields a new fort
    to branch on, an optimum (k vertices that color ``g`` within
    ``rounds``), or, for a smaller set that colors ``g`` too slowly,
    branches on every unbanned vertex. Every optimum of the first level
    that has one is found, and they are returned sorted.
    """
    budget.check_size(g)
    deadline = budget.deadline()
    closed = [bits_of(row) | 1 << v for v, row in enumerate(g.adj)]
    everyone = g.full_mask
    hitters: list[int] = []
    for k in range(1, g.n + 1):
        found: list[int] = []
        stack = [(0, 0, 0)]  # chosen, banned, number chosen
        while stack:
            _check_deadline(deadline)
            chosen, banned, size = stack.pop()
            branch = -1
            fewest = g.n + 1
            for hit in hitters:
                if not hit & chosen:
                    free = hit & ~banned
                    count = free.bit_count()
                    if count < fewest:
                        branch, fewest = free, count
                        if count <= 1:
                            break
            if branch < 0:
                gap, last = propagation._uncolored(g, chosen)
                if gap:
                    hit = 0
                    for v in iter_bits(gap):
                        hit |= closed[v]
                    hitters.append(hit)
                    branch = hit & ~banned
                elif size == k:
                    if last <= rounds:
                        found.append(chosen)
                    continue
                else:
                    branch = everyone & ~chosen & ~banned
            if size == k:
                continue
            for v in reversed(list(iter_bits(branch))):
                low = 1 << v
                stack.append((chosen | low, banned | (branch & (low - 1)), size + 1))
        if found:
            optima = _sorted_sets(found)
            return certify(g, optima[0], METHOD_BRUTE, connected=False,
                           all_optima=tuple(optima) if all_optima else None)
    raise SolverInternalError("no set colors the graph (unreachable)")


def min_pds(g: Graph, budget: Budget = DEFAULT_BUDGET, all_optima: bool = False) -> SolveResult:
    """Minimum power dominating set by cardinality-ascending enumeration."""
    if not g.is_connected():
        raise DisconnectedError("minimum power dominating set requires a connected graph")
    return _min_coloring(g, g.n, budget, all_optima)


def _min_connected(g: Graph, seed_mask: int, budget: Budget,
                   all_optima: bool, method: str) -> SolveResult:
    budget.check_size(g)
    deadline = budget.deadline()
    start = max(1, seed_mask.bit_count())
    for k in range(start, g.n + 1):
        feasible: list[int] = []
        for mask in _level_candidates(g, seed_mask, k, deadline):
            _check_deadline(deadline)
            if not g.is_connected_mask(mask):
                continue
            if propagation.colors_within(g, mask, g.n):
                feasible.append(mask)
        if feasible:
            optima = _sorted_sets(feasible)
            return certify(g, optima[0], method, connected=True,
                           all_optima=tuple(optima) if all_optima else None)
    raise SolverInternalError("no connected power dominating set found (unreachable)")


def min_cpds(g: Graph, budget: Budget = DEFAULT_BUDGET, all_optima: bool = False,
             seeded: bool = True) -> SolveResult:
    """Minimum connected power dominating set.

    ``seeded=False`` disables the mandatory-set pruning and enumerates all
    connected sets; that mode exists so tests can validate the pruning
    itself.
    """
    if not g.is_connected():
        raise DisconnectedError("a disconnected graph has no connected power dominating set")
    seed = classify_cut_vertices(g).mandatory_mask if seeded else 0
    return _min_connected(g, seed, budget, all_optima, METHOD_BRUTE)


def min_cpds_subject_to(g: Graph, x: Iterable[int], budget: Budget = DEFAULT_BUDGET,
                        all_optima: bool = False) -> SolveResult:
    """Minimum connected power dominating set containing all of ``x``."""
    if not g.is_connected():
        raise DisconnectedError("a disconnected graph has no connected power dominating set")
    x_mask = bits_of(x)
    if x_mask >> g.n:
        raise GraphError("constraint set is not a subset of the vertices")
    seed = x_mask | classify_cut_vertices(g).mandatory_mask
    return _min_connected(g, seed, budget, all_optima, METHOD_BRUTE)


def l_round_pd(g: Graph, rounds: int, budget: Budget = DEFAULT_BUDGET,
               all_optima: bool = False) -> SolveResult:
    """Minimum set that power dominates within the given number of rounds."""
    if rounds < 1:
        raise GraphError("round budget must be at least 1")
    if not g.is_connected():
        raise DisconnectedError("round-limited power domination requires a connected graph")
    return _min_coloring(g, rounds, budget, all_optima)


def ppt(g: Graph, budget: Budget = DEFAULT_BUDGET, connected: bool = False) -> int:
    """Minimum propagation time over all minimum (connected) power
    dominating sets."""
    base = min_cpds(g, budget, all_optima=True) if connected \
        else min_pds(g, budget, all_optima=True)
    return fastest_optimum(g, base)


def fastest_optimum(g: Graph, base: SolveResult) -> int:
    """Minimum propagation time over ``base.all_optima``."""
    assert base.all_optima is not None
    return min(propagation.ppt_of_set(g, s) for s in base.all_optima)


def min_zero_forcing(g: Graph, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum zero forcing set (forcing rule only, works on disconnected
    graphs too)."""
    budget.check_size(g)
    deadline = budget.deadline()
    for k in range(0, g.n + 1):
        for combo in combinations(range(g.n), k):
            _check_deadline(deadline)
            if propagation.is_zero_forcing(g, combo):
                state, forces = propagation.forcing_closure(g, combo)
                trace = propagation.PropagationTrace(combo, forces, state.vertices())
                return SolveResult(k, combo, trace, METHOD_BRUTE)
    raise SolverInternalError("no zero forcing set found (unreachable)")


def zf_to_cpd_gadget(g: Graph, k: int) -> tuple[Graph, int]:
    """Expand a zero-forcing instance (g, k) into a connected power
    domination instance (g', k + 1).

    For each original vertex the expansion adds a probe vertex wired to two
    disjoint paths of length n, one capped by a private leaf, both funneled
    into a hub vertex that also carries two leaves of its own. The hub plus
    its funnel ends are the only vertices a small connected solution can
    use, which is what ties the two problems together.
    """
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
