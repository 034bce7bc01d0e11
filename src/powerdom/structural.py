"""Fast solvers for structured graph classes and the cut-vertex split.

For trees and block graphs the mandatory set (plus a single vertex in the
degenerate cases) is already an optimal connected power dominating set.
For cactus graphs the optimum is the whole vertex set minus all pendant
paths and, per cycle, minus one largest excludable segment. For arbitrary
graphs with a cut vertex, the problem splits over the nontrivial blocks:
cliques, bridges and cycles are solved in place by the rules above, and
every other block, with its pendant paths, by the exact search for the
smallest solution containing the block's mandatory vertices.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from . import exact
from .decomposition import (CutVertexTaxonomy, blocks, connected_profile, cycle_order,
                            profile, recognize)
from .errors import DecompositionError, GraphClassError, GraphError
from .exact import Budget, DEFAULT_BUDGET, SolveResult, certify
from .graphs import Graph


def tree_cpds(g: Graph) -> SolveResult:
    """Optimal connected power dominating set of a tree.

    Paths need a single vertex; any other tree has the mandatory set as its
    unique optimum.
    """
    info = connected_profile(g)
    if not info.graph_class.tree:
        raise GraphClassError("input is not a tree")
    if info.graph_class.path:
        return certify(g, (0,), exact.METHOD_TREE, connected=True)
    return certify(g, info.taxonomy.mandatory, exact.METHOD_TREE, connected=True)


def tree_pd_equals_cpd(g: Graph) -> bool:
    """Does the tree have equal power domination and connected power
    domination numbers?

    True exactly for paths and for trees in which every degree-2 vertex
    lies on a pendant path and every vertex of degree >= 3 has at least two
    pendant paths attached.
    """
    info = connected_profile(g)
    if not info.graph_class.tree:
        raise GraphClassError("input is not a tree")
    if info.graph_class.path:
        return True
    taxonomy = info.taxonomy
    for v in range(g.n):
        d = g.degree(v)
        if d == 2 and taxonomy.pendant_count[v] != 1:
            return False
        if d >= 3 and taxonomy.pendant_count[v] < 2:
            return False
    return True


def block_graph_cpds(g: Graph) -> SolveResult:
    """Optimal connected power dominating set of a block graph."""
    info = connected_profile(g)
    if not info.graph_class.block_graph:
        raise GraphClassError("input is not a block graph")
    if info.taxonomy.mandatory:
        return certify(g, info.taxonomy.mandatory, exact.METHOD_BLOCK, connected=True)
    big = [blk for blk in info.decomposition.blocks if len(blk) >= 3]
    # no mandatory vertices: either a path, or one clique wearing pendant paths
    witness = (min(big[0]),) if big else (0,)
    return certify(g, witness, exact.METHOD_BLOCK, connected=True)


@dataclass(frozen=True)
class Segment:
    """Open run of consecutive cycle vertices between two anchor positions.

    ``interior`` lists the vertices strictly between ``start`` and ``end``
    in traversal order; a segment anchored at a single vertex covers the
    whole cycle except that vertex.
    """

    cycle: tuple[int, ...]
    start: int
    end: int
    interior: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.interior)


@dataclass(frozen=True)
class FeasibleSegmentFamily:
    """Maximal excludable segments of one cycle block, grouped by how many
    cut vertices they swallow (zero, one in class r1, or two adjacent in
    class r1)."""

    zero_cut: tuple[Segment, ...]
    one_cut: tuple[Segment, ...]
    two_cut: tuple[Segment, ...]
    max_size: int
    best: Segment


def _arc(cycle: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Positions strictly between a and b walking forward; a == b wraps to
    everything except that position."""
    return cycle[a + 1:b] if a < b else cycle[a + 1:] + cycle[:b]


def _spans(cycle: tuple[int, ...], taxonomy: CutVertexTaxonomy) -> list[tuple[int, int, int]]:
    """Every excludable segment of one cycle as (level, a, b): the positions
    strictly between anchor positions a and b (all but a when a == b), which
    swallow ``level`` cut vertices, each of class r1 (two must be adjacent)."""
    cut_set, r1_set = taxonomy.cut_set, taxonomy.r1_set
    pos = [i for i, v in enumerate(cycle) if v in cut_set]
    k, size = len(pos), len(cycle)
    if k == 0:
        raise GraphError("cycle block has no cut vertex")
    ring = pos * 3  # ring[i + j] is the j-th anchor position after the i-th
    spans = [(0, ring[i], ring[i + 1]) for i in range(k)]
    if k >= 2:
        spans += [(1, ring[i], ring[i + 2]) for i in range(k) if cycle[ring[i + 1]] in r1_set]
    if k >= 3:
        spans += [(2, ring[i], ring[i + 3]) for i in range(k)
                  if cycle[ring[i + 1]] in r1_set and cycle[ring[i + 2]] in r1_set
                  and (ring[i + 1] + 1) % size == ring[i + 2]]
    return spans


def feasible_segments(
    g: Graph, cycle: Sequence[int], taxonomy: CutVertexTaxonomy
) -> FeasibleSegmentFamily:
    """Candidate segment families for one cycle block with >= 1 cut vertex.

    One walk in the stored orientation finds every segment; the reverse
    walk would find the same vertex sets, so the maximum does not depend
    on the orientation. Segments are merged by vertex set, since adjacent
    cut vertices yield several empty ones.
    """
    cycle = tuple(cycle)
    size = len(cycle)
    for i, v in enumerate(cycle):
        if not g.has_edge(v, cycle[(i + 1) % size]):
            raise GraphError("vertex list is not a cycle in traversal order")
    families: list[dict[frozenset[int], Segment]] = [{}, {}, {}]
    for level, a, b in _spans(cycle, taxonomy):
        seg = Segment(cycle, cycle[a], cycle[b], _arc(cycle, a, b))
        families[level].setdefault(frozenset(seg.interior), seg)
    groups = tuple(tuple(sorted(fam.values(), key=lambda s: s.interior)) for fam in families)
    every = [seg for fam in groups for seg in fam]
    max_size = max(seg.size for seg in every)
    # among maximum segments prefer the one avoiding small vertex ids,
    # which lexicographically minimizes the complementary solution set
    best = max((seg for seg in every if seg.size == max_size), key=lambda s: sorted(s.interior))
    return FeasibleSegmentFamily(groups[0], groups[1], groups[2], max_size, best)


def _largest_segment(cycle: tuple[int, ...], taxonomy: CutVertexTaxonomy) -> tuple[int, ...]:
    """A largest excludable segment, tie broken as in :func:`feasible_segments`."""
    size = len(cycle)
    spans = _spans(cycle, taxonomy)
    most = max((b - a - 1) % size for _, a, b in spans)
    return max((_arc(cycle, a, b) for _, a, b in spans if (b - a - 1) % size == most), key=sorted)


def cactus_cpds(g: Graph) -> SolveResult:
    """Optimal connected power dominating set of a cactus graph.

    Keep every vertex except the pendant paths and, in each cycle, one
    largest excludable segment; pure paths and pure cycles need just one
    vertex.
    """
    info = connected_profile(g)
    if not info.graph_class.cactus:
        raise GraphClassError("input is not a cactus graph")
    if info.graph_class.path or info.graph_class.cycle:
        return certify(g, (0,), exact.METHOD_CACTUS, connected=True)
    taxonomy = info.taxonomy
    excluded = {v for _, chain in taxonomy.pendant_paths for v in chain}
    for blk in info.decomposition.blocks:
        if len(blk) >= 3:
            excluded.update(_largest_segment(cycle_order(g, blk), taxonomy))
    witness = [v for v in range(g.n) if v not in excluded]
    return certify(g, witness, exact.METHOD_CACTUS, connected=True)


Piece = tuple[tuple[int, ...], list[int], tuple[tuple[int, ...], ...]]
"""One nontrivial block with its pendant paths, as (core, vertices, rows):
the block's vertices, the piece's sorted global vertex ids, and its rows
over local ids (local id i is ``vertices[i]``); the decomposition builds
one for each block that is not a clique, a bridge or a cycle."""


def _piece(g: Graph, blk: tuple[int, ...], taxonomy: CutVertexTaxonomy) -> Piece:
    """The :data:`Piece` of one block of ``g``."""
    verts = set(blk)
    for v in blk:
        for chain in taxonomy.attached.get(v, ()):
            verts.update(chain)
    vertices = sorted(verts)
    return blk, vertices, g._induced_rows(vertices)[0]


def nontrivial_block_subgraphs(g: Graph) -> list[Piece]:
    """Each nontrivial block together with the pendant paths attached to its
    vertices, as a :data:`Piece`; no graph is built."""
    info = connected_profile(g)
    dec = info.decomposition
    return [_piece(g, blk, info.taxonomy) for blk, trivial in zip(dec.blocks, dec.trivial)
            if not trivial]


def decompose_cpds(g: Graph, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Split the problem over nontrivial blocks and recombine.

    Each nontrivial block (with its pendant paths) is solved subject to the
    mandatory vertices it contains (its anchors), the witnesses are
    unioned, and the double-counted anchors are discounted. A clique or
    bridge needs its anchors (its least vertex when it has none), and a
    cycle of 4 or more vertices all but one largest excludable segment;
    only the graph's sole nontrivial block can lack an anchor. Any other
    block is a :data:`Piece`, and each distinct one (the same rows and
    anchors) gets one graph and one :func:`exact.min_cpds_subject_to`
    search, which checks the vertex budget at the piece's own size. One
    time budget covers every piece. The recombined witness is re-certified;
    an inconsistent recombination raises instead of returning a wrong answer.
    """
    info = profile(g)
    if not info.connected:
        raise GraphClassError("decomposition requires a connected graph")
    dec, taxonomy = info.decomposition, info.taxonomy
    if not dec.cut_vertices:
        raise GraphClassError("decomposition requires at least one cut vertex")
    if info.graph_class.path:
        raise GraphClassError("decomposition does not apply to paths")
    deadline = budget.deadline()
    mandatory = set(taxonomy.mandatory)
    membership = {v: 0 for v in mandatory}
    total = 0
    union: set[int] = set()
    # (rows, anchors) fix a piece's search, which reads no labels
    solved: dict[tuple, tuple[int, ...]] = {}
    for blk, edges, trivial in zip(dec.blocks, dec.edges, dec.trivial):
        if trivial:
            continue
        inside = [v for v in blk if v in mandatory]
        for v in inside:
            membership[v] += 1
        if edges == len(blk) * (len(blk) - 1) // 2:  # a clique or a bridge
            witness = inside or blk[:1]
        elif edges == len(blk):  # a cycle of 4 or more vertices
            witness = set(blk).difference(_largest_segment(cycle_order(g, blk), taxonomy))
        else:
            _, vertices, rows = _piece(g, blk, taxonomy)
            anchors = tuple(bisect_left(vertices, v) for v in inside)
            key = (rows, anchors)
            local = solved.get(key)
            if local is None:
                sub = Graph._from_rows(g.labels_of(vertices), rows)
                local = solved[key] = exact.min_cpds_subject_to(
                    sub, anchors, budget.until(deadline)).witness
            witness = [vertices[v] for v in local]
        union.update(witness)
        total += len(witness)
    overlap = sum(membership[v] - 1 for v in mandatory)
    optimum = total - overlap
    # vertices of the mandatory set lying in no nontrivial block occur only
    # when the whole graph is one hub with pendant paths; the hub itself is
    # then the solution piece the block sum cannot see
    union.update(v for v in mandatory if membership[v] == 0)
    if len(union) != optimum:
        raise DecompositionError(
            f"recombined witness has {len(union)} vertices, formula says {optimum}"
        )
    return certify(g, union, exact.METHOD_DECOMPOSITION, connected=True)


def solve_cpds(g: Graph, method: str = "auto", budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Dispatch to the strongest applicable solver.

    ``auto`` picks tree, block graph, cactus, then the cut-vertex
    decomposition, and falls back to plain enumeration on biconnected
    general graphs.
    """
    if method == "auto":
        graph_class = recognize(g)  # builds the profile the solvers below read
        method = ("tree" if graph_class.tree else "block" if graph_class.block_graph
                  else "cactus" if graph_class.cactus
                  else "decompose" if blocks(g).cut_vertices else "brute")
    if method == "tree":
        return tree_cpds(g)
    if method == "block":
        return block_graph_cpds(g)
    if method == "cactus":
        return cactus_cpds(g)
    if method == "decompose":
        return decompose_cpds(g, budget=budget)
    if method == "brute":
        return exact.min_cpds(g, budget)
    raise GraphError(f"unknown method {method!r}")
