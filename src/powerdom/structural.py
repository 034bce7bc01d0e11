"""Fast solvers for structured graph classes and the cut-vertex split.

The tree, block graph, cactus and decomposition solvers are class checks
in front of one core, :func:`_by_blocks`. It solves each nontrivial block
subject to the mandatory vertices it holds and recombines: a clique or a
bridge needs those vertices, a longer cycle all but one largest
excludable segment, and any other block, with the pendant paths of its
other vertices, the exact search for the smallest solution containing
them. So a tree or a block graph gets its mandatory set, and a path or a
cycle one vertex. A piece is searched on its neighbor masks alone; only
the recombined witness is certified, once, on the whole graph.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import exact
from .decomposition import CutVertexTaxonomy, blocks, connected_profile, recognize
from .errors import DecompositionError, GraphClassError, GraphError
from .exact import Budget, DEFAULT_BUDGET, SolveResult, certify
from .graphs import Graph


def tree_cpds(g: Graph) -> SolveResult:
    """Optimal connected power dominating set of a tree: one vertex of a
    path, else the mandatory set, its unique optimum."""
    if not connected_profile(g).graph_class.tree:
        raise GraphClassError("input is not a tree")
    return _by_blocks(g, exact.METHOD_TREE)


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
        d = len(g.adj[v])
        if d == 2 and taxonomy.pendant_count[v] != 1:
            return False
        if d >= 3 and taxonomy.pendant_count[v] < 2:
            return False
    return True


def block_graph_cpds(g: Graph) -> SolveResult:
    """Optimal connected power dominating set of a block graph: the
    mandatory set, or the least vertex of the one clique that wears the
    pendant paths when that set is empty."""
    if not connected_profile(g).graph_class.block_graph:
        raise GraphClassError("input is not a block graph")
    return _by_blocks(g, exact.METHOD_BLOCK)


class Segment(NamedTuple):
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


class FeasibleSegmentFamily(NamedTuple):
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
    """Candidate segment families for one cycle block with >= 1 cut vertex,
    from the walk ``cycle`` as given; the reverse walk finds the same vertex
    sets. Segments are merged by vertex set, since adjacent cut vertices
    yield several empty ones. ``best`` is the segment of the set that
    :func:`_largest_segment` returns.
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
    largest = frozenset(_largest_segment(cycle, taxonomy))
    best = next(fam[largest] for fam in families if largest in fam)
    groups = tuple(tuple(sorted(fam.values(), key=lambda s: s.interior)) for fam in families)
    return FeasibleSegmentFamily(groups[0], groups[1], groups[2], best.size, best)


def _largest_segment(cycle: tuple[int, ...], taxonomy: CutVertexTaxonomy) -> tuple[int, ...]:
    """A largest excludable segment of the walk ``cycle``, the one avoiding
    small vertex ids, which lexicographically minimizes the complementary
    solution set: the same set in every rotation and direction of the walk."""
    size = len(cycle)
    spans = _spans(cycle, taxonomy)
    most = max((b - a - 1) % size for _, a, b in spans)
    return max((_arc(cycle, a, b) for _, a, b in spans if (b - a - 1) % size == most), key=sorted)


def cactus_cpds(g: Graph) -> SolveResult:
    """Optimal connected power dominating set of a cactus graph: the
    mandatory set plus, in each cycle of 4 or more vertices, every vertex
    outside one largest excludable segment (see :func:`_by_blocks`)."""
    if not connected_profile(g).graph_class.cactus:
        raise GraphClassError("input is not a cactus graph")
    return _by_blocks(g, exact.METHOD_CACTUS)


def _piece_vertices(blk: tuple[int, ...], taxonomy: CutVertexTaxonomy) -> list[int]:
    """The sorted vertices of one block and of the pendant paths hung on its
    vertices that are not mandatory, which meet neither the block nor each
    other: the piece the decomposition searches.

    An anchor's paths stay out. The anchor is in every witness and
    dominates a path's base, the path then forces down to its leaf, and
    only the anchor touches the path. So no smallest connected set holds a
    path vertex, as dropping the deepest one keeps it connected and power
    dominating, and the piece's optima are those of the block with every
    path it wears."""
    attached, mandatory = taxonomy.attached, taxonomy.mandatory_set
    verts = list(blk)
    for v in blk:
        if v not in mandatory:
            for chain in attached.get(v, ()):
                verts += chain
    verts.sort()
    return verts


def nontrivial_block_subgraphs(g: Graph) -> list[tuple[tuple[int, ...], list[int]]]:
    """Each nontrivial block with its piece, as (core, vertices): the
    block's vertices and the sorted vertices the decomposition searches for
    it (see :func:`_piece_vertices`). No graph or row of a piece is built."""
    info = connected_profile(g)
    dec, taxonomy = info.decomposition, info.taxonomy
    return [(blk, _piece_vertices(blk, taxonomy))
            for blk, trivial in zip(dec.blocks, dec.trivial) if not trivial]


def _by_blocks(g: Graph, method: str, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """The witness of a connected graph from its nontrivial blocks,
    certified under ``method``; a path or a cycle gets vertex 0.

    A block's anchors are the mandatory vertices it holds; only the graph's
    sole nontrivial block can have none, and a clique or a bridge then gives
    its least vertex. A cycle's walk is the profile's, as the block DFS left
    it: its largest segment is one set in any orientation. Only an anchor's
    row leaves its piece, and one over 8 times the piece's size is read
    through the piece, in the row's set built once, so reading the pieces'
    rows costs O(n + m). Each distinct piece (the same neighbor masks over
    local ids and the same anchors, which hold its own mandatory set) is
    searched once on those masks by :func:`exact._grow`, within the vertex
    budget at its own size and one deadline for every piece. A union whose
    size is not the mandatory set's plus what the blocks add beyond their
    anchors raises. Only the union is certified: a piece meets the rest of
    ``g`` at its anchors alone, which the witness holds, so they never force
    and a piece's vertex is colored in ``g`` exactly when it is in the
    piece; as the block-cut tree has no cycle, the union is connected only
    if each piece's part is.
    """
    info = connected_profile(g)
    if info.graph_class.path or info.graph_class.cycle:
        return certify(g, (0,), method, connected=True)
    dec, taxonomy = info.decomposition, info.taxonomy
    bit = [0] * g.n  # 1 << local id for each vertex of the piece at hand, else 0
    bit_of = bit.__getitem__
    deadline = budget.deadline()
    mandatory = taxonomy.mandatory_set
    rows: list[Sequence[int]] = list(g.adj)  # a copy whose anchors' rows each piece sets
    near: dict[int, frozenset[int]] = {}  # the set of each long anchor row
    # a mandatory vertex in no nontrivial block is the hub of a spider
    union = set(mandatory)
    added = 0  # vertices the blocks' witnesses hold beyond their anchors
    # (masks, anchors) fix a piece's search, which reads no labels
    solved: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for blk, edges, trivial, walk in zip(dec.blocks, dec.edges, dec.trivial, dec.walks):
        if trivial:
            continue
        k = len(blk)
        if edges == k * (k - 1) // 2:  # a clique or a bridge adds no vertex to its anchors
            if mandatory.isdisjoint(blk):
                union.add(blk[0])
                added += 1
            continue
        inside = [v for v in blk if v in mandatory]
        if walk is not None:  # a cycle of 4 or more vertices
            witness = set(blk).difference(_largest_segment(walk, taxonomy))
        else:
            vertices = _piece_vertices(blk, taxonomy)
            if len(vertices) > budget.max_vertices:  # refused before its masks are built
                exact._check_deadline(deadline)  # a spent deadline outranks an oversized piece
                budget.check_size(len(vertices))
            for a in inside:
                row = g.adj[a]
                if len(row) > 8 * len(vertices):
                    if a not in near:
                        near[a] = frozenset(row)
                    row = [v for v in vertices if v in near[a]]
                rows[a] = row
            for i, v in enumerate(vertices):
                bit[v] = 1 << i
            # the bits summed are distinct, so each sum is a neighbor mask
            key = tuple([sum(map(bit_of, rows[v])) for v in vertices]), sum(map(bit_of, inside))
            for v in vertices:
                bit[v] = 0
            local = solved.get(key)
            if local is None:
                optima, _ = exact._grow(list(key[0]), key[1], len(vertices), deadline)
                local = solved[key] = optima[0]
            witness = [vertices[v] for v in local]
        union.update(witness)
        added += len(witness) - len(inside)
    optimum = len(mandatory) + added
    if len(union) != optimum:
        raise DecompositionError(f"recombined witness has {len(union)} vertices, "
                                 f"formula says {optimum}")
    return certify(g, union, method, connected=True)


def decompose_cpds(g: Graph, budget: Budget = DEFAULT_BUDGET) -> SolveResult:
    """Split the problem over the nontrivial blocks of a connected non-path
    graph with a cut vertex and recombine (see :func:`_by_blocks`); a
    disconnected graph raises :class:`DisconnectedError`."""
    info = connected_profile(g)
    if not info.decomposition.cut_vertices:
        raise GraphClassError("decomposition requires at least one cut vertex")
    if info.graph_class.path:
        raise GraphClassError("decomposition does not apply to paths")
    return _by_blocks(g, exact.METHOD_DECOMPOSITION, budget)


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
