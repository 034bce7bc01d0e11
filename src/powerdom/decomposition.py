"""Cut vertices, biconnected components, pendant paths, graph classes.

Everything here is read from one :class:`GraphProfile` per graph, built by
:func:`profile` in a single O(n + m) pass and kept on the graph, which is
never mutated, so the analysis runs once however many solvers ask for it.
A graph with n - 1 edges takes one breadth-first search: if it is
connected it is a tree, and its blocks are its edges. Any other graph
takes one block DFS. Per-vertex arrays follow either way. :func:`blocks`,
:func:`classify_cut_vertices`, :func:`recognize`, :func:`is_path_graph`
and :func:`pendant_path_inventory` are accessors over that profile.

The cut-vertex taxonomy splits the cut vertices of a connected non-path
graph into three classes by the number of components their removal leaves
and by the number of pendant paths attached to them:

* class r1: removal leaves 2 components and one attached pendant path,
* class r2: removal leaves 2 components and no pendant path,
* class r3: removal leaves 3 or more components.

The union r2 | r3 is the mandatory set: it is contained in every connected
power dominating set, which is what makes the fast solvers work.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import compress, groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import DisconnectedError, GraphError
from .graphs import Graph


class BlockDecomposition(NamedTuple):
    """Biconnected components of a connected graph.

    ``blocks`` holds each component as a sorted vertex tuple; every edge of
    the graph lies in exactly one block, and two blocks share at most one
    vertex, necessarily a cut vertex. ``trivial`` flags blocks that are
    single edges lying on a pendant path (including the edge that joins
    the path to its attachment vertex). ``edges`` holds each block's edge
    count. ``walks`` holds, for each block that is a cycle of three or
    more vertices, its vertices in the order of a walk around it, as the
    block DFS left it, and None for every other block.
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    trivial: tuple[bool, ...]
    edges: tuple[int, ...]
    walks: tuple[tuple[int, ...] | None, ...]


class _Taxonomy(NamedTuple):
    r1: tuple[int, ...]
    r2: tuple[int, ...]
    r3: tuple[int, ...]
    mandatory: tuple[int, ...]
    pendant_paths: tuple[tuple[int, tuple[int, ...]], ...]
    pendant_count: tuple[int, ...]


class CutVertexTaxonomy(_Taxonomy):
    """Cut-vertex classes plus the pendant-path inventory.

    ``pendant_paths`` lists (attachment vertex, chain) pairs with the chain
    ordered base first, leaf last. ``pendant_count`` follows the usual
    convention: for an attachment vertex it counts attached pendant paths,
    and a cut vertex lying inside a pendant path gets count 1. Each set
    below is built on first read and kept in the ``__dict__``.
    """

    @cached_property
    def cut_set(self) -> frozenset[int]:
        return frozenset(self.r1 + self.r2 + self.r3)

    @cached_property
    def r1_set(self) -> frozenset[int]:
        return frozenset(self.r1)

    @cached_property
    def mandatory_set(self) -> frozenset[int]:
        return frozenset(self.mandatory)

    @cached_property
    def attached(self) -> dict[int, list[tuple[int, ...]]]:
        """The chains of the pendant paths hanging from each vertex."""
        return {v: [chain for _, chain in paths]
                for v, paths in groupby(self.pendant_paths, itemgetter(0))}


class GraphClass(NamedTuple):
    """Multi-flag recognition result; path implies tree, tree implies both
    block_graph and cactus."""

    path: bool
    cycle: bool
    tree: bool
    block_graph: bool
    cactus: bool


class GraphProfile(NamedTuple):
    """Everything the structural solvers read about one graph.

    For a disconnected graph only ``connected`` is set; the other fields
    are None because blocks, cut vertices and classes are defined for
    connected graphs only.
    """

    connected: bool
    decomposition: BlockDecomposition | None
    taxonomy: CutVertexTaxonomy | None
    graph_class: GraphClass | None


def profile(g: Graph) -> GraphProfile:
    """The profile of ``g``, built on first use and kept on the graph."""
    if g._profile is None:
        g._profile = _analyse(g)
    return g._profile


def connected_profile(g: Graph) -> GraphProfile:
    """The profile of ``g``; the one check of every operation that needs a
    connected graph, and the only raiser of :class:`DisconnectedError`."""
    info = profile(g)
    if not info.connected:
        raise DisconnectedError("operation requires a connected graph")
    return info


def _block_dfs(g: Graph) -> list[tuple[tuple[int, ...], int, tuple[int, ...] | None]] | None:
    """Biconnected components of the component of vertex 0, each as a
    sorted vertex tuple with its edge count and, for a cycle, its walk
    order, in one iterative DFS; None when the graph is disconnected.

    Vertices wait on a stack until the block below their tree edge
    closes. The edges of a block are the tree edges into its popped
    vertices plus the back edges leaving them upward. The DFS runs along
    a cycle block as a path, so the block's attachment vertex followed by
    its popped vertices is a walk around the cycle.
    """
    adj = g.adj
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    up = [0] * g.n  # back edges from a vertex to an ancestor other than its parent
    disc[0] = 0
    counter = 1
    waiting: list[int] = []
    found: list[tuple[tuple[int, ...], int, tuple[int, ...] | None]] = []
    stack = [(0, iter(adj[0]))]
    while stack:
        v, neighbors = stack[-1]
        for w in neighbors:
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = counter
                counter += 1
                waiting.append(w)
                stack.append((w, iter(adj[w])))
                break
            if disc[w] < disc[v] and w != parent[v]:
                up[v] += 1
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                members = [u]
                edges = 0
                while True:
                    x = waiting.pop()
                    members.append(x)
                    edges += 1 + up[x]
                    if x == v:
                        break
                walk = tuple(members) if edges == len(members) > 2 else None
                members.sort()
                found.append((tuple(members), edges, walk))
    if counter < g.n:
        return None
    found.sort()
    return found


def _pendant_paths(g: Graph) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    """Pendant paths and per-vertex counts of a connected non-path graph."""
    paths: list[tuple[int, tuple[int, ...]]] = []
    count = [0] * g.n
    adj = g.adj
    for leaf in compress(range(g.n), map((1).__eq__, map(len, adj))):
        chain = [leaf]
        prev, cur = leaf, adj[leaf][0]
        while len(adj[cur]) == 2:
            chain.append(cur)
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
        # cur has degree >= 3: attachment vertex; chain runs leaf -> base
        chain.reverse()
        paths.append((cur, tuple(chain)))
        count[cur] += 1
        # interior chain vertices are cut vertices lying on a pendant path
        for v in chain[:-1]:
            count[v] = 1
    paths.sort()  # by attachment vertex, then base: no vertex is the base of two paths
    return tuple(paths), tuple(count)


def _analyse(g: Graph) -> GraphProfile:
    """One O(n + m) pass: a search for a tree, the block DFS for any other
    graph, then per-vertex arrays."""
    if g.m == g.n - 1:
        if not g.is_connected():
            return GraphProfile(False, None, None, None)
        # a tree: each edge is a block, and a vertex lies in one block per edge
        return _connected_profile(g, tuple(g.edges()), (1,) * g.m, list(map(len, g.adj)),
                                  (None,) * g.m, True, True)
    return _profile_from_blocks(g, _block_dfs(g))


def _profile_from_blocks(
        g: Graph, found: list[tuple[tuple[int, ...], int, tuple[int, ...] | None]] | None,
) -> GraphProfile:
    """The profile from the block DFS's list, or a disconnected one for None."""
    if found is None:
        return GraphProfile(False, None, None, None)
    block_sets = tuple(blk for blk, _, _ in found)
    membership = [0] * g.n
    for blk in block_sets:
        for v in blk:
            membership[v] += 1
    return _connected_profile(
        g, block_sets, tuple(e for _, e, _ in found), membership,
        tuple(walk for _, _, walk in found),
        block_graph=all(e == len(blk) * (len(blk) - 1) // 2 for blk, e, _ in found),
        cactus=all(e == len(blk) for blk, e, _ in found if len(blk) > 2))


def _connected_profile(g: Graph, block_sets: tuple[tuple[int, ...], ...], edges: tuple[int, ...],
                       membership: list[int], walks: tuple[tuple[int, ...] | None, ...],
                       block_graph: bool, cactus: bool) -> GraphProfile:
    """Taxonomy and class of a connected graph from its sorted blocks,
    their edge counts and walks and the number of blocks holding each vertex."""
    n, m = g.n, g.m
    # in a connected graph the cut vertices are the vertices of two or more blocks
    cut_vertices = tuple(compress(range(n), map((2).__le__, membership)))
    path = n == 1 or (m == n - 1 and max(map(len, g.adj)) <= 2)
    if path:
        pendant_paths, counts = (), (0,) * n
        taxonomy = CutVertexTaxonomy((), (), (), (), (), counts)
    else:
        pendant_paths, counts = _pendant_paths(g)
        r1 = tuple(v for v in cut_vertices if membership[v] == 2 and counts[v] >= 1)
        r2 = tuple(v for v in cut_vertices if membership[v] == 2 and counts[v] == 0)
        r3 = tuple(v for v in cut_vertices if membership[v] >= 3)
        taxonomy = CutVertexTaxonomy(r1, r2, r3, tuple(sorted(r2 + r3)), pendant_paths, counts)
    on_chain = {v for _, chain in pendant_paths for v in chain}
    trivial = tuple(len(blk) == 2 and not on_chain.isdisjoint(blk) for blk in block_sets)
    graph_class = GraphClass(
        path=path,
        cycle=n >= 3 and m == n and all(len(a) == 2 for a in g.adj),
        tree=m == n - 1,
        block_graph=block_graph,
        cactus=cactus,
    )
    return GraphProfile(True, BlockDecomposition(block_sets, cut_vertices, trivial, edges, walks),
                        taxonomy, graph_class)


def is_path_graph(g: Graph) -> bool:
    """True for P_n (including the one- and two-vertex cases)."""
    info = profile(g)
    return info.connected and info.graph_class.path


def pendant_path_inventory(g: Graph) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    """All pendant paths of a connected graph plus per-vertex counts.

    A pendant path is a maximal chain of degree-<=2 vertices ending in a
    leaf and hanging from a vertex of degree >= 3 by a single edge. Path
    graphs have none by convention.
    """
    taxonomy = connected_profile(g).taxonomy
    return taxonomy.pendant_paths, taxonomy.pendant_count


def blocks(g: Graph) -> BlockDecomposition:
    """Biconnected components and cut vertices of a connected graph."""
    return connected_profile(g).decomposition


def classify_cut_vertices(g: Graph) -> CutVertexTaxonomy:
    """Partition the cut vertices into the r1/r2/r3 classes.

    For a path graph every field is empty by convention. Removal component
    counts come from block membership: deleting a cut vertex leaves one
    component per block containing it.
    """
    return connected_profile(g).taxonomy


def recognize(g: Graph) -> GraphClass:
    """Classify ``g`` as path / cycle / tree / block graph / cactus."""
    return connected_profile(g).graph_class


def cycle_order(g: Graph, block: tuple[int, ...]) -> tuple[int, ...]:
    """Vertices of a cycle block in traversal order.

    The walk starts at the smallest-index vertex and moves toward its
    smaller-index neighbor inside the block, which fixes a deterministic
    orientation for segment scans. A binary search finds the block among
    the profile's sorted blocks, and its walk lies beside it, so the cost is
    O(len(block) + log B) however many other blocks share its vertices.
    """
    key, dec = tuple(sorted(block)), connected_profile(g).decomposition
    at = bisect_left(dec.blocks, key)
    walk = dec.walks[at] if dec.blocks[at:at + 1] == (key,) else None
    if walk is None:
        raise GraphError("block is not a cycle")
    i = walk.index(min(walk))
    if walk[i - 1] < walk[(i + 1) % len(walk)]:
        return walk[i::-1] + walk[:i:-1]
    return walk[i:] + walk[:i]
