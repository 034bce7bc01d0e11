"""Shared generators and independent oracles for the test suite.

The naive_* helpers deliberately reimplement the propagation and
connectivity checks with plain python sets (no bitmasks, different
iteration order) so that library results are validated against code that
shares nothing with the implementation under test.
"""

from __future__ import annotations

import random
from typing import Iterable

from hypothesis import strategies as st

from powerdom.graphs import Graph


# -- random instance generators --------------------------------------------


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return Graph([str(i) for i in range(n)], edges)


def random_connected_graph(rng: random.Random, n: int, extra: int | None = None) -> Graph:
    base = [(i, rng.randrange(i)) for i in range(1, n)]
    extra = rng.randrange(0, n) if extra is None else extra
    more = set()
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            more.add((min(u, v), max(u, v)))
    return Graph([str(i) for i in range(n)], base + sorted(more))


@st.composite
def connected_graphs(draw) -> Graph:
    """Hypothesis strategy: a connected graph on 1..9 vertices, a random
    spanning tree plus up to n extra edges."""
    n = draw(st.integers(1, 9))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n)) if pairs else []
    edges = {(p, v) for v, p in enumerate(parents, start=1)} | set(extra)
    return Graph([str(v) for v in range(n)], sorted(edges))


def random_connected_with_cut_vertex(rng: random.Random, n: int) -> Graph:
    """Random connected non-path graph with at least one cut vertex."""
    from powerdom.decomposition import blocks, is_path_graph

    while True:
        g = random_connected_graph(rng, n - 1)
        if not blocks(g).cut_vertices:
            # hang one pendant vertex to force a cut vertex
            labels = list(g.labels) + ["pend"]
            g = Graph(labels, list(g.edges()) + [(rng.randrange(g.n), g.n)])
        if not is_path_graph(g):
            return g


def random_block_graph(rng: random.Random, n: int) -> Graph:
    labels = ["0"]
    edges: list[tuple[int, int]] = []
    while len(labels) < n:
        attach = rng.randrange(len(labels))
        size = min(rng.randint(2, 4), n - len(labels) + 1)
        fresh = []
        for _ in range(size - 1):
            labels.append(str(len(labels)))
            fresh.append(len(labels) - 1)
        clique = [attach] + fresh
        edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    return Graph(labels, edges)


def random_cactus(rng: random.Random, n: int) -> Graph:
    labels = ["0"]
    edges: list[tuple[int, int]] = []
    while len(labels) < n:
        attach = rng.randrange(len(labels))
        room = n - len(labels)
        if room >= 2 and rng.random() < 0.6:
            size = min(rng.randint(3, 6), room + 1)
            fresh = []
            for _ in range(size - 1):
                labels.append(str(len(labels)))
                fresh.append(len(labels) - 1)
            ring = [attach] + fresh
            edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
        else:
            labels.append(str(len(labels)))
            edges.append((attach, len(labels) - 1))
    return Graph(labels, edges)


# small 2-connected blocks that are neither cliques nor cycles: diamond,
# wheel, K_{2,3} and chorded 5-cycle, local vertex 0 glued to the tree
GENERAL_BLOCKS = (
    (4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))),
    (5, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3))),
    (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))),
)


def random_block_tree(rng: random.Random, n: int) -> Graph:
    """Tree of GENERAL_BLOCKS and single edges hung on random vertices."""
    edges: list[tuple[int, int]] = []
    count = 1
    while count < n:
        size, block = rng.choice(GENERAL_BLOCKS + ((2, ((0, 1),)),))
        if count + size - 1 > n:
            size, block = 2, ((0, 1),)
        members = [rng.randrange(count)] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(members[a], members[b]) for a, b in block]
    return Graph([str(i) for i in range(n)], edges)


def chain_of_blocks(shapes) -> Graph:
    """The given (size, edges) blocks in a row, each block's local vertex 0
    glued to the last vertex of the block before it."""
    edges: list[tuple[int, int]] = []
    count = 1
    for size, block in shapes:
        members = [count - 1] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(members[a], members[b]) for a, b in block]
    return Graph([str(i) for i in range(count)], edges)


def random_tree_with_chords(rng: random.Random, n: int, chords: int) -> Graph:
    """Random tree plus ``chords`` short chords, each from a vertex to its
    grandparent or great-grandparent."""
    parent = [0] + [rng.randrange(i) for i in range(1, n)]
    edges = {(parent[i], i) for i in range(1, n)}
    for _ in range(chords):
        v = rng.randrange(1, n)
        up = parent[parent[v]]
        if rng.random() < 0.5:
            up = parent[up]
        if up != v and (up, v) not in edges and (v, up) not in edges:
            edges.add((up, v))
    return Graph([str(i) for i in range(n)], sorted(edges))


def subdivide_block_edge(rng: random.Random, g: Graph) -> Graph:
    """``g`` with one random edge of a nontrivial block subdivided."""
    from powerdom.decomposition import blocks

    inside = [(u, v) for blk in blocks(g).blocks if len(blk) >= 3
              for u in blk for v in blk if u < v and g.has_edge(u, v)]
    return g.subdivide_edge(*rng.choice(inside)) if inside else g


# -- independent oracles -----------------------------------------------------


def naive_components(edges: list[tuple[int, int]], vertices: set[int]) -> int:
    seen: set[int] = set()
    count = 0
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        if u in vertices and v in vertices:
            adj[u].add(v)
            adj[v].add(u)
    for v in vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(adj[cur] - seen)
    return count


def naive_components_without(g: Graph, v: int) -> int:
    vertices = set(range(g.n)) - {v}
    return naive_components(g.edges(), vertices)


def naive_is_connected_set(g: Graph, s: set[int]) -> bool:
    if not s:
        return False
    return naive_components(g.edges(), set(s)) == 1


def naive_propagate(g: Graph, s: set[int], dominate: bool = True,
                    rounds: int | None = None) -> set[int]:
    """Final colored set using plain sets and reversed iteration order;
    with ``rounds``, the set colored by the end of that round (the
    domination step is round 1)."""
    colored = set(s)
    if dominate:
        for v in s:
            colored.update(g.adj[v])
    done = 1 if dominate else 0
    while rounds is None or done < rounds:
        done += 1
        additions = set()
        for v in sorted(colored, reverse=True):
            uncolored = [w for w in g.adj[v] if w not in colored]
            if len(uncolored) == 1:
                additions.add(uncolored[0])
        if not additions:
            return colored
        colored |= additions
    return colored


def naive_trace(g: Graph, s: set[int], dominate: bool = True,
                rounds: int | None = None) -> tuple[list[tuple[int, int, int, str]], set[int]]:
    """Synchronized-round run with plain sets: the entries as
    (timestep, source, target, kind) and the final colored set.

    The domination step (round 1) credits each neighbor to the smallest
    chosen vertex next to it; every later round recomputes all eligible
    forces from scratch and credits each target to its smallest source.
    Forcing rounds are numbered from 2 after a domination step, else from
    1, and stop after round ``rounds`` when it is given.
    """
    colored = set(s)
    entries: list[tuple[int, int, int, str]] = []
    if dominate:
        for v in sorted(s):
            for w in sorted(g.adj[v]):
                if w not in colored:
                    colored.add(w)
                    entries.append((1, v, w, "dominate"))
    t = 2 if dominate else 1
    while rounds is None or t <= rounds:
        source_of: dict[int, int] = {}
        for v in colored:
            uncolored = [w for w in g.adj[v] if w not in colored]
            if len(uncolored) == 1:
                w = uncolored[0]
                source_of[w] = min(source_of.get(w, v), v)
        if not source_of:
            break
        entries += [(t, source_of[w], w, "force") for w in sorted(source_of)]
        colored |= set(source_of)
        t += 1
    return entries, colored


def naive_is_pds(g: Graph, s: set[int]) -> bool:
    if not s:
        return g.n == 0
    return len(naive_propagate(g, s)) == g.n


def naive_is_zfs(g: Graph, s: set[int]) -> bool:
    return len(naive_propagate(g, s, dominate=False)) == g.n


def naive_ppt(g: Graph, s: set[int]) -> int:
    colored = set(s)
    for v in s:
        colored.update(g.adj[v])
    rounds = 1
    while len(colored) < g.n:
        additions = set()
        for v in sorted(colored, reverse=True):
            uncolored = [w for w in g.adj[v] if w not in colored]
            if len(uncolored) == 1:
                additions.add(uncolored[0])
        if not additions:
            raise AssertionError("set does not power dominate")
        colored |= additions
        rounds += 1
    return rounds


def naive_min_pds_size(g: Graph) -> int:
    from itertools import combinations

    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if naive_is_pds(g, set(combo)):
                return k
    raise AssertionError("unreachable")


def naive_min_coloring(g: Graph, rounds: int | None,
                       dominate: bool = True) -> list[tuple[int, ...]]:
    """Every smallest set that colors ``g`` within ``rounds`` rounds, in
    lexicographic order, by checking all subsets of each size; without
    ``dominate``, every smallest zero forcing set."""
    from itertools import combinations

    for k in range(1, g.n + 1):
        found = [combo for combo in combinations(range(g.n), k)
                 if len(naive_propagate(g, set(combo), dominate, rounds)) == g.n]
        if found:
            return found
    raise AssertionError("unreachable")


def naive_is_fort(g: Graph, f: set[int]) -> bool:
    """A non-empty set that no outside vertex has exactly one neighbor in."""
    return bool(f) and all(
        sum(w in f for w in g.adj[v]) != 1 for v in range(g.n) if v not in f)


def naive_min_cpds(g: Graph, collect_all: bool = False, rounds: int | None = None,
                   required: Iterable[int] = ()):
    """Minimum connected power dominating sets by filtering all subsets;
    with ``rounds``, those that color ``g`` within that many rounds; with
    ``required``, those that contain all of it."""
    from itertools import combinations

    need = set(required)
    for k in range(1, g.n + 1):
        found = []
        for combo in combinations(range(g.n), k):
            s = set(combo)
            if need <= s and naive_is_connected_set(g, s) and \
                    len(naive_propagate(g, s, rounds=rounds)) == g.n:
                if not collect_all:
                    return k, [combo]
                found.append(combo)
        if found:
            return k, found
    raise AssertionError("unreachable")


def naive_decompose(g: Graph, budget=None):
    """The cut-vertex decomposition without a table of solved pieces and
    without in-place rules: each nontrivial block, with every pendant path
    hung on its vertices (the paper's piece), gets three leaves on every
    mandatory vertex it holds (the L3 expansion) and is solved on its own by
    the plain search, whatever its class, so no structural solver checks
    another. The pieces' witnesses are unioned and certified on ``g``. It
    builds its own pieces from the blocks and the pendant paths, so it does
    not share the library's. The default budget fits the expansion of any
    piece of ``g``."""
    from collections import Counter

    from powerdom import exact
    from powerdom.decomposition import blocks, classify_cut_vertices, pendant_path_inventory
    from powerdom.graphs import attach_leaves

    budget = exact.Budget(max_vertices=4 * g.n) if budget is None else budget
    mandatory = set(classify_cut_vertices(g).mandatory)
    hung: dict[int, list[int]] = {}
    for v, chain in pendant_path_inventory(g)[0]:
        hung.setdefault(v, []).extend(chain)
    dec = blocks(g)
    shared: Counter[int] = Counter()
    total, union = 0, set(mandatory)
    for blk, trivial in zip(dec.blocks, dec.trivial):
        if trivial:
            continue
        sub, remap = g.induced_subgraph([*blk, *(w for v in blk for w in hung.get(v, ()))])
        vertices = sorted(remap)
        anchors = [remap[v] for v in blk if v in mandatory]
        shared.update(v for v in blk if v in mandatory)
        piece = exact.min_cpds(attach_leaves(sub, anchors, 3), budget)
        assert all(v < sub.n for v in piece.witness)
        union.update(vertices[v] for v in piece.witness)
        total += piece.optimum
    result = exact.certify(g, union, exact.METHOD_DECOMPOSITION, connected=True)
    assert result.optimum == total - sum(k - 1 for k in shared.values())
    return result


# -- tiny named graphs -------------------------------------------------------


def bowtie() -> Graph:
    return Graph(["v", "a", "b", "c", "d"], [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def double_star() -> Graph:
    return Graph(
        ["c1", "c2", "l1", "l2", "l3", "l4"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
    )


def spider_three_legs() -> Graph:
    return Graph(
        ["c", "a1", "b1", "a2", "b2", "a3", "b3"],
        [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)],
    )


def two_triangles_bridge() -> Graph:
    return Graph(
        ["a", "b", "u", "w", "e", "f"],
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)],
    )


def complete_bipartite(a: int, b: int) -> Graph:
    labels = [f"a{i}" for i in range(a)] + [f"b{i}" for i in range(b)]
    return Graph(labels, [(i, a + j) for i in range(a) for j in range(b)])
