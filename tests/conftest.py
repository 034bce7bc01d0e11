"""Shared generators and independent oracles for the test suite.

The naive_* helpers deliberately reimplement the propagation and
connectivity checks with plain python sets (no bitmasks, different
iteration order) so that library results are validated against code that
shares nothing with the implementation under test.
"""

from __future__ import annotations

import random

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
            colored.update(g.neighbors(v))
    done = 1 if dominate else 0
    while rounds is None or done < rounds:
        done += 1
        additions = set()
        for v in sorted(colored, reverse=True):
            uncolored = [w for w in g.neighbors(v) if w not in colored]
            if len(uncolored) == 1:
                additions.add(uncolored[0])
        if not additions:
            return colored
        colored |= additions
    return colored


def naive_trace(g: Graph, s: set[int], dominate: bool = True, start: int | None = None,
                rounds: int | None = None) -> tuple[list[tuple[int, int, int, str]], set[int]]:
    """Synchronized-round run with plain sets: the entries as
    (timestep, source, target, kind) and the final colored set.

    The domination step (round 1) credits each neighbor to the smallest
    chosen vertex next to it; every later round recomputes all eligible
    forces from scratch and credits each target to its smallest source.
    Forcing rounds are numbered from ``start`` (2 after a domination step,
    else 1) and stop after round ``rounds`` when it is given.
    """
    colored = set(s)
    entries: list[tuple[int, int, int, str]] = []
    if dominate:
        for v in sorted(s):
            for w in sorted(g.neighbors(v)):
                if w not in colored:
                    colored.add(w)
                    entries.append((1, v, w, "dominate"))
    t = start if start is not None else (2 if dominate else 1)
    while rounds is None or t <= rounds:
        source_of: dict[int, int] = {}
        for v in colored:
            uncolored = [w for w in g.neighbors(v) if w not in colored]
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
        colored.update(g.neighbors(v))
    rounds = 1
    while len(colored) < g.n:
        additions = set()
        for v in sorted(colored, reverse=True):
            uncolored = [w for w in g.neighbors(v) if w not in colored]
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


def naive_min_coloring(g: Graph, rounds: int) -> list[tuple[int, ...]]:
    """Every smallest set that colors ``g`` within ``rounds`` rounds, in
    lexicographic order, by checking all subsets of each size."""
    from itertools import combinations

    for k in range(1, g.n + 1):
        found = [combo for combo in combinations(range(g.n), k)
                 if len(naive_propagate(g, set(combo), rounds=rounds)) == g.n]
        if found:
            return found
    raise AssertionError("unreachable")


def naive_is_fort(g: Graph, f: set[int]) -> bool:
    """A non-empty set that no outside vertex has exactly one neighbor in."""
    return bool(f) and all(
        sum(w in f for w in g.neighbors(v)) != 1 for v in range(g.n) if v not in f)


def naive_min_cpds(g: Graph, collect_all: bool = False):
    """Minimum connected power dominating sets by filtering all subsets."""
    from itertools import combinations

    for k in range(1, g.n + 1):
        found = []
        for combo in combinations(range(g.n), k):
            s = set(combo)
            if naive_is_connected_set(g, s) and naive_is_pds(g, s):
                if not collect_all:
                    return k, [combo]
                found.append(combo)
        if found:
            return k, found
    raise AssertionError("unreachable")


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
