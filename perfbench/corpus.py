"""Seeded graph generators for the benchmark corpus.

Plain Python only: nothing here imports ``powerdom``, so the inputs the
program receives do not depend on the program. Every generator returns a
list of edges over integer vertex ids; :func:`edgelist_text` turns it into
the edge-list format the CLI reads, with vertex ``i`` labelled ``v<i>``.

Structured, oracle and model graphs are fixed: each is built from its own
name, and a run's ``--seed`` only renames its vertices (:func:`relabel`).
Every seed so runs the same work, and the expected answers recorded in
``expected.json`` for the fixed graphs hold for every seed, since the
optima do not depend on the names. Drawing a different graph per seed
moved a run's throughput and latencies by up to 40%, more than a change
to the program should have to beat.
"""

from __future__ import annotations

import hashlib
import random

SPREAD_CANDIDATES = 4
ORACLE_GRAPHS = 2  # random oracle graphs per family

STRUCTURED_FAMILIES = ("tree", "cactus", "block", "general")
STRUCTURED_SIZES = (2000, 8000)
CHAIN_FAMILIES = ("path", "spider", "flower")
CHAIN_SIZES = (500, 2000)
HUB_SIZES = (1, 4, 5)
ORACLE_FAMILIES = ("biconnected", "cut", "tree")
MODEL_FAMILIES = ("sparse", "cactus")
MODEL_SIZES = (50, 200)

Edges = list[tuple[int, int]]


def edgelist_text(edges: Edges) -> str:
    return "".join(f"v{u} v{v}\n" for u, v in edges)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(*name: object) -> random.Random:
    """Generator private to one named graph, independent of run seeds."""
    return random.Random("/".join(str(part) for part in name))


def relabel(edges: Edges, rng: random.Random) -> tuple[Edges, list[int]]:
    """The same graph with its vertex names permuted at random; returns the
    edges and the permutation (old id -> new id).

    The order of the edges, and of the two ends of each, is kept. The CLI
    numbers vertices in order of first appearance, so it numbers them as
    before and does the same work: searches that stop at the first feasible
    set in index order (hubs(5) with its spine placed late takes three
    times as long) cost the same on every seed.
    """
    n = 1 + max(max(edge) for edge in edges)
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges], perm


# -- structured graphs (linear-time solvers and the decomposition) ----------


def random_tree(rng: random.Random, n: int) -> Edges:
    return [(i, rng.randrange(i)) for i in range(1, n)]


def random_cactus(rng: random.Random, n: int) -> Edges:
    """Cycles of length 3..6 and single edges hung on random vertices."""
    edges: Edges = []
    count = 1
    while count < n:
        attach = rng.randrange(count)
        room = n - count
        if room >= 2 and rng.random() < 0.6:
            size = min(rng.randint(3, 6), room + 1)
            ring = [attach] + list(range(count, count + size - 1))
            count += size - 1
            edges += [(ring[i], ring[(i + 1) % size]) for i in range(size)]
        else:
            edges.append((attach, count))
            count += 1
    return edges


def random_block_graph(rng: random.Random, n: int) -> Edges:
    """Cliques of 2..4 vertices hung on random vertices."""
    edges: Edges = []
    count = 1
    while count < n:
        attach = rng.randrange(count)
        size = min(rng.randint(2, 4), n - count + 1)
        clique = [attach] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    return edges


# small 2-connected blocks that are neither cliques nor cycles, so a tree
# of them is a general graph and dispatch goes to the decomposition
GENERAL_BLOCKS = (
    (4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))),  # diamond
    (5, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3))),  # wheel
    (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),  # K_{2,3}
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))),  # chorded 5-cycle
)


def random_block_tree(rng: random.Random, n: int) -> Edges:
    """Tree of small 2-connected general blocks; a triangle or an edge
    fills the last few vertices."""
    edges: Edges = []
    count = 1
    while count < n:
        attach = rng.randrange(count)
        size, block = rng.choice(GENERAL_BLOCKS)
        if count + size - 1 > n:
            size = min(3, n - count + 1)
            block = ((0, 1), (1, 2), (2, 0)) if size == 3 else ((0, 1),)
        members = [attach] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(members[a], members[b]) for a, b in block]
    return edges


STRUCTURED_GENERATORS = {
    "tree": random_tree,
    "cactus": random_cactus,
    "block": random_block_graph,
    "general": random_block_tree,
}


def structured_graph(family: str, n: int) -> Edges:
    return STRUCTURED_GENERATORS[family](_rng("structured", family, n), n)


def _on_cycle(adj: dict[int, set[int]], u: int, v: int) -> bool:
    """Is v reachable from u without the edge uv?"""
    seen, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen and (x, y) != (u, v):
                if y == v:
                    return True
                seen.add(y)
                stack.append(y)
    return False


def spread_candidates(family: str, n: int, edges: Edges) -> list[tuple[int, int]]:
    """Fixed edges of one structured graph on which spread operations run.

    Off trees they lie on cycles, so the surgery is of the same kind on
    every seed (subdividing a clique edge always turns a block graph into
    a general one, say) and the op's cost does not hinge on the pick.
    """
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    rng = _rng("spread", family, n)
    picked = []
    for i in rng.sample(range(len(edges)), len(edges)):
        if family == "tree" or _on_cycle(adj, *edges[i]):
            picked.append(edges[i])
            if len(picked) == SPREAD_CANDIDATES:
                break
    return sorted(picked)


# -- long chains (propagation rounds grow with n) ---------------------------


def _split(rng: random.Random, total: int, parts: int, least: int) -> list[int]:
    """Random composition of ``total`` into ``parts`` sizes >= ``least``."""
    sizes = [least] * parts
    for _ in range(total - least * parts):
        sizes[rng.randrange(parts)] += 1
    return sizes


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


# Legs and cycles get at least 90% of an equal share, so the longest one,
# which sets the number of propagation rounds, moves little between seeds.


def spider(rng: random.Random, n: int) -> Edges:
    """Centre 0 with three long legs of random lengths."""
    edges: Edges = []
    count = 1
    for length in _split(rng, n - 1, 3, (n - 1) * 9 // 30):
        prev = 0
        for _ in range(length):
            edges.append((prev, count))
            prev = count
            count += 1
    return edges


def flower(rng: random.Random, n: int) -> Edges:
    """Four long cycles of random lengths sharing vertex 0."""
    edges: Edges = []
    count = 1
    for length in _split(rng, n - 1, 4, (n - 1) * 9 // 40):
        ring = [0] + list(range(count, count + length))
        count += length
        edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    return edges


def chain_graph(family: str, n: int, seed: int) -> Edges:
    if family == "path":
        return path(n)
    rng = random.Random(f"chains/{family}/{n}/{seed}")
    return spider(rng, n) if family == "spider" else flower(rng, n)


# -- oracle graphs (n <= 24, exact enumeration) ------------------------------


def hubs(k: int) -> Edges:
    """Spine of k vertices, each with three leaves: gamma_P = gamma_Pc = k."""
    edges = [(i, i + 1) for i in range(k - 1)]
    count = k
    for i in range(k):
        for _ in range(3):
            edges.append((i, count))
            count += 1
    return edges


def _biconnected(rng: random.Random, n: int, chords: int) -> Edges:
    """Hamiltonian cycle plus ``chords`` distinct chords."""
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + chords:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def oracle_graph(family: str, index: int) -> Edges:
    """Random connected graph with 16..22 vertices.

    ``biconnected`` falls back to plain enumeration, ``cut`` joins two
    biconnected halves at a cut vertex (decomposition), and ``tree`` is a
    random tree kept at 16..18 vertices so enumeration stays short.
    """
    rng = _rng("oracle", family, index)
    if family == "biconnected":
        n = rng.randint(18, 22)
        return _biconnected(rng, n, rng.randint(2, 4))
    if family == "cut":
        n = rng.randint(16, 22)
        left = n // 2 + 1
        right = n - left + 1
        edges = _biconnected(rng, left, rng.randint(1, 3))
        offset = left - 1  # vertex left-1 is shared
        for u, v in _biconnected(rng, right, rng.randint(1, 3)):
            edges.append((u + offset, v + offset))
        return edges
    return random_tree(rng, rng.randint(16, 18))


# -- model export graphs -------------------------------------------------------


def sparse_connected(rng: random.Random, n: int) -> Edges:
    """Random tree plus n/4 extra distinct edges."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def square_cactus(rng: random.Random, n: int) -> Edges:
    """4-cycles hung on random vertices, edges for the last one or two
    vertices: the edge count, and so the model's size, is fixed by n."""
    edges: Edges = []
    count = 1
    while count < n:
        attach = rng.randrange(count)
        if n - count >= 3:
            ring = [attach, count, count + 1, count + 2]
            count += 3
            edges += [(ring[i], ring[(i + 1) % 4]) for i in range(4)]
        else:
            edges.append((attach, count))
            count += 1
    return edges


def model_graph(family: str, n: int) -> Edges:
    rng = _rng("model", family, n)
    return sparse_connected(rng, n) if family == "sparse" else square_cactus(rng, n)


# -- closed forms ------------------------------------------------------------


def model_counts(edges: Edges, connected: bool) -> tuple[int, int]:
    """Variable and row counts of the time-indexed model (plus the MTZ
    arborescence when ``connected``): s, x per vertex and y per arc; cover
    rows per vertex, order rows per arc, one watch row per arc (u, v) and
    other neighbour w of u."""
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    n, arcs = len(degree), 2 * len(edges)
    variables = 2 * n + arcs
    rows = n + arcs + sum(d * (d - 1) for d in degree.values())
    if connected:
        variables += 2 * n + arcs  # zr, o per vertex, z per arc
        rows += 1 + n + 2 * arcs  # root, parent per vertex, growth and rank per arc
    return variables, rows
