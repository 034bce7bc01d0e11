"""The per-graph profile: built once, shared by every solver, linear in size.

Blocks and articulation points are cross-checked against networkx where it
is installed; the decomposition and the spread are checked against the
enumeration oracle on hypothesis-generated graphs with a cut vertex.
"""

from __future__ import annotations

import io
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerdom import cli, decomposition, exact, spread, structural
from powerdom.decomposition import (
    blocks,
    classify_cut_vertices,
    is_path_graph,
    pendant_path_inventory,
    profile,
    recognize,
)
from powerdom.errors import DisconnectedError
from powerdom.graph_io import load_graph
from powerdom.graphs import Graph, path_graph

from conftest import (
    GENERAL_BLOCKS,
    bowtie,
    chain_of_blocks,
    naive_decompose,
    random_block_graph,
    random_block_tree,
    random_cactus,
    random_connected_graph,
    random_tree,
)


def general_with_cut_vertices() -> Graph:
    """A diamond, a K_{2,3} glued to it at d3, a triangle on k4, and a
    pendant path on d0: two general blocks, one clique, one pendant path."""
    edges = [("d0", "d1"), ("d0", "d2"), ("d1", "d2"), ("d1", "d3"), ("d2", "d3"),
             ("d3", "k1"), ("d3", "k2"), ("d3", "k3"), ("k4", "k1"), ("k4", "k2"),
             ("k4", "k3"), ("k4", "t1"), ("k4", "t2"), ("t1", "t2"),
             ("d0", "p1"), ("p1", "p2")]
    return Graph.from_labeled_edges(edges)


class TestProfile:
    def test_built_once_per_graph(self):
        g = bowtie()
        first = profile(g)
        assert profile(g) is first
        assert blocks(g) is first.decomposition
        assert classify_cut_vertices(g) is first.taxonomy
        assert recognize(g) is first.graph_class

    def test_derived_graphs_get_their_own(self):
        g = bowtie()
        smaller = g.delete_vertex(4)
        assert profile(smaller) is not profile(g)
        assert blocks(smaller).blocks == ((0, 1, 2), (0, 3))

    def test_disconnected(self):
        g = Graph(["a", "b", "c"], [(0, 1)])
        info = profile(g)
        assert not info.connected
        assert info.decomposition is info.taxonomy is info.graph_class is None
        assert not is_path_graph(g)
        for accessor in (blocks, classify_cut_vertices, recognize, pendant_path_inventory):
            with pytest.raises(DisconnectedError):
                accessor(g)

    def test_taxonomy_sets(self):
        """Each set is built when first read, and kept."""
        tax = classify_cut_vertices(general_with_cut_vertices())
        assert not {"cut_set", "r1_set", "attached"} & set(vars(tax))
        assert tax.cut_set == set(tax.r1) | set(tax.r2) | set(tax.r3)
        assert tax.r1_set == set(tax.r1)
        assert tax.cut_set is tax.cut_set and tax.attached is tax.attached


def nx_graph(g: Graph):
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return nx, h


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_and_articulation_points(self, seed):
        rng = random.Random(4000 + seed)
        makers = (random_connected_graph, random_tree, random_cactus, random_block_graph)
        for _ in range(25):
            g = rng.choice(makers)(rng, rng.randint(2, 60))
            nx, h = nx_graph(g)
            dec = blocks(g)
            assert {frozenset(b) for b in dec.blocks} == {
                frozenset(c) for c in nx.biconnected_components(h)}
            assert list(dec.cut_vertices) == sorted(nx.articulation_points(h))

    def test_dense_graph_with_long_cycles(self):
        g = random_connected_graph(random.Random(77), 400, extra=150)
        nx, h = nx_graph(g)
        assert {frozenset(b) for b in blocks(g).blocks} == {
            frozenset(c) for c in nx.biconnected_components(h)}
        assert list(blocks(g).cut_vertices) == sorted(nx.articulation_points(h))


@st.composite
def graph_with_cut_vertex(draw, most: int = 8):
    """Connected non-path graph on at most ``most`` vertices with a cut vertex."""
    n = draw(st.integers(3, most))
    tree = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
    g = Graph([str(i) for i in range(n)], tree + extra)
    assume(blocks(g).cut_vertices and not is_path_graph(g))
    return g


ROOMY = exact.Budget(max_vertices=40)


@settings(max_examples=150, deadline=None)
@given(graph_with_cut_vertex())
def test_decomposition_matches_the_oracle(g):
    assert structural.decompose_cpds(g, budget=ROOMY).optimum == exact.min_cpds(g).optimum


@settings(max_examples=100, deadline=None)
@given(graph_with_cut_vertex(), st.data())
def test_subdivision_never_lowers_the_optimum(g, data):
    u, v = data.draw(st.sampled_from(g.edges()))
    report = spread.subdivide_edge_delta(g, u, v,
                                         lambda h: structural.solve_cpds(h, "auto", ROOMY))
    assert report.spread >= 0
    assert report.before.optimum == exact.min_cpds(g).optimum


class TestAnalyseOnce:
    def test_one_block_dfs_per_graph_and_per_expanded_block(self, monkeypatch):
        """Only the general pieces are searched, and without a block DFS of
        their own: the triangle is solved in place."""
        # count the pieces on a copy, so that g itself is not analysed yet
        g = general_with_cut_vertices()
        pieces = len(structural.nontrivial_block_subgraphs(Graph(g.labels, g.edges())))
        assert pieces == 3  # diamond, K_{2,3}, triangle
        general = 2
        calls, searched = [], []
        original, grow = decomposition._block_dfs, exact._grow

        def counted(h):
            calls.append(h.n)
            return original(h)

        monkeypatch.setattr(decomposition, "_block_dfs", counted)
        monkeypatch.setattr(exact, "_grow", lambda h, *args: searched.append(len(h)) or grow(h, *args))
        result = structural.solve_cpds(g)
        assert result.method == exact.METHOD_DECOMPOSITION
        assert calls == [g.n]
        assert len(searched) == general

    def test_each_distinct_piece_solved_once(self, monkeypatch):
        """Twelve diamonds in a row, glued at their degree-2 vertices: the
        two end pieces and the ten middle ones give three distinct pieces.
        The growth search runs once per distinct piece (once per piece
        would make 12), straight on its neighbor masks: no graph is built
        for a piece, and no profile."""
        g = chain_of_blocks([GENERAL_BLOCKS[0]] * 12)
        copy = Graph(g.labels, g.edges())
        mandatory = set(classify_cut_vertices(copy).mandatory)
        pieces = structural.nontrivial_block_subgraphs(copy)
        keys = {(copy.induced_subgraph(vertices)[0].adj,
                 tuple(vertices.index(v) for v in blk if v in mandatory))
                for blk, vertices in pieces}
        assert (len(pieces), len(keys)) == (12, 3)
        calls, solved, built = [], [], []
        original = decomposition._block_dfs
        monkeypatch.setattr(decomposition, "_block_dfs",
                            lambda h: calls.append(h.n) or original(h))
        # every Graph comes from the validating constructor or the row builder
        init, from_rows = Graph.__init__, Graph._from_rows.__func__
        monkeypatch.setattr(Graph, "__init__",
                            lambda h, *args: built.append(h) or init(h, *args))
        monkeypatch.setattr(Graph, "_from_rows", classmethod(
            lambda cls, *args: built.append(cls) or from_rows(cls, *args)))

        grow = exact._grow

        def counting(h, *args):
            solved.append(h)
            return grow(h, *args)

        monkeypatch.setattr(exact, "_grow", counting)
        result = structural.decompose_cpds(g)
        monkeypatch.undo()
        assert len(solved) == len(keys)
        assert built == []
        assert calls == [g.n]
        naive = naive_decompose(copy)
        assert (result.optimum, result.witness, result.method) == (
            naive.optimum, naive.witness, naive.method)

    def test_structural_solvers_share_the_analysis(self, monkeypatch):
        """One profile build per graph, counted at ``_analyse`` because a
        tree is profiled without the block DFS."""
        calls = []
        original = decomposition._analyse
        monkeypatch.setattr(decomposition, "_analyse",
                            lambda h: calls.append(h) or original(h))
        rng = random.Random(8)
        for make in (random_tree, random_cactus, random_block_graph):
            g = make(rng, 300)
            structural.solve_cpds(g)
            structural.solve_cpds(g)
        assert len(calls) == 3


def relabelled(rng: random.Random, g: Graph) -> Graph:
    """``g`` with its vertex ids permuted at random; each vertex keeps its label."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    labels = [""] * g.n
    for v, lab in enumerate(g.labels):
        labels[perm[v]] = lab
    return Graph(labels, [(perm[u], perm[v]) for u, v in g.edges()])


def star(n: int) -> Graph:
    return Graph([str(i) for i in range(n)], [(0, i) for i in range(1, n)])


def spider(rng: random.Random, legs: int) -> Graph:
    """A center with ``legs`` paths of random lengths hanging from it."""
    edges, n = [], 1
    for _ in range(legs):
        prev = 0
        for _ in range(rng.randint(1, 5)):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph([str(i) for i in range(n)], edges)


def seeded_trees(rng: random.Random):
    """Random trees, paths (one and two vertices included), stars and spiders."""
    for n in range(1, 8):
        yield path_graph(n)
    for _ in range(40):
        yield random_tree(rng, rng.randint(3, 80))
        yield path_graph(rng.randint(3, 40))
        yield star(rng.randint(3, 30))
        yield spider(rng, rng.randint(1, 8))


def assert_same_fields(got, expected) -> None:
    """Every field of a record equal, those left out of ``==`` included."""
    for name in got._fields:
        mine, theirs = getattr(got, name), getattr(expected, name)
        if hasattr(mine, "_fields"):
            assert_same_fields(mine, theirs)
        else:
            assert mine == theirs, name


class TestTreeProfile:
    """A graph with n - 1 edges is profiled by one search instead of the
    block DFS: if it is connected, its blocks are its edges."""

    def test_matches_the_block_dfs(self, monkeypatch):
        rng = random.Random("tree profile")
        dfs = decomposition._block_dfs
        monkeypatch.setattr(decomposition, "_block_dfs", None)  # a tree must not call it
        shapes = 0
        for tree in seeded_trees(rng):
            g = relabelled(rng, tree)
            got = decomposition._analyse(g)
            expected = decomposition._profile_from_blocks(g, dfs(g))
            assert_same_fields(got, expected)
            assert got.connected and got.graph_class.tree
            shapes += 1
        assert shapes == 7 + 4 * 40

    def test_disconnected_with_n_minus_one_edges(self, monkeypatch):
        text = "a b\nb c\nc a\nd e\n"  # a triangle and a disjoint edge
        g = load_graph(text)
        assert (g.n, g.m) == (5, 4)
        monkeypatch.setattr(decomposition, "_block_dfs", None)
        info = profile(g)
        assert not info.connected
        assert info.decomposition is info.taxonomy is info.graph_class is None
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["solve", "-", "--problem", "cpd"], stdout=out, stderr=err,
                        stdin=io.StringIO(text))
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().count("\n") == 1 and "connected" in err.getvalue()


class TestScaling:
    """Wall-clock guards: the analysis and the structural solvers are linear,
    so 32k vertices take about a second; the bound only catches a return
    to quadratic work."""

    N = 32_000

    @pytest.mark.parametrize("make", [random_cactus, random_tree], ids=["cactus", "tree"])
    def test_solve_cpds(self, make):
        g = make(random.Random(32), self.N)
        started = time.perf_counter()
        result = structural.solve_cpds(g)
        assert time.perf_counter() - started < 6.0
        assert result.method in (exact.METHOD_CACTUS, exact.METHOD_TREE)

    def test_block_tree_of_general_blocks(self):
        """Diamonds, wheels, K_{2,3}s and chorded 5-cycles in a tree: the
        decomposition solves each distinct piece once."""
        g = random_block_tree(random.Random(32), self.N)
        started = time.perf_counter()
        result = structural.solve_cpds(g)
        assert time.perf_counter() - started < 2.0
        assert result.method == exact.METHOD_DECOMPOSITION

    def test_flower_of_many_cycles(self):
        """4000 four-cycles through one hub: ordering each cycle must not
        rescan the hub's 8000 neighbors (about 1.3 s when it did)."""
        k = 4000
        edges = [e for p in range(k) for e in
                 ((0, 3 * p + 1), (3 * p + 1, 3 * p + 2), (3 * p + 2, 3 * p + 3), (3 * p + 3, 0))]
        g = Graph([str(i) for i in range(3 * k + 1)], edges)
        started = time.perf_counter()
        result = structural.solve_cpds(g)
        assert time.perf_counter() - started < 2.0
        assert result.method == exact.METHOD_CACTUS and result.optimum == 1

    def test_tree_from_edge_list_text(self):
        """Read and profile a 64k-vertex tree with shuffled labels."""
        rng = random.Random(64)
        n = 64_000
        names = [f"t{i}" for i in range(n)]
        rng.shuffle(names)
        text = "".join(f"{names[i]} {names[rng.randrange(i)]}\n" for i in range(1, n))
        started = time.perf_counter()
        g = load_graph(text)
        info = profile(g)
        assert time.perf_counter() - started < 4.0
        assert (g.n, g.m) == (n, n - 1)
        assert info.graph_class.tree and len(info.decomposition.blocks) == n - 1

    def test_long_path_profile(self):
        g = path_graph(self.N)
        started = time.perf_counter()
        assert recognize(g).path and len(blocks(g).blocks) == self.N - 1
        assert time.perf_counter() - started < 6.0
