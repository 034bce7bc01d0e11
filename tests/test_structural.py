"""Linear-time solvers, segment machinery, and the block decomposition."""

from __future__ import annotations

import os
import random
from itertools import combinations
from types import SimpleNamespace

import pytest

from powerdom import exact, structural
from powerdom import propagation as prop
from powerdom.decomposition import blocks, classify_cut_vertices, cycle_order, recognize
from powerdom.errors import (BudgetExceededError, DecompositionError, GraphClassError, GraphError,
                             PowerDomError, SolverInternalError)
from powerdom.graph_io import load_graph
from powerdom.graphs import (Graph, attach_leaves, bits_of, complete_graph, cycle_graph, iter_bits,
                             path_graph)

from conftest import (
    GENERAL_BLOCKS,
    bowtie,
    chain_of_blocks,
    double_star,
    naive_decompose,
    naive_min_cpds,
    random_block_graph,
    random_block_tree,
    random_cactus,
    random_connected_with_cut_vertex,
    random_tree,
    random_tree_with_chords,
    spider_three_legs,
    subdivide_block_edge,
    two_triangles_bridge,
)


def k4_with_pendant_path() -> Graph:
    g = complete_graph(4)
    return Graph(
        list(g.labels) + ["p1", "p2", "p3"],
        list(g.edges()) + [(0, 4), (4, 5), (5, 6)],
    )


class TestTree:
    def test_long_path(self):
        assert structural.tree_cpds(path_graph(9)).optimum == 1

    def test_double_star(self):
        result = structural.tree_cpds(double_star())
        assert result.optimum == 2 and result.witness == (0, 1)

    def test_spider(self):
        result = structural.tree_cpds(spider_three_legs())
        assert result.witness == (0,)

    def test_rejects_non_tree(self):
        with pytest.raises(GraphClassError):
            structural.tree_cpds(cycle_graph(4))

    def test_oracle_agreement_and_uniqueness(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_tree(rng, rng.randint(2, 12))
            fast = structural.tree_cpds(g)
            size, optima = naive_min_cpds(g, collect_all=True)
            assert fast.optimum == size
            if not recognize(g).path:
                assert tuple(optima) == (fast.witness,)  # unique optimum


class TestTreeEquality:
    def test_paths(self):
        assert structural.tree_pd_equals_cpd(path_graph(7))

    def test_double_star_true(self):
        assert structural.tree_pd_equals_cpd(double_star())

    def test_spider_true(self):
        assert structural.tree_pd_equals_cpd(spider_three_legs())

    def test_joined_double_stars_false(self):
        # centers with two leaves each, joined through a bare middle vertex
        g = Graph(
            ["c1", "mid", "c2", "l1", "l2", "l3", "l4"],
            [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)],
        )
        assert not structural.tree_pd_equals_cpd(g)
        assert exact.min_pds(g).optimum < exact.min_cpds(g).optimum

    def test_characterization_matches_oracles(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_tree(rng, rng.randint(2, 11))
            same = exact.min_pds(g).optimum == exact.min_cpds(g).optimum
            assert structural.tree_pd_equals_cpd(g) == same


class TestBlockGraph:
    def test_two_triangles_bridge(self):
        g = two_triangles_bridge()
        result = structural.block_graph_cpds(g)
        assert result.optimum == 2
        assert result.witness == (2, 3)

    def test_k4_with_pendant_path(self):
        result = structural.block_graph_cpds(k4_with_pendant_path())
        assert result.optimum == 1
        assert result.witness == (0,)

    def test_bowtie(self):
        result = structural.block_graph_cpds(bowtie())
        assert result.optimum == 1 and result.witness == (0,)

    def test_rejects_non_block_graph(self):
        with pytest.raises(GraphClassError):
            structural.block_graph_cpds(cycle_graph(5))

    def test_oracle_agreement(self):
        rng = random.Random(17)
        for _ in range(50):
            g = random_block_graph(rng, rng.randint(2, 13))
            fast = structural.block_graph_cpds(g)
            assert fast.optimum == exact.min_cpds(g).optimum


class TestSegments:
    def _families(self, g):
        taxonomy = classify_cut_vertices(g)
        cycle_blocks = [b for b in blocks(g).blocks if len(b) >= 3]
        assert len(cycle_blocks) == 1
        return structural.feasible_segments(g, cycle_order(g, cycle_blocks[0]), taxonomy)

    def test_antipodal_leaves(self):
        g = Graph(
            ["v1", "v2", "v3", "v4", "v5", "v6", "x", "y"],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (3, 7)],
        )
        family = self._families(g)
        assert family.max_size == 5
        sizes = sorted(seg.size for seg in family.one_cut)
        assert sizes == [5, 5]

    def test_square_with_four_pendants(self):
        g = Graph(
            ["v1", "v2", "v3", "v4", "w1", "w2", "w3", "w4"],
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5), (2, 6), (3, 7)],
        )
        family = self._families(g)
        assert family.two_cut and family.max_size == 2
        assert exact.min_cpds(g).optimum == 2

    def test_reference_instance_family_sizes(self):
        # cycle of 14 with seven cut vertices at gaps 1,2,1,0,1,1,1;
        # positions p1,p3,p4,p5 carry one leaf (class r1), the rest two
        gaps = [1, 2, 1, 0, 1, 1, 1]
        size = 7 + sum(gaps)
        labels = [f"u{i}" for i in range(size)]
        edges = [(i, (i + 1) % size) for i in range(size)]
        position = 0
        anchors = []
        for gap in gaps:
            anchors.append(position)
            position += 1 + gap
        single = {0, 2, 3, 4}
        for i, anchor in enumerate(anchors):
            for j in range(1 if i in single else 2):
                labels.append(f"leaf{i}_{j}")
                edges.append((anchor, len(labels) - 1))
        g = Graph(labels, edges)
        family = self._families(g)
        assert len(family.zero_cut) == 7
        assert len(family.one_cut) == 4
        assert len(family.two_cut) == 1
        assert family.max_size == 4

    def test_reversed_walk_finds_the_same_segments(self):
        """The families as vertex sets, the largest size and the best
        segment's vertex set do not depend on the walk's orientation, and
        the best segment is what cactus_cpds leaves out of the cycle,
        unless the cycle is a triangle without an anchor: a clique then
        gives its least vertex."""
        def vertex_sets(family):
            return [{frozenset(seg.interior) for seg in segs}
                    for segs in (family.zero_cut, family.one_cut, family.two_cut)]

        rng = random.Random(37)
        cut_families = [0, 0]
        cuts_per_cycle = [0, 0, 0, 0]  # cycles with 1, 2, 3 or more cut vertices
        for _ in range(300):
            g = random_cactus(rng, rng.randint(4, 40))
            taxonomy = classify_cut_vertices(g)
            witness = set(structural.cactus_cpds(g).witness)
            for blk in blocks(g).blocks:
                cuts = len(taxonomy.cut_set.intersection(blk))
                if len(blk) < 3 or not cuts:
                    continue
                order = cycle_order(g, blk)
                forward = structural.feasible_segments(g, order, taxonomy)
                backward = structural.feasible_segments(g, order[::-1], taxonomy)
                assert vertex_sets(forward) == vertex_sets(backward)
                assert forward.max_size == backward.max_size
                assert set(forward.best.interior) == set(backward.best.interior)
                if len(blk) >= 4 or set(taxonomy.mandatory).intersection(blk):
                    assert set(blk) - witness == set(forward.best.interior)
                cut_families[0] += bool(forward.one_cut)
                cut_families[1] += bool(forward.two_cut)
                cuts_per_cycle[min(cuts, 3)] += 1
        assert min(cut_families) > 0 and min(cuts_per_cycle[1:]) > 0


class TestCactus:
    def test_pure_cycle(self):
        assert structural.cactus_cpds(cycle_graph(10)).optimum == 1

    def test_antipodal_leaves_instance(self):
        g = Graph(
            ["v1", "v2", "v3", "v4", "v5", "v6", "x", "y"],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (3, 7)],
        )
        assert structural.cactus_cpds(g).optimum == 1  # 8 - 2 - 5

    def test_two_squares_sharing_a_vertex(self):
        g = Graph(
            ["v", "a", "b", "c", "d", "e", "f"],
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        )
        result = structural.cactus_cpds(g)
        assert result.optimum == 1 and result.witness == (0,)

    def test_rejects_non_cactus(self):
        with pytest.raises(GraphClassError):
            structural.cactus_cpds(complete_graph(4))

    def test_oracle_agreement(self):
        rng = random.Random(19)
        for _ in range(50):
            g = random_cactus(rng, rng.randint(2, 13))
            fast = structural.cactus_cpds(g)
            slow = exact.min_cpds(g)
            assert fast.optimum == slow.optimum
            ok, _ = prop.is_power_dominating(g, fast.witness)
            assert ok and prop.is_connected_set(g, fast.witness)


def test_class_solvers_never_search(monkeypatch):
    """Trees, block graphs and cacti have only cliques, bridges and cycles
    as blocks, so their solvers answer by the block rules alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("a class solver searched a piece")

    monkeypatch.setattr(exact, "_grow", refuse)  # the one connected search
    with pytest.raises(AssertionError, match="searched a piece"):
        structural.decompose_cpds(chain_of_blocks(GENERAL_BLOCKS))
    rng = random.Random(41)
    for make, solve in ((random_tree, structural.tree_cpds),
                        (random_block_graph, structural.block_graph_cpds),
                        (random_cactus, structural.cactus_cpds)):
        for _ in range(100):
            solve(make(rng, rng.randint(3, 59)))


class TestDecomposition:
    def test_bowtie(self):
        assert structural.decompose_cpds(bowtie()).optimum == 1

    def test_two_triangles_bridge(self):
        assert structural.decompose_cpds(two_triangles_bridge()).optimum == 2

    def test_spider_hub_only(self):
        result = structural.decompose_cpds(spider_three_legs())
        assert result.optimum == 1 and result.witness == (0,)

    def test_k4_with_pendant_path(self):
        assert structural.decompose_cpds(k4_with_pendant_path()).optimum == 1

    def test_rejects_biconnected_and_paths(self):
        with pytest.raises(GraphClassError):
            structural.decompose_cpds(cycle_graph(5))
        with pytest.raises(GraphClassError):
            structural.decompose_cpds(path_graph(4))

    def test_matches_tree_solver_on_trees(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_tree(rng, rng.randint(3, 12))
            if recognize(g).path:
                continue
            assert structural.decompose_cpds(g).optimum == structural.tree_cpds(g).optimum

    def test_exact_subsolver_agreement(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_connected_with_cut_vertex(rng, rng.randint(4, 11))
            fast = structural.decompose_cpds(g)
            assert fast.optimum == exact.min_cpds(g).optimum


def outcome(solve, g: Graph):
    """Optimum, witness and method of ``solve(g)``, or its error."""
    try:
        result = solve(g)
    except PowerDomError as exc:
        return type(exc).__name__, str(exc)
    return result.optimum, result.witness, result.method


def chorded_cactus(rng: random.Random, n: int) -> Graph:
    """A random cactus with one chord inside one of its cycles of 4 or more
    vertices (when it has one), which makes that cycle a general block."""
    g = random_cactus(rng, n)
    rings = [cycle_order(g, blk) for blk in blocks(g).blocks if len(blk) >= 4]
    if not rings:
        return g
    ring = rng.choice(rings)
    i = rng.randrange(len(ring))
    j = (i + rng.randint(2, len(ring) - 2)) % len(ring)
    return Graph(g.labels, list(g.edges()) + [(ring[i], ring[j])])


def hub_block_tree(rng: random.Random, n: int) -> Graph:
    """General blocks, triangles and single edges, three in four hung on
    vertex 0 or 1, so that those two are hubs of many pieces with rows far
    longer than any piece."""
    edges: list[tuple[int, int]] = []
    count = 1
    while count < n:
        size, block = rng.choice(GENERAL_BLOCKS + ((3, ((0, 1), (1, 2), (0, 2))), (2, ((0, 1),))))
        if count + size - 1 > n:
            size, block = 2, ((0, 1),)
        attach = rng.randrange(min(count, 2)) if rng.random() < 0.75 else rng.randrange(count)
        members = [attach] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(members[a], members[b]) for a, b in block]
    return Graph([str(i) for i in range(n)], edges)


def block_kinds(g: Graph) -> set[str]:
    """The kinds of g's nontrivial blocks: the decomposition solves a clique,
    a bridge or a cycle of 4 or more vertices in place, and searches every
    other block. A block holding no mandatory vertex is the graph's only
    nontrivial block."""
    dec, mandatory = blocks(g), set(classify_cut_vertices(g).mandatory)
    kinds = set()
    for blk, edges, trivial in zip(dec.blocks, dec.edges, dec.trivial):
        if trivial:
            continue
        k = len(blk)
        if mandatory.isdisjoint(blk):
            kinds.add("no anchor")
        elif edges == k * (k - 1) // 2:
            kinds.add("bridge" if k == 2 else "clique")
        else:
            kinds.add("cycle" if edges == k >= 4 else "general")
    return kinds


class TestPieceTable:
    """The decomposition solves each distinct piece once and reuses its
    witness; its answers are those of expanding every piece and solving it
    on its own. Cliques, bridges and cycles are solved in place, and must
    give what expanding them gives."""

    FAMILIES = {
        "block_tree": random_block_tree,
        "block_graph": lambda rng, n: subdivide_block_edge(rng, random_block_graph(rng, n)),
        "tree_with_chords": lambda rng, n: subdivide_block_edge(
            rng, random_tree_with_chords(rng, n, n // 10)),
        "chorded_cactus": lambda rng, n: subdivide_block_edge(rng, chorded_cactus(rng, n)),
        "hub_block_tree": hub_block_tree,
    }
    # the kinds of block each family must show, summed over its graphs
    KINDS = {
        "block_tree": {"bridge", "general"},
        "block_graph": {"bridge", "clique", "cycle"},
        "tree_with_chords": {"bridge", "clique", "cycle", "general"},
        "chorded_cactus": {"bridge", "clique", "cycle", "general"},
        "hub_block_tree": {"bridge", "clique", "general"},
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_naive_decomposition(self, family):
        rng = random.Random(f"pieces/{family}")
        repeated = 0
        kinds: set[str] = set()
        for _ in range(30):
            g = self.FAMILIES[family](rng, rng.randint(12, 120))
            if not blocks(g).cut_vertices or recognize(g).path:
                continue
            copy = Graph(g.labels, g.edges())
            assert outcome(structural.decompose_cpds, g) == outcome(naive_decompose, copy)
            mandatory = set(classify_cut_vertices(g).mandatory)
            pieces = structural.nontrivial_block_subgraphs(g)
            keys = {(g.induced_subgraph(vertices)[0].adj,
                     tuple(vertices.index(v) for v in blk if v in mandatory))
                    for blk, vertices in pieces}
            repeated += len(keys) < len(pieces)
            kinds |= block_kinds(g)
        assert repeated >= 10
        assert self.KINDS[family] <= kinds

    def test_a_hubs_row_cut_to_its_piece_is_its_induced_row(self, monkeypatch):
        """A hub's row is read through each piece far shorter than it; the
        masks each search gets are those of a general piece's induced
        subgraph."""
        grow, searched = exact._grow, []
        monkeypatch.setattr(exact, "_grow",
                            lambda nbr, *args: searched.append(tuple(nbr)) or grow(nbr, *args))
        rng = random.Random("pieces/hubs")
        cut = checked = 0
        for _ in range(20):
            g = hub_block_tree(rng, rng.randint(60, 200))
            longest = max(map(len, g.adj))
            dec = blocks(g)
            edges = dict(zip(dec.blocks, dec.edges))
            general = set()
            for blk, vertices in structural.nontrivial_block_subgraphs(g):
                k = len(blk)
                if edges[blk] not in (k, k * (k - 1) // 2):  # not a cycle, a clique or a bridge
                    general.add(tuple(map(bits_of, g.induced_subgraph(vertices)[0].adj)))
                cut += longest > max(32, 8 * len(vertices))
            searched.clear()
            structural.decompose_cpds(g)
            assert set(searched) <= general
            checked += len(searched)
        assert cut >= 100 and checked >= 20

    def test_each_general_piece_gets_the_subject_to_witness(self):
        """The decomposition runs the growth search on each general piece
        directly; its local witness must be the one the checked front door,
        :func:`exact.min_cpds_subject_to`, gives for the piece and its
        anchors. A piece meets the rest of the union only at its anchors,
        so the union's vertices inside the piece are its local witness."""
        families = dict(self.FAMILIES, cut_vertex=lambda rng, n: random_connected_with_cut_vertex(
            rng, n // 12 + 3))
        apart = 0  # pieces with two anchors that are not adjacent
        for family, make in sorted(families.items()):
            rng = random.Random(f"piece witness/{family}")
            searched = 0
            for _ in range(30):
                g = make(rng, rng.randint(12, 120))
                if not blocks(g).cut_vertices or recognize(g).path:
                    continue
                union = set(structural.decompose_cpds(g).witness)
                dec, mandatory = blocks(g), set(classify_cut_vertices(g).mandatory)
                edges = dict(zip(dec.blocks, dec.edges))
                for blk, vertices in structural.nontrivial_block_subgraphs(g):
                    k = len(blk)
                    if edges[blk] in (k, k * (k - 1) // 2):  # a cycle, a clique or a bridge
                        continue
                    piece = g.induced_subgraph(vertices)[0]
                    anchors = [vertices.index(v) for v in blk if v in mandatory]
                    local = exact.min_cpds_subject_to(piece, anchors).witness
                    assert sorted(union.intersection(vertices)) == [vertices[v] for v in local]
                    searched += 1
                    apart += any(not piece.has_edge(a, b) for a, b in combinations(anchors, 2))
            assert searched >= 10, family
        assert apart >= 100

    @staticmethod
    def corrupted(kind: str, nbr: list[int], anchors: int,
                  best: tuple[int, ...]) -> tuple[int, ...]:
        """``best``, the optimum of the piece with neighbor masks ``nbr``,
        changed by ``kind`` among the vertices only this piece holds (all
        but its anchors, as no piece holds an anchor's pendant path), or as
        it is when it cannot be."""
        chosen, own = bits_of(best), ((1 << len(nbr)) - 1) & ~anchors
        free, outside = chosen & own, own & ~chosen
        top, low = 1 << free.bit_length() >> 1, outside & -outside
        if kind == "anchors only":
            chosen = anchors
        elif kind == "one dropped" and free:
            chosen ^= top
        elif kind == "one swapped" and free and outside:
            chosen ^= top | low
        elif kind == "one added" and outside:
            chosen |= low
        return tuple(iter_bits(chosen))

    @pytest.mark.parametrize("kind", ["anchors only", "one dropped", "one swapped", "one added"])
    def test_the_union_check_catches_every_bad_local_witness(self, kind, monkeypatch):
        """Each piece's search result is corrupted outside its anchors and
        checked on a graph of the piece, as a per-piece certification
        would. The one certification of the union must raise exactly when
        one of those checks fails: a piece meets the rest of the graph
        only at its anchors, which the witness holds."""
        grow = exact._grow
        checks: list[bool] = []

        def corrupt(nbr, seed, rounds, deadline):
            optima, last = grow(nbr, seed, rounds, deadline)
            local = self.corrupted(kind, nbr, seed, optima[0])
            piece = Graph([f"p{v}" for v in range(len(nbr))],
                          [(u, w) for u, m in enumerate(nbr) for w in iter_bits(m)])
            ok, _ = prop.is_power_dominating(piece, local)
            checks.append(ok and prop.is_connected_set(piece, local))
            return [local], last

        monkeypatch.setattr(exact, "_grow", corrupt)
        families = dict(self.FAMILIES, cut_vertex=random_connected_with_cut_vertex)
        caught = passed = 0
        for family, make in sorted(families.items()):
            rng = random.Random(f"corrupt/{family}")
            for _ in range(30):
                g = make(rng, rng.randint(8, 14 if family == "cut_vertex" else 80))
                if not blocks(g).cut_vertices or recognize(g).path:
                    continue
                checks.clear()
                try:
                    structural.decompose_cpds(g)
                except SolverInternalError:
                    assert not all(checks)
                    caught += 1
                else:
                    assert all(checks)
                    passed += checks != []
        assert caught >= 20 and passed >= 20

    def test_a_local_witness_without_an_anchor_breaks_the_count(self, monkeypatch):
        """The union still holds the dropped anchor, so it certifies; only
        the count of the vertices the pieces add catches the bad witness."""
        grow = exact._grow

        def drop_an_anchor(nbr, seed, rounds, deadline):
            optima, last = grow(nbr, seed, rounds, deadline)
            low = (seed & -seed).bit_length() - 1
            return [tuple(v for v in optima[0] if v != low)], last

        monkeypatch.setattr(exact, "_grow", drop_an_anchor)
        with pytest.raises(DecompositionError, match="^recombined witness has "):
            structural.decompose_cpds(chain_of_blocks(GENERAL_BLOCKS))

    def test_one_certification_per_solve(self, monkeypatch):
        """Several distinct pieces, and only the recombined witness is
        certified, on the whole graph."""
        g = chain_of_blocks(GENERAL_BLOCKS * 2)
        mandatory = set(classify_cut_vertices(g).mandatory)
        keys = {(g.induced_subgraph(vertices)[0].adj,
                 tuple(vertices.index(v) for v in blk if v in mandatory))
                for blk, vertices in structural.nontrivial_block_subgraphs(g)}
        assert len(keys) >= 4
        certified = []
        certify = structural.certify
        monkeypatch.setattr(structural, "certify",
                            lambda h, *args, **kw: certified.append(h) or certify(h, *args, **kw))
        result = structural.decompose_cpds(g)
        assert certified == [g]
        naive = naive_decompose(Graph(g.labels, g.edges()))
        assert (result.optimum, result.witness) == (naive.optimum, naive.witness)

    def test_a_block_without_an_anchor_is_solved_in_place(self, monkeypatch):
        """The cycle of the toy cactus holds no mandatory vertex; it is the
        graph's only nontrivial block and is solved in place, as a cycle."""
        path = os.path.join(os.path.dirname(__file__), "data", "toy_cactus.edges")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        g = load_graph(text)
        assert block_kinds(g) == {"no anchor"}
        solved = []
        grow = exact._grow
        monkeypatch.setattr(exact, "_grow", lambda h, *args: solved.append(len(h)) or grow(h, *args))
        result = structural.decompose_cpds(g)
        monkeypatch.undo()
        assert solved == []
        assert outcome(lambda h: result, g) == outcome(naive_decompose, load_graph(text))
        assert g.labels_of(result.witness) == ("v1",)

    def test_time_budget_bounds_the_whole_decomposition(self, monkeypatch):
        """On a fake clock that moves one second per piece searched, each of
        the four pieces fits in the budget on its own but all four do not."""
        now = [0.0]
        monkeypatch.setattr(exact, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        grow = exact._grow

        def slow(h, *args):
            now[0] += 1
            return grow(h, *args)

        monkeypatch.setattr(exact, "_grow", slow)
        g = chain_of_blocks(GENERAL_BLOCKS)
        assert len(structural.nontrivial_block_subgraphs(g)) == 4
        with pytest.raises(BudgetExceededError):
            structural.decompose_cpds(g, budget=exact.Budget(max_seconds=2.5))
        assert now[0] == 3
        result = structural.solve_cpds(g, budget=exact.Budget(max_seconds=4.5))
        assert result.method == exact.METHOD_DECOMPOSITION and now[0] == 7

    @staticmethod
    def with_pendant_pairs(g: Graph, at) -> Graph:
        """``g`` with a two-vertex pendant path hung on each vertex of ``at``."""
        labels, edges = list(g.labels), list(g.edges())
        for v in at:
            labels += [f"p{v}", f"q{v}"]
            edges += [(v, len(labels) - 2), (len(labels) - 2, len(labels) - 1)]
        return Graph(labels, edges)

    @pytest.mark.parametrize("at", [(0, 1, 2, 3, 4, 5), (0, 2, 3), (1, 4)],
                             ids=["every vertex", "three vertices", "two vertices"])
    def test_a_lone_block_without_an_anchor(self, at):
        """One clique, cycle or general block wearing single pendant paths
        has no mandatory vertex; the decomposition gives the optimum and
        witness of the plain search."""
        wheel = Graph([f"w{i}" for i in range(6)],
                      [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
        for block in (complete_graph(4), cycle_graph(6), wheel):
            g = self.with_pendant_pairs(block, [v for v in at if v < block.n])
            assert block_kinds(g) == {"no anchor"}
            expected = exact.min_cpds(g)
            assert outcome(structural.decompose_cpds, g) == (
                expected.optimum, expected.witness, exact.METHOD_DECOMPOSITION)

    def test_a_lone_triangle_without_an_anchor_gives_its_least_vertex(self):
        """The triangle a-b-c with the path c-d-e hung on c is a block graph
        and a cactus; every solver gives the triangle's least vertex."""
        g = Graph(["a", "b", "c", "d", "e"], [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert block_kinds(g) == {"no anchor"}
        for solve in (structural.cactus_cpds, structural.block_graph_cpds,
                      structural.solve_cpds, structural.decompose_cpds):
            result = solve(g)
            assert (result.optimum, g.labels_of(result.witness)) == (1, ("a",))
        assert exact.min_cpds(g).witness == (0,)

    @staticmethod
    def chorded_ring_with_triangles() -> Graph:
        """A 20-cycle with chords v0-v10 and v5-v15 (a general block of 20
        vertices), a triangle at v3 and at v13, and a leaf on each triangle
        vertex off the ring: the block's piece holds two mandatory vertices,
        so its leaf expansion would have 26 vertices."""
        labels = [f"v{i}" for i in range(20)]
        edges = [(i, (i + 1) % 20) for i in range(20)] + [(0, 10), (5, 15)]
        for hub in (3, 13):
            a, b, la, lb = range(len(labels), len(labels) + 4)
            labels += [f"a{hub}", f"b{hub}", f"la{hub}", f"lb{hub}"]
            edges += [(hub, a), (hub, b), (a, b), (a, la), (b, lb)]
        return Graph(labels, edges)

    def test_a_piece_is_checked_against_the_budget_at_its_own_size(self):
        g = self.chorded_ring_with_triangles()
        assert block_kinds(g) == {"clique", "general"}
        assert max(len(vertices) for _, vertices in
                   structural.nontrivial_block_subgraphs(g)) == 20
        result = structural.decompose_cpds(g)
        assert result.optimum == 6
        assert g.labels_of(result.witness) == ("v3", "v4", "v5", "v13", "v14", "v15")
        naive = naive_decompose(Graph(g.labels, g.edges()))
        assert (result.optimum, result.witness) == (naive.optimum, naive.witness)

    def test_a_piece_over_the_budget_names_its_own_size(self):
        """A 25-cycle with a chord and a triangle hung on one vertex: the
        general piece has 25 vertices (28 with its leaf expansion)."""
        labels = [f"v{i}" for i in range(25)] + ["a", "b"]
        edges = [(i, (i + 1) % 25) for i in range(25)] + [(0, 12), (3, 25), (3, 26), (25, 26)]
        with pytest.raises(BudgetExceededError, match="graph has 25 vertices, budget allows 24"):
            structural.decompose_cpds(Graph(labels, edges))

    @pytest.mark.parametrize("petals,leaves", [(3, 21), (200, 200)])
    def test_a_hubs_leaves_stay_out_of_its_pieces(self, petals, leaves):
        """Diamonds and leaves on one hub, which every witness holds: each
        piece is a diamond of 4 vertices, within the default budget of 24,
        and the hub alone colors the graph."""
        g = attach_leaves(flower(petals, "diamond"), [0], leaves)
        pieces = structural.nontrivial_block_subgraphs(g)
        assert [len(vertices) for _, vertices in pieces] == [4] * petals
        result = structural.solve_cpds(g)
        assert (result.optimum, result.method) == (1, exact.METHOD_DECOMPOSITION)
        assert g.labels_of(result.witness) == ("v0",)


def flower(k: int, petal: str) -> Graph:
    """k petals on one hub, vertex 0: diamonds (K4 less the edge from the
    hub to the petal's far vertex), general blocks, or triangles with a
    leaf, cliques."""
    edges = []
    for i in range(k):
        x, y, z = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(0, x), (0, y), (x, y), (y, z)] + ([(x, z)] if petal == "diamond" else [])
    return Graph([f"v{i}" for i in range(3 * k + 1)], edges)


@pytest.mark.parametrize("petal,leaves,solve", [
    ("diamond", 0, structural.solve_cpds),
    ("diamond", 200, structural.solve_cpds),
    ("diamond", 0, structural.nontrivial_block_subgraphs),
    ("triangle", 0, structural.nontrivial_block_subgraphs),
], ids=["diamond-solve_cpds", "diamond-leaves-solve_cpds", "diamond-pieces", "triangle-pieces"])
def test_a_hub_of_many_pieces_is_read_in_linear_time(petal, leaves, solve):
    """Every row entry read, the analysis and the certification included,
    is counted: a flower of 200 petals, with or without 200 leaves on its
    hub, reads at most 8 (n + m) of them. A piece used to read its hub's
    whole row, 400 entries, so the flower read about 50 (n + m) entries,
    and k petals took O(k^2) time."""
    reads = [0]

    class Row(tuple):
        def __iter__(self):
            reads[0] += len(self)
            return super().__iter__()

        def __getitem__(self, i):
            reads[0] += len(range(len(self))[i]) if isinstance(i, slice) else 1
            return super().__getitem__(i)

        def __contains__(self, v):
            reads[0] += len(self)
            return super().__contains__(v)

    g = flower(200, petal)
    if leaves:
        g = attach_leaves(g, [0], leaves)
    g.adj = tuple(map(Row, g.adj))
    solve(g)
    assert 0 < reads[0] <= 8 * (g.n + g.m)


class TestAutoDispatch:
    def test_routes_to_strongest_method(self):
        assert structural.solve_cpds(path_graph(5)).method == "tree"
        assert structural.solve_cpds(bowtie()).method == "block"
        g = Graph(
            ["v1", "v2", "v3", "v4", "v5", "x"],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)],
        )
        assert structural.solve_cpds(g).method == "cactus"
        assert structural.solve_cpds(cycle_graph(5)).method == "cactus"
        from conftest import complete_bipartite

        assert structural.solve_cpds(complete_bipartite(2, 3)).method == "brute"

    def test_decompose_route_for_general_cut_graphs(self):
        g = complete_graph(4)
        g = Graph(
            list(g.labels) + ["w1", "w2", "w3", "w4"],
            list(g.edges()) + [(0, 4), (4, 5), (5, 6), (6, 7), (7, 4)],
        )
        result = structural.solve_cpds(g)
        assert result.method == "decomposition"
        assert result.optimum == exact.min_cpds(g).optimum


@pytest.mark.parametrize("call, error, message", [
    (lambda: structural.solve_cpds(path_graph(4), "bogus"), GraphError,
     "unknown method 'bogus'"),
    (lambda: structural.tree_pd_equals_cpd(cycle_graph(5)), GraphClassError,
     "input is not a tree"),
    (lambda: structural.feasible_segments(cycle_graph(5), [0, 2, 1, 3, 4],
                                          classify_cut_vertices(cycle_graph(5))),
     GraphError, "vertex list is not a cycle in traversal order"),
], ids=["method", "not a tree", "misordered cycle"])
def test_each_refusal_is_one_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
