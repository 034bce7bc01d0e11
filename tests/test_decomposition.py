"""Blocks, cut-vertex taxonomy, and class recognition."""

from __future__ import annotations

import random

import pytest

from powerdom.decomposition import (
    blocks,
    classify_cut_vertices,
    cycle_order,
    profile,
    recognize,
)
from powerdom.errors import DisconnectedError, GraphError
from powerdom.graph_io import load_graph
from powerdom.graphs import (
    Graph,
    attach_leaves,
    bits_of,
    complete_graph,
    cycle_graph,
    path_graph,
)
from powerdom.structural import cactus_cpds

from conftest import (
    bowtie,
    naive_components_without,
    random_cactus,
    random_connected_graph,
    spider_three_legs,
)


class TestBlocks:
    def test_bowtie(self):
        dec = blocks(bowtie())
        assert dec.blocks == ((0, 1, 2), (0, 3, 4))
        assert dec.cut_vertices == (0,)

    def test_path(self):
        dec = blocks(path_graph(4))
        assert dec.blocks == ((0, 1), (1, 2), (2, 3))
        assert dec.cut_vertices == (1, 2)

    def test_cycle(self):
        dec = blocks(cycle_graph(5))
        assert dec.blocks == ((0, 1, 2, 3, 4),)
        assert dec.cut_vertices == ()

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            blocks(Graph(["a", "b", "c"], [(0, 1)]))

    def test_block_tree_incidence(self):
        dec = blocks(bowtie())
        incidence = [(i, v) for i, blk in enumerate(dec.blocks)
                     for v in blk if v in dec.cut_vertices]
        assert incidence == [(0, 0), (1, 0)]

    def test_trivial_flags_cover_pendant_chain_and_attachment(self):
        # K4 with a pendant path of length 3 on vertex 0
        g = complete_graph(4)
        g = Graph(
            list(g.labels) + ["p1", "p2", "p3"],
            list(g.edges()) + [(0, 4), (4, 5), (5, 6)],
        )
        dec = blocks(g)
        flags = dict(zip(dec.blocks, dec.trivial))
        assert flags[(0, 1, 2, 3)] is False
        assert flags[(0, 4)] is True  # attachment edge lies on the pendant chain
        assert flags[(4, 5)] is True and flags[(5, 6)] is True

    def test_random_against_naive_component_count(self):
        rng = random.Random(101)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 50))
            dec = blocks(g)
            cuts = set(dec.cut_vertices)
            for v in range(g.n):
                naive = naive_components_without(g, v)
                assert (naive >= 2) == (v in cuts)

    def test_edges_partition_into_blocks(self):
        rng = random.Random(55)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 30))
            dec = blocks(g)
            counted = 0
            for blk in dec.blocks:
                members = set(blk)
                counted += sum(1 for u, v in g.edges() if u in members and v in members)
            assert counted == g.m
            # block-cut tree identity: the sum always collapses to n - 1,
            # and the graph is a tree exactly when every block is one edge
            total = sum(len(blk) - 1 for blk in dec.blocks)
            assert total == g.n - 1
            assert all(len(blk) == 2 for blk in dec.blocks) == (g.m == g.n - 1)


class TestTaxonomy:
    def test_star_center(self):
        g = Graph(["c", "l1", "l2", "l3"], [(0, 1), (0, 2), (0, 3)])
        tax = classify_cut_vertices(g)
        assert tax.r3 == (0,)
        assert tax.mandatory == (0,)

    def test_path_is_all_empty(self):
        tax = classify_cut_vertices(path_graph(6))
        assert tax.mandatory == ()
        assert tax.r1 == tax.r2 == tax.r3 == ()
        assert tax.pendant_paths == ()

    def test_spider(self):
        tax = classify_cut_vertices(spider_three_legs())
        assert tax.r3 == (0,)
        assert tax.r1 == (1, 3, 5)
        assert tax.mandatory == (0,)
        assert tax.pendant_paths == ((0, (1, 2)), (0, (3, 4)), (0, (5, 6)))

    def test_bowtie_center_is_r2(self):
        tax = classify_cut_vertices(bowtie())
        assert tax.r2 == (0,)
        assert tax.pendant_count[0] == 0

    def test_pendant_paths_base_first_and_degree_bound(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 25))
            tax = classify_cut_vertices(g)
            seen: set[int] = set()
            for attach, chain in tax.pendant_paths:
                assert g.has_edge(attach, chain[0])
                assert g.degree(chain[-1]) == 1
                for v in chain:
                    assert g.degree(v) <= 2
                assert not seen & set(chain)
                seen.update(chain)

    def test_random_against_naive_definitions(self):
        rng = random.Random(303)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(3, 25))
            tax = classify_cut_vertices(g)
            if recognize(g).path:
                continue
            for v in tax.r1:
                assert naive_components_without(g, v) == 2
                assert tax.pendant_count[v] == 1
            for v in tax.r2:
                assert naive_components_without(g, v) == 2
                assert tax.pendant_count[v] == 0
            for v in tax.r3:
                assert naive_components_without(g, v) >= 3
            cuts = set(blocks(g).cut_vertices)
            assert set(tax.r1) | set(tax.r2) | set(tax.r3) == cuts

    def test_attach_leaves_forces_r3(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 12))
            targets = sorted(rng.sample(range(g.n), rng.randint(1, g.n // 2 + 1)))
            grown = attach_leaves(g, targets, 2)
            tax = classify_cut_vertices(grown)
            for v in targets:
                assert v in tax.r3


class TestRecognize:
    def test_cycle_flags(self):
        info = recognize(cycle_graph(6))
        assert info.cycle and info.cactus
        assert not info.block_graph and not info.tree

    def test_complete_graph_flags(self):
        info = recognize(complete_graph(4))
        assert info.block_graph and not info.cactus and not info.cycle

    def test_triangle_is_both(self):
        info = recognize(complete_graph(3))
        assert info.cycle and info.cactus and info.block_graph

    def test_two_triangles_bridge_is_both(self):
        from conftest import two_triangles_bridge

        info = recognize(two_triangles_bridge())
        assert info.cactus and info.block_graph and not info.tree

    def test_single_vertex(self):
        info = recognize(Graph(["x"], []))
        assert info.path and info.tree and info.block_graph and info.cactus

    def test_implications_hold_on_random_graphs(self):
        rng = random.Random(999)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(1, 20))
            info = recognize(g)
            if info.path:
                assert info.tree
            if info.tree:
                assert info.block_graph and info.cactus
                assert g.m == g.n - 1
            if info.tree:
                assert info.block_graph or info.cactus

    def test_cycle_order_orientation(self):
        g = cycle_graph(5)
        order = cycle_order(g, (0, 1, 2, 3, 4))
        assert order[0] == 0 and order[1] == 1
        assert bits_of(order) == bits_of(range(5))


def cycle_order_by_scan(g: Graph, block: tuple[int, ...]) -> tuple[int, ...]:
    """The orientation rule read off the adjacency lists: start at the
    smallest vertex, step to its smaller neighbor in the block, then on."""
    members = set(block)
    start = min(members)
    order = [start, min(w for w in g.adj[start] if w in members)]
    while len(order) < len(members):
        prev, cur = order[-2], order[-1]
        order.append(next(w for w in g.adj[cur] if w in members and w != prev))
    return tuple(order)


def shuffled(rng: random.Random, g: Graph) -> Graph:
    """``g`` with its vertices renumbered and its edge list reordered, so
    the DFS meets each cycle from a random vertex in a random direction."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in g.edges()]
    rng.shuffle(edges)
    return Graph([str(i) for i in range(g.n)], edges)


class TestCycleOrder:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_adjacency_scan(self, seed):
        rng = random.Random(seed)
        for g in (shuffled(rng, random_cactus(rng, rng.randint(3, 80))),
                  shuffled(rng, random_connected_graph(rng, rng.randint(3, 30), 3))):
            for blk in blocks(g).blocks:
                members = set(blk)
                if len(blk) < 3:
                    continue
                if all(sum(w in members for w in g.adj[v]) == 2 for v in blk):
                    assert cycle_order(g, blk) == cycle_order_by_scan(g, blk)
                else:
                    with pytest.raises(GraphError):
                        cycle_order(g, blk)

    def test_rejects_blocks_that_are_not_cycles(self):
        """A clique, part of one, a bridge, no vertex at all and a tuple
        past the last block get one message."""
        for g, block in ((complete_graph(4), (0, 1, 2, 3)), (complete_graph(4), (0, 1, 2)),
                         (path_graph(3), (0, 1)), (path_graph(3), ()),
                         (cycle_graph(4), (0, 1, 2, 3, 4))):
            with pytest.raises(GraphError, match="^block is not a cycle$"):
                cycle_order(g, block)


class TestWalks:
    """Each cycle's walk sits beside its block in a plain record, which no
    caller can change under the cached profile."""

    TEXT = "a b\nb c\nc d\nd a\na x\nc y\n"  # a 4-cycle with a leaf on two opposite vertices

    def test_a_walk_lies_beside_each_cycle_block(self):
        rng = random.Random("walks")
        for _ in range(40):
            g = random_cactus(rng, rng.randint(3, 40))
            dec = blocks(g)
            assert type(dec.walks) is tuple and len(dec.walks) == len(dec.blocks)
            for blk, edges, walk in zip(dec.blocks, dec.edges, dec.walks):
                assert (walk is not None) == (len(blk) == edges >= 3)
                assert walk is None or tuple(sorted(walk)) == blk
        assert blocks(path_graph(4)).walks == (None,) * 3

    def test_the_cached_walks_cannot_be_changed(self):
        g = load_graph(self.TEXT)
        walks = blocks(g).walks
        with pytest.raises(TypeError):
            walks[0] = ()
        for _ in range(2):
            assert g.labels_of(cactus_cpds(g).witness) == ("a",)

    def test_a_profile_hashes_and_equals_a_fresh_one(self):
        first, second = profile(load_graph(self.TEXT)), profile(load_graph(self.TEXT))
        assert first == second and hash(first) == hash(second)
        assert first is not second
