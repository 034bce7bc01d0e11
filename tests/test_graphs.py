"""Graph construction, ingestion, and surgery."""

from __future__ import annotations

import io
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import cli, exact, milp, propagation, spread, structural
from powerdom.errors import GraphError, ParseError
from powerdom.graph_io import dump_edgelist, load_graph
from powerdom.graphs import (
    Graph,
    attach_leaves,
    complete_graph,
    cycle_graph,
    iter_bits,
    path_graph,
)

from conftest import (
    naive_components,
    naive_is_connected_set,
    random_block_graph,
    random_block_tree,
    random_cactus,
    random_connected_graph,
    random_tree_with_chords,
)


def seeded_graphs(seed: str, count: int):
    """Seeded graphs of several shapes, triangles and 4-cycles included,
    so that contractions merge rows."""
    rng = random.Random(seed)
    makers = (random_connected_graph, random_cactus, random_block_graph, random_block_tree,
              lambda rng, n: random_tree_with_chords(rng, n, n // 4))
    for i in range(count):
        yield rng, makers[i % len(makers)](rng, rng.randint(3, 40))


# every line boundary of str.splitlines, and whitespace that is not one
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")
SPACES = (" ", "  ", "\t", " \t ", "\xa0", "\u2003", "\u3000", "\x1f")


def noisy_lines(rng: random.Random, pairs: list[tuple[str, str]], comments: bool) -> list[str]:
    """One line per pair, with random separators and padding and blank
    lines mixed in; with ``comments``, comment lines and trailing comments."""
    blanks = ["", "   ", "\t\xa0"] + (["# comment", "\t# a b"] if comments else [])
    lines = [rng.choice(["", " ", "\u3000"]) + a + rng.choice(SPACES) + b + rng.choice(["", "\t"])
             for a, b in pairs]
    for at in range(0, len(lines), 7):
        lines.insert(at, rng.choice(blanks))
    if comments:
        lines = [line + "  # trailing" if rng.random() < 0.2 else line for line in lines]
        lines.insert(rng.randint(0, len(lines)), "# edges")
    return lines


def joined(rng: random.Random, lines: list[str]) -> str:
    """The lines, each ended by a random line boundary."""
    return "".join(line + rng.choice(LINE_BREAKS) for line in lines)


def assert_same_graph(got: Graph, expected: Graph) -> None:
    assert (got.labels, got.adj, got.m) == (expected.labels, expected.adj, expected.m)
    assert [got.index(lab) for lab in got.labels] == [
        expected.index(lab) for lab in expected.labels]


class TestConstruction:
    def test_adjacency_is_sorted_and_symmetric(self):
        g = Graph(["a", "b", "c"], [(2, 0), (0, 1)])
        assert g.adj == ((1, 2), (0,), (0,))
        for u in range(g.n):
            for v in g.adj[u]:
                assert u in g.adj[v]

    def test_loops_and_duplicates_dropped(self):
        g = Graph(["a", "b"], [(0, 0), (0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GraphError):
            Graph(["a", "a"], [])

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            Graph([], [])

    @pytest.mark.parametrize("make, message", [
        (lambda: Graph(["a", "b"], [(0, 2)]), "edge (0, 2) out of range for n=2"),
        (lambda: Graph.from_labeled_edges([]), "graph must have at least one vertex"),
    ], ids=["endpoint out of range", "no pair"])
    def test_refusal_names_its_cause(self, make, message):
        with pytest.raises(GraphError) as info:
            make()
        assert (type(info.value), str(info.value)) == (GraphError, message)

    @pytest.mark.parametrize("edge", [(0.5, 1), ("1", 0), (None, 0), (True, False)])
    def test_non_integer_endpoint_rejected(self, edge):
        message = f"^edge {re.escape(repr(edge))} has a non-integer endpoint$"
        with pytest.raises(GraphError, match=message):
            Graph(["a", "b"], [edge])

    @pytest.mark.parametrize("edge", [(0, 1, 1), (0,), 5])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        message = f"^edge {re.escape(repr(edge))} is not a pair of vertex ids$"
        with pytest.raises(GraphError, match=message):
            Graph(["a", "b"], [edge])

    @pytest.mark.parametrize("labels", [[1, 2], ["a", None], ["a", b"b"], ["a", 1.5]])
    def test_non_string_label_rejected(self, labels):
        bad = next(lab for lab in labels if type(lab) is not str)
        message = f"^vertex label {re.escape(repr(bad))} is not a string$"
        with pytest.raises(GraphError, match=message):
            Graph(labels, [(0, 1)])
        with pytest.raises(GraphError, match=message):
            Graph.from_labeled_edges([tuple(labels)])

    @pytest.mark.parametrize("pairs,bad", [
        ([([1], "a")], [1]),
        ([("a", {"x": 1})], {"x": 1}),
        ([("a", "b"), ("c", [2]), ({3}, "d")], [2]),
    ])
    def test_unhashable_label_rejected(self, pairs, bad):
        message = f"^vertex label {re.escape(repr(bad))} is not a string$"
        with pytest.raises(GraphError, match=message):
            Graph.from_labeled_edges(pairs)

    def test_label_lookup(self):
        g = path_graph(3)
        assert g.index("v2") == 1
        assert g.labels_of([0, 2]) == ("v1", "v3")
        assert g.labels_of(iter([2, 0, 2])) == ("v3", "v1", "v3")
        with pytest.raises(GraphError):
            g.index("nope")


class TestLoaders:
    def test_edgelist_path(self):
        g = load_graph("a b\nb c")
        assert (g.n, g.m) == (3, 2)
        assert g.labels == ("a", "b", "c")

    def test_edgelist_triangle_dimacs(self):
        g = load_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", "dimacs")
        assert (g.n, g.m) == (3, 3)
        assert g.labels == ("1", "2", "3")

    def test_edgelist_cleaning(self):
        g = load_graph("a a\na b\na b")
        assert (g.n, g.m) == (2, 1)

    def test_edgelist_comments_and_blanks(self):
        g = load_graph("# header\n\na b  # trailing\nb c\n")
        assert (g.n, g.m) == (3, 2)

    def test_edgelist_bad_token_count(self):
        with pytest.raises(ParseError) as info:
            load_graph("a b c\n")
        assert "line 1" in str(info.value)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            load_graph("# nothing\n")

    def test_dimacs_out_of_range(self):
        with pytest.raises(ParseError) as info:
            load_graph("p edge 2 1\ne 1 5\n", "dimacs")
        assert "line 2" in str(info.value)

    def test_matrixmarket(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% a triangle\n"
            "3 3 3\n"
            "2 1\n"
            "3 1\n"
            "3 2\n"
        )
        g = load_graph(text, "matrixmarket")
        assert (g.n, g.m) == (3, 3)

    @pytest.mark.parametrize("text, fmt, message", [
        ("p edge 1_0 1\ne 1_0 2\n", "dimacs", "line 1: non-integer size in problem line"),
        ("p edge \u0663 1\ne 1 2\n", "dimacs", "line 1: non-integer size in problem line"),
        ("p edge 3 1_0\n", "dimacs", "line 1: non-integer size in problem line"),
        ("p edge 10 1\ne 1_0 2\n", "dimacs", "line 2: non-integer endpoint"),
        ("p edge 3 1\ne 1 \u0662\n", "dimacs", "line 2: non-integer endpoint"),
        ("%%MatrixMarket matrix coordinate pattern symmetric\n1_0 10 1\n2 1\n",
         "matrixmarket", "line 2: non-integer size line"),
        ("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 \u0661\n2 1\n",
         "matrixmarket", "line 2: non-integer size line"),
        ("%%MatrixMarket matrix coordinate pattern symmetric\n10 10 1\n1_0 1\n",
         "matrixmarket", "line 3: non-integer entry"),
        ("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n\u0663 1\n",
         "matrixmarket", "line 3: non-integer entry"),
    ])
    def test_indexed_formats_read_ascii_integers_only(self, text, fmt, message):
        """An underscore or a non-ASCII digit, which int() alone reads, is
        refused as the model readers refuse it, naming the line."""
        with pytest.raises(ParseError) as info:
            load_graph(text, fmt)
        assert str(info.value) == message

    MM = "%%MatrixMarket matrix coordinate pattern symmetric\n"

    @pytest.mark.parametrize("text, fmt, message", [
        ("p edge 2 1\np edge 2 1\n", "dimacs", "line 2: duplicate problem line"),
        ("p col 2 1\n", "dimacs", "line 1: expected 'p edge <n> <m>'"),
        ("p edge 0 0\n", "dimacs", "line 1: empty graph: vertex count must be positive"),
        ("e 1 2\np edge 2 1\n", "dimacs", "line 1: edge before problem line"),
        ("p edge 2 1\ne 1\n", "dimacs", "line 2: expected 'e <u> <v>'"),
        ("p edge 2 1\nx 1 2\n", "dimacs", "line 2: unknown line type 'x'"),
        ("c a comment only\n", "dimacs", "missing problem line"),
        ("", "matrixmarket", "empty file"),
        ("%%MatrixMarket matrix coordinate\n3 3 0\n", "matrixmarket",
         "line 1: expected '%%MatrixMarket matrix coordinate pattern symmetric'"),
        (MM + "3 3\n", "matrixmarket", "line 2: expected '<rows> <cols> <entries>'"),
        (MM + "2 3 0\n", "matrixmarket", "line 2: adjacency matrix must be square"),
        (MM + "0 0 0\n", "matrixmarket", "line 2: empty graph: matrix has no rows"),
        (MM + "2 2 1\n1\n", "matrixmarket", "line 3: expected '<row> <col>'"),
        (MM + "2 2 1\n3 1\n", "matrixmarket", "line 3: entry out of range 1..2"),
        (MM + "% a comment only\n", "matrixmarket", "missing size line"),
    ])
    def test_indexed_formats_refuse_each_malformed_line(self, text, fmt, message):
        with pytest.raises(ParseError) as info:
            load_graph(text, fmt)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, fmt, message", [
        ("p edge 2 1\ne 1\n", "dimacs", "line 2: expected 'e <u> <v>'"),
        (MM + "2 3 0\n", "matrixmarket", "line 2: adjacency matrix must be square"),
    ])
    def test_the_cli_reports_an_indexed_refusal_in_one_line(self, text, fmt, message):
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["solve", "-", "--input-format", fmt], out, err, io.StringIO(text))
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"parse error: {message}\n")

    def test_matrixmarket_rejects_other_fields(self):
        with pytest.raises(ParseError):
            load_graph("%%MatrixMarket matrix coordinate real general\n1 1 0\n", "matrixmarket")

    def test_matrixmarket_entry_count_mismatch(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n2 1\n"
        with pytest.raises(ParseError):
            load_graph(text, "matrixmarket")

    def test_edgelist_matches_the_validating_constructor(self):
        """With repeated edges, loops, blank lines, every kind of line break
        and tabs and non-ASCII spaces inside lines, and with comments in a
        third of the texts, the reader's graph equals Graph(labels by first
        appearance, edges)."""
        read_whole = 0
        for i, (rng, g) in enumerate(seeded_graphs("loaders", 90)):
            pairs = [(g.labels[u], g.labels[v]) for u, v in g.edges()]
            pairs += rng.sample(pairs, len(pairs) // 3) + [(lab, lab) for lab in g.labels[:3]]
            pairs = [pair[::-1] if rng.random() < 0.5 else pair for pair in pairs]
            rng.shuffle(pairs)
            text = joined(rng, noisy_lines(rng, pairs, comments=i % 3 == 0))
            read_whole += "#" not in text
            index: dict[str, int] = {}
            for pair in pairs:
                for lab in pair:
                    index.setdefault(lab, len(index))
            expected = Graph(list(index), [(index[a], index[b]) for a, b in pairs])
            assert_same_graph(load_graph(text), expected)
        assert read_whole == 60

    def test_every_line_break_is_whitespace_to_split(self):
        """The reader takes the tokens of comment-free text from one split
        of the whole text, which needs every line boundary to be whitespace."""
        breaks = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2]
        assert set(breaks) == {brk for brk in LINE_BREAKS if len(brk) == 1}
        for brk in LINE_BREAKS:
            assert f"a{brk}b".split() == f"a{brk}b".splitlines() == ["a", "b"]

    @pytest.mark.parametrize("bad", ["lonely", "x y z", "p\tq\u2003r", "a\xa0b c d"])
    def test_edgelist_bad_line_is_named(self, bad):
        """A line without exactly two tokens is refused with its number as
        str.splitlines counts it, with or without comments in the text."""
        rng = random.Random(bad)
        for trial in range(40):
            pairs = [(f"v{rng.randrange(20)}", f"v{rng.randrange(20)}")
                     for _ in range(rng.randint(1, 30))]
            lines = noisy_lines(rng, pairs, comments=trial % 2 == 0)
            lines.insert(rng.randint(0, len(lines)), bad)
            text = joined(rng, lines)
            no = text.splitlines().index(bad) + 1
            with pytest.raises(ParseError) as info:
                load_graph(text)
            assert str(info.value) == (
                f"line {no}: expected two labels, got {len(bad.split())} tokens")
            assert info.value.line == no

    def test_dump_roundtrip(self):
        """Every vertex comes back, one without an edge as a loop line."""
        for g in (random_connected_graph(random.Random(7), 9),
                  Graph(["a", "b", "c"], [(0, 1)]),
                  Graph(["x"], []),
                  Graph(["c", "a", "b", "d"], [(1, 2), (2, 3)]),
                  Graph(["u", "v", "w"], [])):
            again = load_graph(dump_edgelist(g))
            original = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
            loaded = {frozenset((again.labels[u], again.labels[v])) for u, v in again.edges()}
            assert loaded == original
            assert set(again.labels) == set(g.labels)

    @pytest.mark.parametrize("label", ["a#b", "a#", "#a", "", "a b", "a\tb", "a\u2028b",
                                       "a\x1fb"])
    def test_dump_refuses_labels_it_cannot_read_back(self, label):
        g = Graph([label, "c", "d"], [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="cannot be written as edge list"):
            dump_edgelist(g)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("ab#é- \t\n\r\x1c\x85\xa0\u2028", max_size=3),
                min_size=1, max_size=6, unique=True), st.integers(0, 5))
def test_dump_round_trip_or_refusal(labels, edges):
    """A path over the first labels and the rest isolated, so first
    appearance keeps the ids: dumped text reads back as the same graph,
    and the writer refuses exactly the labels the reader would split or
    cut (empty, with whitespace or '#')."""
    g = Graph(labels, [(i, i + 1) for i in range(min(edges, len(labels) - 1))])
    unreadable = any(not lab or "#" in lab or any(ch.isspace() for ch in lab) for lab in labels)
    try:
        text = dump_edgelist(g)
    except GraphError:
        assert unreadable
    else:
        assert not unreadable
        assert_same_graph(load_graph(text), g)


class TestSurgery:
    def test_delete_vertex_reindexes(self):
        g = path_graph(4)
        h = g.delete_vertex(1)
        assert h.labels == ("v1", "v3", "v4")
        assert h.edges() == [(1, 2)]

    def test_delete_edge(self):
        g = cycle_graph(4)
        h = g.delete_edge(0, 3)
        assert h.m == 3 and h.is_connected()
        with pytest.raises(GraphError):
            h.delete_edge(0, 3)

    def test_contract_keeps_smaller_label_and_simplifies(self):
        g = complete_graph(3)
        h = g.contract_edge(1, 2)
        assert h.labels == ("v1", "v2")
        assert h.m == 1  # parallel edges merged, loop dropped

    def test_subdivide(self):
        g = path_graph(2)
        h = g.subdivide_edge(0, 1)
        assert h.n == 3 and h.m == 2
        assert h.labels[2] == "sub_v1_v2"
        assert sorted(h.adj[2]) == [0, 1]

    @pytest.mark.parametrize("surgery", ["delete_edge", "contract_edge", "subdivide_edge"])
    @pytest.mark.parametrize("u, v", [(0, 2), (-1, 1), (1, -1), (1, 3)])
    def test_missing_edge_rejected(self, surgery, u, v):
        with pytest.raises(GraphError):
            getattr(path_graph(3), surgery)(u, v)

    def test_row_builder_matches_the_validating_constructor(self):
        """Each derived graph equals Graph(labels, edges) over the edge list
        that the operation describes."""
        merged = 0
        for rng, g in seeded_graphs("surgery", 80):
            labels, edges = list(g.labels), g.edges()
            u, v = rng.choice(edges)
            keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            remap = {old: new for new, old in enumerate(keep)}
            sub, got_remap = g.induced_subgraph(keep)
            assert got_remap == remap
            assert_same_graph(sub, Graph([labels[x] for x in keep], [
                (remap[a], remap[b]) for a, b in edges if a in remap and b in remap]))
            shift = {x: x - (x > u) for x in range(g.n)}
            assert_same_graph(g.delete_vertex(u), Graph(
                labels[:u] + labels[u + 1:],
                [(shift[a], shift[b]) for a, b in edges if u not in (a, b)]))
            assert_same_graph(g.delete_edge(v, u), Graph(labels, [e for e in edges if e != (u, v)]))
            contracted = g.contract_edge(v, u)  # u < v: u keeps its label
            shift = {x: x - (x > v) for x in range(g.n)}
            shift[v] = u
            assert_same_graph(contracted, Graph(labels[:v] + labels[v + 1:],
                                                [(shift[a], shift[b]) for a, b in edges]))
            merged += contracted.m < g.m - 1
            assert_same_graph(g.subdivide_edge(v, u), Graph(
                labels + [f"sub_{labels[v]}_{labels[u]}"],
                [e for e in edges if e != (u, v)] + [(u, g.n), (v, g.n)]))
            targets = sorted(rng.sample(range(g.n), rng.randint(0, min(g.n, 4))))
            r = rng.randint(1, 3)
            leaves = [(x, f"{labels[x]}_leaf{j}") for x in targets for j in range(1, r + 1)]
            assert_same_graph(attach_leaves(g, targets[::-1], r), Graph(
                labels + [lab for _, lab in leaves],
                edges + [(x, g.n + i) for i, (x, _) in enumerate(leaves)]))
        assert merged >= 10

    @pytest.mark.parametrize("vertices", [[], [-1, 0], [0, 3]])
    def test_induced_subgraph_rejects_bad_vertex_sets(self, vertices):
        with pytest.raises(GraphError):
            path_graph(3).induced_subgraph(vertices)

    def test_induced_subgraph_maps_back(self):
        g = cycle_graph(5)
        sub, remap = g.induced_subgraph([0, 1, 2])
        assert sub.labels == ("v1", "v2", "v3")
        assert sub.edges() == [(0, 1), (1, 2)]
        assert remap[2] == 2


class TestAttachLeaves:
    def test_counts(self):
        k3 = complete_graph(3)
        g = attach_leaves(k3, [0], 3)
        assert (g.n, g.m) == (6, 6)

    def test_empty_target_is_identity(self):
        p2 = path_graph(2)
        assert attach_leaves(p2, [], 3) == p2

    def test_star_from_path(self):
        p3 = path_graph(3)
        g = attach_leaves(p3, [1], 1)
        assert sorted(g.degree(v) for v in range(g.n)) == [1, 1, 1, 3]

    def test_not_subset_rejected(self):
        with pytest.raises(GraphError):
            attach_leaves(path_graph(2), [5], 1)

    def test_label_freshening(self):
        g = Graph(["a", "a_leaf1"], [(0, 1)])
        h = attach_leaves(g, [0], 1)
        assert len(set(h.labels)) == h.n


def rescanning_fresh_label(existing: list[str], stem: str) -> str:
    """The label rule written plainly: a set of every label so far, per call."""
    taken = set(existing)
    while stem in taken:
        stem += "_"
    return stem


class TestFreshLabels:
    """New labels come out exactly as the plain rule makes them, and making
    one costs O(1) lookups, not a copy of every label so far."""

    CLASHING = ["a", "a_leaf1", "a_leaf1_", "a_leaf1_leaf1", "b", "hub", "hub_",
                "probe1", "pa1_1", "qa2_1", "cap1_"]

    def test_attach_leaves_matches_the_plain_rule(self):
        g = Graph(self.CLASHING, [(i, i + 1) for i in range(len(self.CLASHING) - 1)])
        h = attach_leaves(g, range(g.n), 3)
        labels = list(g.labels)
        for v in range(g.n):
            for j in (1, 2, 3):
                labels.append(rescanning_fresh_label(labels, f"{g.labels[v]}_leaf{j}"))
        assert list(h.labels) == labels

    def test_zf_gadget_matches_the_plain_rule(self):
        from powerdom.exact import zf_to_cpd_gadget

        g = Graph(self.CLASHING[:4], [(0, 1), (1, 2), (1, 3)])
        h, _ = zf_to_cpd_gadget(g, 1)
        labels = list(g.labels)
        stems = ["hub", "hubleaf1", "hubleaf2"]
        for i in range(g.n):
            stems += [f"probe{i + 1}", f"cap{i + 1}"]
            stems += [f"pa{i + 1}_{j + 1}" for j in range(g.n)]
            stems += [f"qa{i + 1}_{j + 1}" for j in range(g.n)]
        for stem in stems:
            labels.append(rescanning_fresh_label(labels, stem))
        assert list(h.labels) == labels

    def test_subdivision_label(self):
        g = Graph(["u", "v", "sub_u_v"], [(0, 1), (1, 2)])
        assert g.subdivide_edge(0, 1).labels[-1] == "sub_u_v_"

    def test_many_leaves_are_linear(self):
        started = time.perf_counter()
        g = attach_leaves(path_graph(8000), range(0, 8000, 2), 3)
        assert time.perf_counter() - started < 5.0
        assert g.n == 8000 + 3 * 4000

    def test_large_zf_gadget_is_linear(self):
        from powerdom.exact import zf_to_cpd_gadget

        started = time.perf_counter()
        h, bound = zf_to_cpd_gadget(path_graph(80), 1)
        assert time.perf_counter() - started < 5.0
        assert (h.n, bound) == (80 + 3 + 80 * (2 + 2 * 80), 2)


# every entry point that takes vertex ids, called on g with the bad id v
VERTEX_ID_ENTRY_POINTS = {
    "has_edge (first end)": lambda g, v: g.has_edge(v, 0),
    "has_edge (second end)": lambda g, v: g.has_edge(0, v),
    "delete_vertex": lambda g, v: g.delete_vertex(v),
    "degree": lambda g, v: g.degree(v),
    "labels_of": lambda g, v: g.labels_of([0, v]),
    "reach_mask": lambda g, v: g.reach_mask(v),
    "reach_mask (inside a set)": lambda g, v: g.reach_mask(v, within=0b11),
    "induced_subgraph": lambda g, v: g.induced_subgraph([0, v]),
    "attach_leaves": lambda g, v: attach_leaves(g, [0, v], 1),
    "min_cpds_subject_to": lambda g, v: exact.min_cpds_subject_to(g, [v]),
    "dominate_step": lambda g, v: propagation.dominate_step(g, [0, v]),
    "forcing_closure": lambda g, v: propagation.forcing_closure(g, [0, v]),
    "is_power_dominating": lambda g, v: propagation.is_power_dominating(g, [0, v]),
    "is_zero_forcing": lambda g, v: propagation.is_zero_forcing(g, [0, v]),
    "colors_within": lambda g, v: propagation.colors_within(g, [0, v], g.n),
    "ppt_of_set": lambda g, v: propagation.ppt_of_set(g, [0, v]),
    "is_connected_set": lambda g, v: propagation.is_connected_set(g, [0, v]),
    "replay_trace (initial set)": lambda g, v: propagation.replay_trace(
        g, propagation.PropagationTrace((0, v), (), (0,))),
    "replay_trace (entry)": lambda g, v: propagation.replay_trace(
        g, propagation.PropagationTrace((0,), (propagation.Force(1, 0, v, "dominate"),), (0,))),
    "trace_lines (source)": lambda g, v: propagation.trace_lines(
        g, propagation.PropagationTrace((0,), (propagation.Force(1, v, 0, "dominate"),), (0,))),
    "trace_lines (target)": lambda g, v: propagation.trace_lines(
        g, propagation.PropagationTrace((0,), (propagation.Force(1, 0, v, "dominate"),), (0,))),
}


@pytest.mark.parametrize("entry", sorted(VERTEX_ID_ENTRY_POINTS))
def test_every_vertex_id_goes_through_one_validator(entry):
    """Only an ``int`` in 0..n-1 is a vertex id: a float, a bool, a string
    or an id out of range gets the same GraphError everywhere."""
    g = cycle_graph(4)
    for bad in (1.0, True, -1, g.n, "a"):
        with pytest.raises(GraphError, match=f"^vertex {re.escape(repr(bad))} not in graph$"):
            VERTEX_ID_ENTRY_POINTS[entry](g, bad)


@pytest.mark.parametrize("make, name, value", [
    (lambda t: milp.build_model1(path_graph(4), t), "horizon", 2.5),
    (lambda t: milp.round_number(path_graph(4), t), "horizon", 2.5),
    (lambda r: attach_leaves(path_graph(4), [0], r), "r", 1.5),
    (cycle_graph, "n", 3.0),
    (path_graph, "n", True),
    (complete_graph, "n", "3"),
    (lambda rounds: exact.l_round_pd(path_graph(4), rounds), "rounds", 1.5),
    (lambda rounds: exact.l_round_cpd(path_graph(4), rounds), "rounds", True),
    (lambda rounds: propagation.colors_within(path_graph(4), [1], rounds), "rounds", True),
    (lambda rounds: propagation.colors_within(path_graph(4), [1], rounds), "rounds", 2.5),
    (lambda rounds: propagation.colors_within(path_graph(4), [1], rounds), "rounds", "3"),
    (lambda k: exact.zf_to_cpd_gadget(path_graph(4), k), "k", True),
    (spread.make_path_gadget, "c", True),
    (spread.make_cycle_gadget, "c", 2.0),
], ids=["build_model1", "round_number", "attach_leaves", "cycle_graph", "path_graph",
        "complete_graph", "l_round_pd", "l_round_cpd", "colors_within-bool",
        "colors_within-float", "colors_within-str", "zf_to_cpd_gadget", "make_path_gadget",
        "make_cycle_gadget"])
def test_a_count_that_is_not_an_int_is_refused_by_name(make, name, value):
    """A float, a bool or a string in place of a count raises one line
    naming the parameter and the value, where it used to leak a
    ``TypeError``, pass silently or build a model the LP reader refuses;
    the same count as an int is accepted."""
    with pytest.raises(GraphError) as info:
        make(value)
    assert str(info.value) == f"{name} must be an int, not {value!r}"
    make(int(value))


def test_colors_within_refuses_rounds_of_none_by_name():
    with pytest.raises(GraphError, match=r"^rounds must be an int, not None$"):
        propagation.colors_within(path_graph(4), [1], None)


class TestConnectivityHelpers:
    def test_components(self):
        g = Graph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
        assert g.components() == [[0, 1], [2, 3]]
        assert not g.is_connected()

    def test_mask_connectivity(self):
        g = path_graph(4)
        assert g.is_connected_mask(0b0011)
        assert not g.is_connected_mask(0b0101)
        assert not g.is_connected_mask(0)

    def test_matches_naive_reference(self):
        rng = random.Random(73)
        for _ in range(80):
            n = rng.randint(1, 11)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
            g = Graph([f"v{i}" for i in range(n)], edges)
            for u in range(n):
                for v in range(n):
                    assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
            for u, v in [(-1, 0), (0, -1), (n, 0), (0, n)]:
                with pytest.raises(GraphError):
                    g.has_edge(u, v)
            whole = set(range(n))
            assert g.is_connected() == (naive_components(edges, whole) == 1)
            assert g.components() == [list(iter_bits(c)) for c in g.component_masks()]
            for within in [0, g.full_mask] + [rng.getrandbits(n) for _ in range(4)]:
                vertices = set(iter_bits(within))
                comps = g.component_masks(within)
                assert sorted(v for c in comps for v in iter_bits(c)) == sorted(vertices)
                assert len(comps) == naive_components(edges, vertices)
                for c in comps:
                    assert naive_is_connected_set(g, set(iter_bits(c)))
                for start in range(n):
                    owner = [c for c in comps if c >> start & 1]
                    assert g.reach_mask(start, within) == (owner[0] if owner else 0)
                connected = naive_is_connected_set(g, vertices)
                assert g.is_connected_mask(within) == connected
                assert propagation.is_connected_set(g, vertices) == connected

    def test_searches_agree_with_the_naive_helpers(self):
        """``is_connected``, ``components`` and ``is_connected_set`` search
        the neighbor rows directly; on seeded graphs of up to 60 vertices,
        unions of several connected parts included, they agree with the
        set-based helpers."""
        rng = random.Random(29)
        for _ in range(60):
            labels: list[str] = []
            edges: list[tuple[int, int]] = []
            for _ in range(rng.choice([1, 1, 2, 3, 5])):
                part = random_connected_graph(rng, rng.randint(1, 12))
                edges += [(len(labels) + u, len(labels) + v) for u, v in part.edges()]
                labels += [f"v{len(labels) + i}" for i in range(part.n)]
            order = list(range(len(labels)))
            rng.shuffle(order)  # so a part's ids are not one run
            edges = [(order[u], order[v]) for u, v in edges]
            g = Graph(labels, edges)
            whole = set(range(g.n))
            comps = g.components()
            assert len(comps) == naive_components(edges, whole)
            assert g.is_connected() == (len(comps) == 1)
            assert sorted(v for c in comps for v in c) == sorted(whole)
            assert [c[0] for c in comps] == sorted(c[0] for c in comps)
            for c in comps:
                assert c == sorted(c) and naive_is_connected_set(g, set(c))
                assert propagation.is_connected_set(g, c)
            for _ in range(6):
                vertices = set(rng.sample(sorted(whole), rng.randint(0, g.n)))
                assert (propagation.is_connected_set(g, vertices)
                        == naive_is_connected_set(g, vertices))

    def test_components_of_isolated_vertices_take_linear_time(self):
        """40000 vertices without an edge: one search per vertex, no n-bit
        mask per component (which took 23.9 s)."""
        n = 40000
        g = Graph([str(v) for v in range(n)], [])
        started = time.perf_counter()
        comps = g.components()
        assert time.perf_counter() - started < 2.0
        assert comps == [[v] for v in range(n)]
        assert not g.is_connected()


class TestMemory:
    @staticmethod
    def _peak_bytes(n: int) -> int:
        tracemalloc.start()
        try:
            structural.solve_cpds(path_graph(n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_path_solve_memory_is_linear(self):
        """Four times the vertices may take at most five times the memory
        (quadratic neighbor masks took 7.2 times)."""
        assert self._peak_bytes(12000) <= 5 * self._peak_bytes(3000)
