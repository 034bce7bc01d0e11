"""Spread under deletion, contraction, and subdivision, plus the gadgets."""

from __future__ import annotations

import random

import pytest

from powerdom import exact, spread
from powerdom.errors import GraphError
from powerdom.graphs import cycle_graph, path_graph

from conftest import random_connected_graph

brute = lambda h: exact.min_cpds(h)  # noqa: E731


class TestGadgetShapes:
    @pytest.mark.parametrize("c,n,m", [(1, 7, 8), (2, 8, 9), (3, 9, 10)])
    def test_path_gadget_counts(self, c, n, m):
        g = spread.make_path_gadget(c)
        assert (g.n, g.m) == (n, m)

    @pytest.mark.parametrize("c,n,m", [(1, 7, 7), (2, 9, 9), (3, 11, 11)])
    def test_cycle_gadget_counts(self, c, n, m):
        g = spread.make_cycle_gadget(c)
        assert (g.n, g.m) == (n, m)

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_path_gadget_needs_one_vertex(self, c):
        assert exact.min_cpds(spread.make_path_gadget(c)).optimum == 1

    def test_cycle_gadget_subdivided_value(self):
        g = spread.make_cycle_gadget(2)
        sub = g.subdivide_edge(g.index("c1"), g.index("c2"))
        assert exact.min_cpds(sub).optimum == 3

    def test_rejects_bad_parameter(self):
        with pytest.raises(GraphError):
            spread.make_path_gadget(0)


class TestVertexSpread:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_gadget_negative_swing(self, c):
        g = spread.make_path_gadget(c)
        report = spread.vertex_spread(g, g.index("b2"), brute)
        assert report.spread == -c

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_gadget_positive_swing(self, c):
        g = spread.make_path_gadget(c).delete_vertex(spread.make_path_gadget(c).index("b2"))
        report = spread.vertex_spread(g, g.index("b1"), brute)
        assert report.spread == c

    def test_cycle_vertex_is_neutral(self):
        g = cycle_graph(5)
        assert spread.vertex_spread(g, 0, brute).spread == 0

    def test_cut_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            spread.vertex_spread(g, 1, brute)


class TestEdgeSpread:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_gadget_negative_swing(self, c):
        g = spread.make_path_gadget(c)
        report = spread.edge_spread(g, g.index("b1"), g.index("b2"), brute)
        assert report.spread == -c

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_gadget_positive_swing(self, c):
        base = spread.make_path_gadget(c)
        g = base.delete_edge(base.index("b1"), base.index("b2"))
        report = spread.edge_spread(g, g.index("b1"), g.index("a2"), brute)
        assert report.spread == c

    def test_square_edge_is_neutral(self):
        g = cycle_graph(4)
        assert spread.edge_spread(g, 0, 1, brute).spread == 0

    def test_cut_edge_rejected(self):
        for u, v in [(0, 1), (-1, 1)]:
            with pytest.raises(GraphError):
                spread.edge_spread(path_graph(3), u, v, brute)


class TestContraction:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_gadget_negative_swing(self, c):
        g = spread.make_cycle_gadget(c)
        report = spread.contract_edge_spread(g, g.index("c1"), g.index("c2"), brute)
        assert report.spread == -c

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_gadget_positive_swing_after_subdividing(self, c):
        g = spread.make_cycle_gadget(c)
        sub = g.subdivide_edge(g.index("c1"), g.index("c2"))
        report = spread.contract_edge_spread(
            sub, sub.index("c1"), sub.index("sub_c1_c2"), brute
        )
        assert report.spread == c

    def test_triangle_neutral(self):
        g = cycle_graph(3)
        assert spread.contract_edge_spread(g, 0, 1, brute).spread == 0


class TestSubdivision:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_gadget_delta(self, c):
        g = spread.make_cycle_gadget(c)
        report = spread.subdivide_edge_delta(g, g.index("c1"), g.index("c2"), brute)
        assert report.spread == c

    def test_path_delta_zero(self):
        g = path_graph(6)
        assert spread.subdivide_edge_delta(g, 2, 3, brute).spread == 0

    def test_square_delta_zero(self):
        assert spread.subdivide_edge_delta(cycle_graph(4), 0, 1, brute).spread == 0

    def test_never_negative_on_random_graphs(self):
        rng = random.Random(97)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 10))
            u, v = random.Random(rng.random()).choice(g.edges())
            report = spread.subdivide_edge_delta(g, u, v, brute)
            assert report.spread >= 0


class TestDefaults:
    def test_auto_solver_used_when_none_given(self):
        g = cycle_graph(6)
        report = spread.subdivide_edge_delta(g, 0, 1)
        assert report.before.method == "cactus"
        assert report.spread == 0

    @pytest.mark.parametrize("operation", [spread.vertex_spread, spread.edge_spread,
                                           spread.contract_edge_spread,
                                           spread.subdivide_edge_delta])
    def test_non_edge_refused_before_any_solve(self, operation):
        if operation is spread.vertex_spread:
            cases = [((4,), "^vertex 4 not in graph$"), ((-1,), "^vertex -1 not in graph$")]
        else:
            cases = [((0, 2), "^no edge v1,v3$")]
        solved = []
        for target, message in cases:
            with pytest.raises(GraphError, match=message):
                operation(cycle_graph(4), *target, solved.append)
        assert solved == []
