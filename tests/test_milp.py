"""Model construction, export round trips, and the enumeration validator."""

from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import exact, milp
from powerdom import propagation as prop
from powerdom.errors import BudgetExceededError, ModelError
from powerdom.graphs import Graph, complete_graph, cycle_graph, path_graph

from conftest import complete_bipartite, random_connected_graph, two_triangles_bridge


class TestBuildModel:
    def test_p3_shape(self):
        model = milp.build_model1(path_graph(3), 3)
        kinds = [v.kind for v in model.variables]
        assert kinds.count("binary") == 3 + 4
        assert kinds.count("integer") == 3
        assert len(model.constraints) == 3 + 4 + 2

    def test_k3_shape(self):
        model = milp.build_model1(complete_graph(3), 3)
        assert len(model.variables) == 12
        assert len(model.constraints) == 15

    def test_cover_row_per_vertex(self):
        g = random_connected_graph(random.Random(1), 7)
        model = milp.build_model1(g)
        covers = [c for c in model.constraints if c.name.startswith("cover_")]
        assert len(covers) == g.n
        for c in covers:
            assert c.relation == "=" and c.rhs == 1

    def test_watch_rows_count(self):
        g = random_connected_graph(random.Random(2), 8)
        model = milp.build_model1(g)
        watch = [c for c in model.constraints if c.name.startswith("watch_")]
        expected = sum(g.degree(u) - 1 for u in range(g.n) for _ in g.adj[u])
        assert len(watch) == expected

    def test_default_horizon_is_n(self):
        model = milp.build_model1(path_graph(4))
        assert model.meta["horizon"] == 4


class TestMtz:
    def test_p3_additions(self):
        base = milp.build_model1(path_graph(3), 3)
        extended = milp.add_mtz_connectivity(base, path_graph(3))
        assert len(extended.variables) - len(base.variables) == 3 + 4 + 3
        assert len(extended.constraints) - len(base.constraints) == 1 + 3 + 4 + 4

    def test_double_application_rejected(self):
        g = path_graph(3)
        extended = milp.add_mtz_connectivity(milp.build_model1(g, 3), g)
        with pytest.raises(ModelError):
            milp.add_mtz_connectivity(extended, g)

    def test_p3_value_unchanged(self):
        g = path_graph(3)
        extended = milp.add_mtz_connectivity(milp.build_model1(g), g)
        assert milp.solve_small(extended).objective_value == 1

    def test_bridge_graph_value_rises(self):
        g = two_triangles_bridge()
        plain = milp.solve_small(milp.build_model1(g), budget=80)
        extended = milp.solve_small(
            milp.add_mtz_connectivity(milp.build_model1(g), g), budget=80
        )
        assert plain.objective_value == exact.min_pds(g).optimum
        assert extended.objective_value == exact.min_cpds(g).optimum == 2


class TestSolveSmall:
    def test_p5(self):
        assert milp.solve_small(milp.build_model1(path_graph(5), 5)).objective_value == 1

    def test_k33(self):
        model = milp.build_model1(complete_bipartite(3, 3), 6)
        assert milp.solve_small(model, budget=80).objective_value == 2

    def test_budget_status(self):
        model = milp.build_model1(complete_bipartite(3, 3), 6)
        solution = milp.solve_small(model, budget=10)
        assert solution.status == milp.BUDGET_EXCEEDED

    def test_winning_assignment_satisfies_every_row(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 6))
            model = milp.add_mtz_connectivity(milp.build_model1(g), g)
            solution = milp.solve_small(model, budget=120)
            assert solution.status == milp.OPTIMAL
            assert milp.check_assignment(model, solution.assignment) == []

    def test_decode_round_trip(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 6))
            model = milp.build_model1(g)
            solution = milp.solve_small(model, budget=80)
            chosen, trace = milp.decode_assignment(model, solution.assignment)
            assert prop.replay_trace(g, trace) == g.full_mask
            ok, _ = prop.is_power_dominating(g, chosen)
            assert ok and len(chosen) == solution.objective_value


class TestRoundNumber:
    def test_p5_examples(self):
        g = path_graph(5)
        assert milp.round_number(g, 1) == 2
        assert milp.round_number(g, 4) == 1

    def test_complete_one_round(self):
        assert milp.round_number(complete_graph(5), 1) == 1

    def test_matches_oracle_and_monotone(self):
        rng = random.Random(13)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(2, 6))
            values = []
            for rounds in range(1, g.n + 1):
                value = milp.round_number(g, rounds, budget=80)
                assert value == exact.l_round_pd(g, rounds).optimum
                values.append(value)
            assert values == sorted(values, reverse=True)
            assert values[-1] == exact.min_pds(g).optimum

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            milp.round_number(complete_bipartite(3, 3), 2, budget=5)


class TestPptSearch:
    def test_examples(self):
        assert milp.ppt_by_search(path_graph(5)) == 2
        assert milp.ppt_by_search(complete_graph(4)) == 1
        assert milp.ppt_by_search(cycle_graph(6)) == 3

    def test_matches_exact(self):
        rng = random.Random(17)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(1, 6))
            assert milp.ppt_by_search(g, budget=80) == exact.ppt(g)
            assert milp.ppt_by_search(g, connected=True, budget=120) == exact.ppt(
                g, connected=True
            )


class TestExport:
    def test_lp_sections(self):
        text = milp.export(milp.build_model1(path_graph(3), 3), "lp")
        for section in ("Minimize", "Subject To", "Bounds", "Generals", "Binaries", "End"):
            assert section in text

    def test_no_variables_guard(self):
        empty = milp.MilpModel("empty", (), (), ())
        with pytest.raises(ModelError):
            milp.export(empty)

    def test_name_collision_guard(self):
        g = Graph(["a b", "a_b"], [(0, 1)])
        with pytest.raises(ModelError):
            milp.build_model1(g, 2)

    def test_name_collision_with_base_model(self):
        g = Graph(["a", "b"], [(0, 1)])
        base = milp.build_model1(g)
        extra = milp.Variable("zr_a", milp.BINARY, 0, 1)
        clash = milp.MilpModel(base.name, base.variables + (extra,), base.objective,
                               base.constraints, base.meta)
        with pytest.raises(ModelError, match="zr_a"):
            milp.add_mtz_connectivity(clash, g)
        clash = milp.MilpModel(base.name, base.variables, base.objective,
                               base.constraints + (milp.Constraint("root_choice", (), "=", 0),),
                               base.meta)
        with pytest.raises(ModelError, match="root_choice"):
            milp.add_mtz_connectivity(clash, g)

    def test_deterministic_bytes(self):
        g = random_connected_graph(random.Random(19), 7)
        model = milp.add_mtz_connectivity(milp.build_model1(g), g)
        assert milp.export(model, "lp") == milp.export(model, "lp")
        assert milp.export(model, "mps") == milp.export(model, "mps")

    def test_lp_round_trip(self):
        rng = random.Random(23)
        for _ in range(6):
            g = random_connected_graph(rng, rng.randint(2, 7))
            model = milp.build_model1(g)
            if rng.random() < 0.5:
                model = milp.add_mtz_connectivity(model, g)
            parsed = milp.parse_lp(milp.export(model, "lp"))
            assert parsed.canonical() == model.canonical()

    def test_mps_round_trip(self):
        rng = random.Random(29)
        for _ in range(6):
            g = random_connected_graph(rng, rng.randint(2, 7))
            model = milp.build_model1(g)
            if rng.random() < 0.5:
                model = milp.add_mtz_connectivity(model, g)
            parsed = milp.parse_mps(milp.export(model, "mps"))
            assert parsed.canonical() == model.canonical()


@st.composite
def small_connected_graphs(draw) -> Graph:
    """A random spanning tree on at most 9 vertices plus a few chords."""
    n = draw(st.integers(1, 9))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 2:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=6)))
    return Graph([f"v{i}" for i in range(n)], sorted(edges))


@settings(max_examples=80, deadline=None)
@given(g=small_connected_graphs(), connected=st.booleans(),
       horizon=st.sampled_from([None, 1, 3]), fmt=st.sampled_from(["lp", "mps"]))
def test_parse_inverts_export(g, connected, horizon, fmt):
    model = milp.build_model1(g, horizon)
    if connected:
        model = milp.add_mtz_connectivity(model, g)
    parse = milp.parse_lp if fmt == "lp" else milp.parse_mps
    parsed = parse(milp.export(model, fmt))
    assert parsed.canonical() == model.canonical()
    assert parsed.name == model.name
    assert parsed.variables == model.variables
    if fmt == "lp":
        assert parsed == model


def pinned_model(seed: int, connected: bool) -> milp.MilpModel:
    g = random_connected_graph(random.Random(seed), 60)
    model = milp.build_model1(g)
    return milp.add_mtz_connectivity(model, g) if connected else model


# sha256 of repr((name, variables, objective, constraints)) of each reader's
# output on two seeded 60-vertex models; the MPS reader lists a row's terms
# in column order, so its models equal the built ones only under canonical()
PARSE_DIGESTS = {
    (61, False, "lp"): "d0883571beb52f302e0e27a9876820f0b5afd9ad9b9a9e34101e58e83bf887a5",
    (61, False, "mps"): "8877dcea4d8ae4ff6e87e282611eb3c3e3d52e7f7dc666f8f12296f0958706d1",
    (62, True, "lp"): "33abe00a1e6e77e01079504686fd1d46520363e820a7b823a8163ded7a67863f",
    (62, True, "mps"): "6c94a045c8bef208402a4760e32b31bf46dbf3c26b0550cf9075451d6f75239b",
}


@pytest.mark.parametrize("seed,connected,fmt", sorted(PARSE_DIGESTS))
def test_parse_matches_recorded_digest(seed, connected, fmt):
    parse = milp.parse_lp if fmt == "lp" else milp.parse_mps
    parsed = parse(milp.export(pinned_model(seed, connected), fmt))
    text = repr((parsed.name, parsed.variables, parsed.objective, parsed.constraints))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PARSE_DIGESTS[seed, connected, fmt]


def test_mps_reader_is_linear():
    """The cpd model of a sparse 400-vertex graph has about 5500 rows; a
    reader that scans every column entry for each row takes seconds on it."""
    g = random_connected_graph(random.Random(400), 400, extra=40)
    model = milp.add_mtz_connectivity(milp.build_model1(g), g)
    text = milp.export(model, "mps")
    started = time.perf_counter()
    parsed = milp.parse_mps(text)
    assert time.perf_counter() - started < 2.0
    assert parsed.canonical() == model.canonical()


P2_LP = milp.export(milp.build_model1(path_graph(2), 2), "lp")
P2_MPS = milp.export(milp.build_model1(path_graph(2), 2), "mps")


def edited(text: str, old: str, new: str) -> str:
    assert text.count(old) == 1
    return text.replace(old, new)


class TestMalformedText:
    """Each defect raises ModelError with one line naming where it is."""

    def check(self, parse, text: str, where: str) -> None:
        with pytest.raises(ModelError) as caught:
            parse(text)
        message = str(caught.value)
        assert where in message and "\n" not in message

    def test_mps_rows_line_with_three_fields(self):
        self.check(milp.parse_mps, edited(P2_MPS, " E  cover_v1\n", " E  cover_v1 spare\n"),
                   "MPS line 4")

    def test_mps_coefficient_not_a_number(self):
        self.check(milp.parse_mps,
                   edited(P2_MPS, "y_v1__v2    order_v1__v2    3", "y_v1__v2    order_v1__v2    x"),
                   "MPS line 19")

    def test_mps_coefficient_not_an_integer(self):
        self.check(milp.parse_mps,
                   edited(P2_MPS, "y_v1__v2    order_v1__v2    3", "y_v1__v2    order_v1__v2    2.5"),
                   "'2.5'")

    def test_mps_column_without_bounds(self):
        self.check(milp.parse_mps, edited(P2_MPS, " BV bnd    y_v2__v1\n", ""), "'y_v2__v1'")

    @pytest.mark.parametrize("line", [" LI bnd    x_v2    0\n", " UI bnd    x_v2    2\n"],
                             ids=["lower", "upper"])
    def test_mps_integer_column_without_a_bound(self, line):
        self.check(milp.parse_mps, edited(P2_MPS, line, ""), "'x_v2'")

    def test_mps_entry_in_undeclared_row(self):
        self.check(milp.parse_mps, edited(P2_MPS, " L  order_v2__v1\n", ""), "'order_v2__v1'")

    def test_mps_unknown_bound_type(self):
        self.check(milp.parse_mps, edited(P2_MPS, " BV bnd    s_v1", " FR bnd    s_v1"),
                   "MPS line 29")

    @pytest.mark.parametrize("old,new,where", [
        (" E  cover_v2\n", " E  cover_v1\n", "MPS line 5"),
        (" E  cover_v1\n", " N  cover_v1\n", "MPS line 4"),
        (" E  cover_v1\n", " X  cover_v1\n", "MPS line 4"),
        ("    s_v1    cover_v1    1\n    s_v2    obj    1\n",
         "    s_v2    obj    1\n    s_v1    cover_v1    1\n", "MPS line 12"),
        ("    rhs    cover_v1    1", "    rhs    obj    1", "MPS line 24"),
        ("RHS\n", "RANGES\n", "MPS line 23"),
        ("ROWS\n", "", "MPS line 2"),
    ], ids=["row-twice", "second-objective", "row-type", "split-column", "rhs-on-objective",
            "unknown-section", "outside-sections"])
    def test_mps_other_defects(self, old, new, where):
        self.check(milp.parse_mps, edited(P2_MPS, old, new), where)

    def test_lp_constraint_without_label(self):
        self.check(milp.parse_lp, edited(P2_LP, " cover_v1: s_v1", " s_v1"), "LP line 5")

    def test_lp_variable_without_bound(self):
        self.check(milp.parse_lp, edited(P2_LP, " 0 <= y_v1__v2 <= 1\n", ""), "'y_v1__v2'")

    @pytest.mark.parametrize("old,new,where", [
        ("x_v1 - x_v2", "x_v1 * x_v2", "LP line 7"),
        ("x_v1 - x_v2", "x_v1 x_v2", "LP line 7"),
        ("x_v1 - x_v2 + 3 y_v1__v2", "x_v1 - x_v2 + 2.5 y_v1__v2", "LP line 7"),
        (" 0 <= s_v2 <= 1\n", " 0 <= s_v1 <= 1\n", "LP line 11"),
        ("Minimize\n", "", "LP line 2"),
    ], ids=["junk-between-terms", "missing-sign", "fraction", "bound-twice",
            "outside-sections"])
    def test_lp_other_defects(self, old, new, where):
        self.check(milp.parse_lp, edited(P2_LP, old, new), where)


def test_mps_row_without_rhs_entry_has_rhs_zero():
    parsed = milp.parse_mps(edited(P2_MPS, "    rhs    cover_v1    1\n", ""))
    assert [c.rhs for c in parsed.constraints] == [0, 1, 2, 2]
