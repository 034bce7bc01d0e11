"""Model construction, export round trips, and the validator."""

from __future__ import annotations

import hashlib
import itertools
import random
import re
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import exact, milp
from powerdom import propagation as prop
from powerdom.errors import BudgetExceededError, GraphError, ModelError, SolverInternalError
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

    def test_name_table_built_once_per_graph(self, monkeypatch):
        """The builder's name table serves the connectivity extension, the
        encoder and the decoder of the same model."""
        calls = []
        names = milp._names
        monkeypatch.setattr(milp, "_names", lambda g: calls.append(g) or names(g))
        g = two_triangles_bridge()
        model = milp.add_mtz_connectivity(milp.build_model1(g), g)
        solution = milp.solve_small(model)
        chosen, _ = milp.decode_assignment(model, solution.assignment)
        assert chosen == exact.min_cpds(g).witness
        assert calls == [g]

    def test_bridge_graph_value_rises(self):
        g = two_triangles_bridge()
        plain = milp.solve_small(milp.build_model1(g))
        extended = milp.solve_small(milp.add_mtz_connectivity(milp.build_model1(g), g))
        assert plain.objective_value == exact.min_pds(g).optimum
        assert extended.objective_value == exact.min_cpds(g).optimum == 2


def reference_encode(model: milp.MilpModel, chosen: tuple[int, ...],
                     trace: prop.PropagationTrace) -> dict[str, int]:
    """Every variable of a model from a selection and its propagation run;
    the arborescence by its own queue-based breadth-first search from the
    least selected vertex, each vertex's parent the one that discovered it."""
    g = model.meta["graph"]
    labs, arcs = model.meta["names"]
    assignment = {"s_" + lab: int(v in chosen) for v, lab in enumerate(labs)}
    colored_at = {v: 0 for v in chosen}
    arc_used = set()
    for f in trace.forces:
        colored_at[f.target] = f.timestep
        arc_used.add((f.source, f.target))
    for v, lab in enumerate(labs):
        assignment["x_" + lab] = min(colored_at[v], model.meta["horizon"])
    for u, v, uv in arcs:
        assignment["y_" + uv] = int((u, v) in arc_used)
    if model.meta["connected"]:
        root = min(chosen)
        order, parent, queue = {root: 1}, {}, [root]
        while queue:
            u = queue.pop(0)
            for w in g.adj[u]:
                if w in chosen and w not in order:
                    order[w] = len(order) + 1
                    parent[w] = u
                    queue.append(w)
        for v, lab in enumerate(labs):
            assignment["zr_" + lab] = int(v == root)
            assignment["o_" + lab] = order.get(v, g.n)
        for u, v, uv in arcs:
            assignment["z_" + uv] = int(parent.get(v) == u)
    return assignment


class TestSolveSmall:
    @pytest.mark.parametrize("connected", [False, True])
    def test_assignment_matches_the_reference_encoder(self, connected):
        """On seeded graphs and horizons, the validator's assignment equals
        the reference encoding of the oracle's optimum and its run."""
        rng = random.Random(2029)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(1, 9))
            horizon = rng.randint(1, g.n)
            model = milp.build_model1(g, horizon)
            oracle = exact.l_round_pd
            if connected:
                model = milp.add_mtz_connectivity(model, g)
                oracle = exact.l_round_cpd
            result = oracle(g, horizon)
            expected = reference_encode(model, result.witness, result.trace)
            assert milp.solve_small(model).assignment == expected

    def test_p5(self):
        assert milp.solve_small(milp.build_model1(path_graph(5), 5)).objective_value == 1

    def test_k33(self):
        model = milp.build_model1(complete_bipartite(3, 3), 6)
        assert milp.solve_small(model).objective_value == 2

    def test_budget_status(self):
        model = milp.build_model1(complete_bipartite(3, 3), 6)
        with pytest.raises(BudgetExceededError):
            milp.solve_small(model, exact.Budget(max_vertices=5))

    def test_winning_assignment_satisfies_every_row(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 6))
            model = milp.add_mtz_connectivity(milp.build_model1(g), g)
            solution = milp.solve_small(model)
            assert milp.check_assignment(model, solution.assignment) == []

    def test_decode_round_trip(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 6))
            model = milp.build_model1(g)
            solution = milp.solve_small(model)
            chosen, trace = milp.decode_assignment(model, solution.assignment)
            assert prop.replay_trace(g, trace) == g.full_mask
            ok, _ = prop.is_power_dominating(g, chosen)
            assert ok and len(chosen) == solution.objective_value


    @pytest.mark.parametrize("connected", [False, True])
    def test_decode_refuses_a_missing_or_non_binary_value(self, connected):
        g = path_graph(4)
        model = milp.build_model1(g)
        if connected:
            model = milp.add_mtz_connectivity(model, g)
        solved = milp.solve_small(model).assignment
        with pytest.raises(ModelError, match="^assignment has no value for s_v1$"):
            milp.decode_assignment(model, {})
        last = model.variables[-1].name
        with pytest.raises(ModelError, match=f"^assignment has no value for {last}$"):
            milp.decode_assignment(model, {k: v for k, v in solved.items() if k != last})
        for value in (2, -1, 0.5):
            with pytest.raises(ModelError, match=f"^binary s_v1 is {value!r}, not 0 or 1$"):
                milp.decode_assignment(model, dict(solved, s_v1=value))
        with pytest.raises(ModelError, match="^binary y_v1__v2 is 3, not 0 or 1$"):
            milp.decode_assignment(model, dict(solved, y_v1__v2=3))
        for name, value in (("x_v3", 2.5), ("x_v4", 10**6), ("x_v2", -1), ("x_v1", "3")):
            with pytest.raises(ModelError, match=re.escape(
                    f"integer {name} is {value!r}, not an integer in [0, 4]")):
                milp.decode_assignment(model, dict(solved, **{name: value}))
        if connected:
            with pytest.raises(ModelError, match=re.escape(
                    "integer o_v2 is 0, not an integer in [1, 4]")):
                milp.decode_assignment(model, dict(solved, o_v2=0))
        # an integer variable within its bounds is read as it is, and a
        # whole float (as a solver returns) as the int it equals
        chosen, _ = milp.decode_assignment(model, dict(solved, x_v1=3))
        assert chosen == milp.decode_assignment(model, solved)[0]
        _, trace = milp.decode_assignment(model, {k: float(v) for k, v in solved.items()})
        assert trace.forces == milp.decode_assignment(model, solved)[1].forces
        assert all(type(f.timestep) is int for f in trace.forces)

    def test_check_reports_a_value_that_is_not_integral(self):
        """Two halves of an arc into v3 satisfy every row of the model, but
        no integer solution has them."""
        model = milp.build_model1(cycle_graph(4))
        solved = milp.solve_small(model).assignment
        halves = dict(solved, y_v2__v3=0.5, y_v4__v3=0.5)
        assert milp.check_assignment(model, halves) == [
            "y_v2__v3=0.5 is not integral", "y_v4__v3=0.5 is not integral"]
        assert milp.check_assignment(model, {k: float(v) for k, v in solved.items()}) == []

    @pytest.mark.parametrize("value", ["1", None])
    def test_check_reports_a_value_that_is_not_a_number(self, value):
        """The value is reported as not integral, and the rows that name it
        are skipped rather than summed."""
        model = milp.build_model1(path_graph(3))
        solved = milp.solve_small(model).assignment
        assert milp.check_assignment(model, dict(solved, s_v1=value)) == [
            f"s_v1={value!r} is not integral"]

    def test_check_reports_a_missing_value_a_bound_and_a_row(self):
        model = milp.build_model1(path_graph(3))
        solved = milp.solve_small(model).assignment
        missing = {k: v for k, v in solved.items() if k != "x_v1"}
        assert milp.check_assignment(model, missing) == ["missing value for x_v1"]
        # a missing variable is reported once, not also in every row naming it
        arc = {k: v for k, v in solved.items() if k != "y_v2__v3"}
        assert milp.check_assignment(model, arc) == ["missing value for y_v2__v3"]
        assert milp.check_assignment(model, dict(solved, x_v3=7)) == [
            "x_v3=7 outside [0, 3]", "order_v3__v2: 6 <= 3 violated",
            "watch_v2__v1__v3: 7 <= 3 violated"]
        assert milp.check_assignment(model, dict(solved, x_v3=1)) == [
            "order_v2__v3: 4 <= 3 violated"]

    def test_a_derived_assignment_that_violates_the_model_is_refused(self, monkeypatch):
        encode = milp._encode
        monkeypatch.setattr(milp, "_encode", lambda *args: {
            k: v for k, v in encode(*args).items() if k != "x_v1"})
        with pytest.raises(ModelError) as info:
            milp.solve_small(milp.build_model1(path_graph(3)))
        assert str(info.value) == "derived assignment violates the model: missing value for x_v1"


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
                value = milp.round_number(g, rounds)
                assert value == exact.l_round_pd(g, rounds).optimum
                values.append(value)
            assert values == sorted(values, reverse=True)
            assert values[-1] == exact.min_pds(g).optimum

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            milp.round_number(complete_bipartite(3, 3), 2,
                              budget=exact.Budget(max_vertices=5))


class TestPptSearch:
    def test_examples(self):
        assert milp.ppt_by_search(path_graph(5)) == 2
        assert milp.ppt_by_search(complete_graph(4)) == 1
        assert milp.ppt_by_search(cycle_graph(6)) == 3

    def test_matches_exact(self):
        rng = random.Random(17)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(1, 6))
            assert milp.ppt_by_search(g) == exact.ppt(g)
            assert milp.ppt_by_search(g, connected=True) == exact.ppt(g, connected=True)

    def test_time_budget_bounds_the_whole_search(self, monkeypatch):
        """On a fake clock that moves one second per reading, each solve of
        the search fits in the budget on its own but the search does not."""
        clock = itertools.count(1.0)
        monkeypatch.setattr(exact, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        g, budget = path_graph(5), exact.Budget(max_seconds=30)
        for rounds in range(1, g.n + 1):
            milp.round_number(g, rounds, budget=budget)
        with pytest.raises(BudgetExceededError):
            milp.ppt_by_search(g, budget=budget)
        assert milp.ppt_by_search(g, budget=exact.Budget(max_seconds=1000)) == 2


@pytest.mark.parametrize("connected", [False, True])
def test_round_number_and_ppt_by_search_replay_the_decoded_schedule(monkeypatch, connected):
    """Both answer from the decoded schedule, certified by replaying it: a
    decoder that drops the last force is refused, as on the command line."""
    decode = milp.decode_assignment

    def drop_last_force(model, assignment):
        chosen, trace = decode(model, assignment)
        forces = trace.forces[:-1]
        final = tuple(sorted(set(chosen) | {f.target for f in forces}))
        return chosen, prop.PropagationTrace(chosen, forces, final)

    monkeypatch.setattr(milp, "decode_assignment", drop_last_force)
    message = "^method milp produced a non power dominating set$"
    with pytest.raises(SolverInternalError, match=message):
        milp.round_number(path_graph(5), 4, connected)
    with pytest.raises(SolverInternalError, match=message):
        milp.ppt_by_search(path_graph(5), connected)


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
        # distinct cleaned labels whose arc suffixes meet: a -> b__c and
        # a__b -> c both name y_a__b__c
        g = Graph(["a", "b__c", "a__b", "c"], [(0, 1), (2, 3), (1, 3)])
        with pytest.raises(ModelError, match="y_a__b__c"):
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

    def test_lp_terms_by_position_and_sign(self):
        """A row's first term keeps a minus sign unspaced and drops a plus;
        a coefficient of magnitude one is not written."""
        a, b = milp.Variable("a", milp.BINARY, 0, 1), milp.Variable("b", milp.INTEGER, 0, 4)
        row = milp.Constraint("c", ((-3, "b"), (1, "a"), (-1, "b")), ">=", -2)
        model = milp.MilpModel("m", (a, b), ((-1, "a"),), (row,))
        text = milp.export(model, "lp")
        assert " obj: -a\n" in text and " c: -3 b + a - b >= -2\n" in text
        assert milp.parse_lp(text) == model

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


REWRITTEN = ["bus-1", "bus.2", "3/4", "a b", "bus-5", "x+y", "v7"]


@pytest.mark.parametrize("connected", [False, True], ids=["pd", "cpd"])
def test_rewritten_labels(connected):
    """Labels with characters outside [A-Za-z0-9_] appear rewritten in
    every name; the model still solves, decodes and reads back."""
    rng = random.Random(31)
    for _ in range(6):
        g = Graph(REWRITTEN, random_connected_graph(rng, len(REWRITTEN)).edges())
        for horizon in (1, 2, None):
            model = milp.build_model1(g, horizon)
            if connected:
                model = milp.add_mtz_connectivity(model, g)
            assert {"s_bus_1", "x_bus_2", "s_3_4", "s_a_b", "s_x_y"} <= {
                v.name for v in model.variables}
            solution = milp.solve_small(model)
            chosen, trace = milp.decode_assignment(model, solution.assignment)
            assert prop.replay_trace(g, trace) == g.full_mask
            assert len(chosen) == solution.objective_value
            assert not connected or prop.is_connected_set(g, chosen)
            assert milp.parse_lp(milp.export(model, "lp")).canonical() == model.canonical()
            assert milp.parse_mps(milp.export(model, "mps")).canonical() == model.canonical()


CLASHING = ["bus-1", "bus.1", "bus_1_", "c", "bus 1", "d"]


@pytest.mark.parametrize("connected", [False, True], ids=["pd", "cpd"])
def test_labels_that_clash_after_cleaning(connected):
    """A label that cleans to an earlier vertex's name takes the first free
    one with underscores appended; every other label keeps its name."""
    g = Graph(CLASHING, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (0, 5)])
    model = milp.build_model1(g)
    if connected:
        model = milp.add_mtz_connectivity(model, g)
    assert [v.name for v in model.variables[:g.n]] == [
        "s_bus_1", "s_bus_1__", "s_bus_1_", "s_c", "s_bus_1___", "s_d"]
    solution = milp.solve_small(model)
    chosen, trace = milp.decode_assignment(model, solution.assignment)
    assert prop.replay_trace(g, trace) == g.full_mask
    assert not connected or prop.is_connected_set(g, chosen)
    assert milp.parse_lp(milp.export(model, "lp")) == model
    assert milp.parse_mps(milp.export(model, "mps")).canonical() == model.canonical()


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


@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_writers_and_readers_are_linear(fmt):
    """The cpd model of a sparse 400-vertex graph has about 5500 rows; a
    writer or reader that scans every column entry for each row takes
    seconds on it."""
    g = random_connected_graph(random.Random(400), 400, extra=40)
    model = milp.add_mtz_connectivity(milp.build_model1(g), g)
    parse = milp.parse_lp if fmt == "lp" else milp.parse_mps
    started = time.perf_counter()
    text = milp.export(model, fmt)
    assert time.perf_counter() - started < 2.0
    started = time.perf_counter()
    parsed = parse(text)
    assert time.perf_counter() - started < 2.0
    assert parsed.canonical() == model.canonical()


@pytest.mark.parametrize("source", ["built", "lp", "mps"])
def test_one_object_per_distinct_term(source):
    """Every row of a cpd model, and its objective, hold the one tuple of
    each distinct (coef, name) term, whether the builders made the model
    or a reader took it from the writer's text."""
    g = random_connected_graph(random.Random(37), 30)
    model = milp.add_mtz_connectivity(milp.build_model1(g), g)
    if source != "built":
        parse = milp.parse_lp if source == "lp" else milp.parse_mps
        model = parse(milp.export(model, source))
    terms = [*model.objective, *(term for con in model.constraints for term in con.terms)]
    assert len({id(term) for term in terms}) == len(set(terms)) < len(terms)


def test_records_are_tuples_of_their_fields():
    """Variable and Constraint are named tuples: each equals the plain tuple
    of its fields, and its repr names them."""
    var = milp.Variable("s_a", milp.BINARY, 0, 1)
    con = milp.Constraint("cover_a", ((1, "s_a"),), "=", 1)
    assert var == ("s_a", "binary", 0, 1)
    assert con == ("cover_a", ((1, "s_a"),), "=", 1)
    assert repr(var) == "Variable(name='s_a', kind='binary', lower=0, upper=1)"
    assert repr(con) == "Constraint(name='cover_a', terms=((1, 's_a'),), relation='=', rhs=1)"


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
        ("    rhs    cover_v2    1", "    rhs    cover_v1    1", "MPS line 25"),
        ("order_v1__v2    3", "order_v1__v2    1_0", "MPS line 19"),
        ("    rhs    cover_v1    1", "    rhs    cover_v1    \u0661", "MPS line 24"),
        (" LI bnd    x_v1    0", " LI bnd    x_v1    \u0660", "MPS line 31"),
        (" BV bnd    s_v1\n", " BV bnd    s_v1\n UI bnd    s_v1    3\n", "'s_v1'"),
        (" UI bnd    x_v1    2\n", " UI bnd    x_v1    2\n BV bnd    x_v1\n", "'x_v1'"),
        (" UI bnd    x_v1    2\n", " UI bnd    x_v1    2\n LI bnd    x_v1    1\n", "MPS line 33"),
        (P2_MPS, "", "no variables"),
    ], ids=["row-twice", "second-objective", "row-type", "split-column", "rhs-on-objective",
            "unknown-section", "outside-sections", "rhs-twice", "underscore-digits",
            "non-ascii-rhs", "non-ascii-bound", "binary-then-integer", "integer-then-binary",
            "bound-twice", "empty"])
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
        (" obj: s_v1 + s_v2", " obj: s_v1 * s_v2", "LP line 3"),
        ("Minimize\n", "", "LP line 2"),
        (" cover_v2:", " cover_v1:", "LP line 6"),
        ("3 y_v1__v2 <= 2", "3 y_v1__v2 <= \u0662", "LP line 7"),
        ("+ 3 y_v1__v2", "+ \u0663 y_v1__v2", "LP line 7"),
        (" 0 <= x_v1 <= 2", " 0 <= x_v1 <= \u0662", "LP line 12"),
        (" x_v1\n x_v2\n", " x_v2\n", "'x_v1'"),
        ("Binaries\n", "Binaries\n x_v1\n", "'x_v1'"),
        (P2_LP, "", "no variables"),
    ], ids=["junk-between-terms", "missing-sign", "fraction", "bound-twice", "objective",
            "outside-sections", "label-twice", "non-ascii-rhs", "non-ascii-coefficient",
            "non-ascii-bound", "neither-kind", "both-kinds", "empty"])
    def test_lp_other_defects(self, old, new, where):
        self.check(milp.parse_lp, edited(P2_LP, old, new), where)


def test_signed_integers_read_back():
    """Both readers take an explicitly signed ASCII integer."""
    lp = milp.parse_lp(edited(P2_LP, " 0 <= x_v1 <= 2", " +0 <= x_v1 <= +2"))
    mps = milp.parse_mps(edited(P2_MPS, "    rhs    cover_v1    1", "    rhs    cover_v1    +1"))
    assert lp == milp.parse_lp(P2_LP)
    assert mps == milp.parse_mps(P2_MPS)


def test_blank_lines_are_skipped():
    """Both readers pass over an empty or all-blank line wherever it stands."""
    lp = milp.parse_lp(edited(P2_LP, "Subject To\n", "\nSubject To\n  \n"))
    mps = milp.parse_mps(edited(P2_MPS, "RHS\n", "\nRHS\n \n"))
    assert lp == milp.parse_lp(P2_LP) and mps == milp.parse_mps(P2_MPS)


def test_mps_row_without_rhs_entry_has_rhs_zero():
    parsed = milp.parse_mps(edited(P2_MPS, "    rhs    cover_v1    1\n", ""))
    assert [c.rhs for c in parsed.constraints] == [0, 1, 2, 2]


@pytest.mark.parametrize("call, error, message", [
    (lambda: milp.build_model1(path_graph(4), 0), GraphError, "horizon must be at least 1"),
    (lambda: milp.add_mtz_connectivity(milp.build_model1(path_graph(4)), path_graph(5)),
     ModelError, "model was not built from this graph"),
    (lambda: milp.solve_small(milp.parse_lp(milp.export(milp.build_model1(path_graph(4))))),
     ModelError, "solve_small only handles models built by this module"),
    (lambda: milp.export(milp.build_model1(path_graph(4)), "xml"), ModelError,
     "unknown export format 'xml'"),
    (lambda m=milp.build_model1(path_graph(4)): milp.decode_assignment(
        milp.parse_lp(milp.export(m)), milp.solve_small(m).assignment),
     ModelError, "decode_assignment only handles models built by this module"),
], ids=["horizon", "other graph", "parsed model", "format", "decode parsed model"])
def test_each_refusal_is_one_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
