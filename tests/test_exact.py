"""Enumeration oracles and the hardness gadget."""

from __future__ import annotations

import random
import time

import pytest

from powerdom import exact
from powerdom import propagation as prop
from powerdom.errors import (BudgetExceededError, DisconnectedError, GraphError,
                             PowerDomError, SolverInternalError)
from powerdom.exact import Budget
from powerdom.decomposition import classify_cut_vertices
from powerdom.graphs import (Graph, attach_leaves, bits_of, complete_graph, cycle_graph,
                             path_graph)

from conftest import (
    complete_bipartite,
    double_star,
    naive_min_cpds,
    naive_min_pds_size,
    random_cactus,
    random_connected_graph,
)


def cycles_with_leaf_pairs() -> list[Graph]:
    """Cycles with two leaves on each of two or three pairwise non-adjacent
    cycle vertices: those vertices are the mandatory set, and it is
    disconnected."""
    out = []
    for size, picks in ((4, (0, 2)), (5, (0, 2)), (6, (0, 3)), (6, (0, 2, 4)),
                        (7, (1, 4))):
        labels = [f"c{i}" for i in range(size)]
        edges = [(i, (i + 1) % size) for i in range(size)]
        for v in picks:
            for _ in range(2):
                edges.append((v, len(labels)))
                labels.append(f"l{len(labels)}")
        out.append(Graph(labels, edges))
    return out


def disconnected_mandatory_cacti(rng: random.Random, count: int) -> list[Graph]:
    """Random cacti whose mandatory set is disconnected (about 1 in 22)."""
    out = []
    while len(out) < count:
        g = random_cactus(rng, rng.randint(6, 11))
        mandatory = bits_of(classify_cut_vertices(g).mandatory)
        if mandatory and not g.is_connected_mask(mandatory):
            out.append(g)
    return out


def grid_graph(rows: int, cols: int) -> Graph:
    labels = [f"{r},{c}" for r in range(rows) for c in range(cols)]
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(labels, edges)


class TestMinPds:
    def test_path(self):
        result = exact.min_pds(path_graph(7))
        assert result.optimum == 1

    def test_k33(self):
        result = exact.min_pds(complete_bipartite(3, 3))
        assert result.optimum == 2
        assert result.witness == (0, 1)  # lexicographically smallest optimum

    def test_star(self):
        g = Graph(["c"] + [f"l{i}" for i in range(5)], [(0, i) for i in range(1, 6)])
        assert exact.min_pds(g).optimum == 1

    def test_budget_refusal(self):
        g = path_graph(30)
        with pytest.raises(BudgetExceededError):
            exact.min_pds(g)
        assert exact.min_pds(g, Budget(max_vertices=30)).optimum == 1

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            exact.min_pds(Graph(["a", "b"], []))

    def test_matches_naive_filter(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(1, 9))
            assert exact.min_pds(g).optimum == naive_min_pds_size(g)


class TestMinCpds:
    def test_cycle_with_antipodal_leaves(self):
        g = Graph(
            ["v1", "v2", "v3", "v4", "v5", "v6", "x", "y"],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (3, 7)],
        )
        assert exact.min_cpds(g).optimum == 1

    def test_double_star(self):
        result = exact.min_cpds(double_star())
        assert result.optimum == 2
        assert result.witness == (0, 1)

    def test_path(self):
        assert exact.min_cpds(path_graph(9)).optimum == 1

    def test_seeded_search_matches_the_subset_filter(self):
        rng = random.Random(37)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(1, 10))
            fast = exact.min_cpds(g)
            size, optima = naive_min_cpds(g, collect_all=True)
            assert fast.optimum == size
            assert fast.witness == optima[0]

    def test_matches_naive_subset_filter(self):
        """Optimum, witness and every optimum of each connected front door
        against the subset filter, also on graphs whose mandatory set is
        disconnected, where a grown set must pass the connectivity test."""
        rng = random.Random(43)
        graphs = [random_connected_graph(rng, rng.randint(1, 9)) for _ in range(20)]
        graphs += cycles_with_leaf_pairs() + disconnected_mandatory_cacti(rng, 6)

        def answer(result):
            return result.optimum, result.witness, result.all_optima

        def naive(g, **kwargs):
            size, optima = naive_min_cpds(g, collect_all=True, **kwargs)
            return size, optima[0], tuple(optima)

        for g in graphs:
            want = naive(g)
            assert answer(exact.min_cpds(g)) == want
            for rounds in sorted({1, 2, g.n}):
                limited = exact.l_round_cpd(g, rounds)
                assert answer(limited) == naive(g, rounds=rounds)
            x = sorted(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
            constrained = exact.min_cpds_subject_to(g, x)
            assert answer(constrained) == naive(g, required=x)

    def test_grid_two_rounds_within_wall(self):
        g = grid_graph(4, 6)
        started = time.perf_counter()
        result = exact.l_round_cpd(g, 2)
        assert time.perf_counter() - started < 1.5
        assert prop.colors_within(g, result.witness, 2)

    def test_all_optima_sorted(self):
        result = exact.min_cpds(cycle_graph(5))
        assert result.all_optima == ((0,), (1,), (2,), (3,), (4,))

    def test_witness_certified(self):
        rng = random.Random(47)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(1, 10))
            result = exact.min_cpds(g)
            ok, _ = prop.is_power_dominating(g, result.witness)
            assert ok and prop.is_connected_set(g, result.witness)


class TestSubjectTo:
    def test_path_distance(self):
        g = path_graph(5)
        result = exact.min_cpds_subject_to(g, [1, 3])
        assert result.optimum == 3
        assert result.witness == (1, 2, 3)

    def test_empty_constraint_reduces_to_plain(self):
        rng = random.Random(61)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(1, 9))
            assert exact.min_cpds_subject_to(g, []).optimum == exact.min_cpds(g).optimum

    def test_cycle_with_gap(self):
        g = cycle_graph(5)
        assert exact.min_cpds_subject_to(g, [0, 2]).optimum == 3

    @pytest.mark.parametrize("x", [[-1], [3], [0, 5]])
    def test_constraint_outside_vertices_rejected(self, x):
        with pytest.raises(GraphError):
            exact.min_cpds_subject_to(path_graph(3), x)

    def test_leaf_expansion_equivalence(self):
        rng = random.Random(67)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 8))
            x = sorted(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
            direct = exact.min_cpds_subject_to(g, x).optimum
            expanded = exact.min_cpds(attach_leaves(g, x, 3)).optimum
            assert direct == expanded


class TestLRound:
    def test_path_one_round_is_domination(self):
        assert exact.l_round_pd(path_graph(5), 1).optimum == 2

    def test_path_full_horizon(self):
        assert exact.l_round_pd(path_graph(5), 4).optimum == 1

    def test_complete_one_round(self):
        assert exact.l_round_pd(complete_graph(6), 1).optimum == 1

    def test_nonincreasing_and_matches_min_pds_at_n(self):
        rng = random.Random(71)
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 8))
            values = [exact.l_round_pd(g, rounds).optimum for rounds in range(1, g.n + 1)]
            assert values == sorted(values, reverse=True)
            assert values[-1] == exact.min_pds(g).optimum


class TestPpt:
    def test_path_middle_wins(self):
        assert exact.ppt(path_graph(5)) == 2

    def test_complete(self):
        assert exact.ppt(complete_graph(5)) == 1

    def test_cycle(self):
        assert exact.ppt(cycle_graph(6)) == 3

    def test_connected_variant_at_least_plain(self):
        rng = random.Random(79)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 8))
            assert exact.ppt(g) <= g.n
            assert exact.ppt(g, connected=True) <= g.n


class TestZeroForcing:
    def test_path_and_cycle(self):
        assert exact.min_zero_forcing(path_graph(6)).optimum == 1
        assert exact.min_zero_forcing(cycle_graph(6)).optimum == 2

    def test_disconnected_adds_up(self):
        g = Graph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
        assert exact.min_zero_forcing(g).optimum == 2

    def test_witness_is_certified_by_forcing(self, monkeypatch):
        """A search whose closure runs the domination step finds power
        dominating sets; the forcing certificate must reject them."""
        monkeypatch.setattr(prop, "_unforced", prop._uncolored)
        with pytest.raises(SolverInternalError, match="non power dominating set"):
            exact.min_zero_forcing(cycle_graph(6))


class TestGadget:
    @pytest.mark.parametrize(
        "n,vertices", [(1, 8), (2, 17), (3, 30), (4, 47)]
    )
    def test_vertex_count(self, n, vertices):
        g = Graph([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
        expanded, bound = exact.zf_to_cpd_gadget(g, 3)
        assert bound == 4
        assert expanded.n == 2 * n * n + 3 * n + 3 == vertices

    def test_edge_count_and_hub_degree(self):
        rng = random.Random(83)
        for _ in range(8):
            n = rng.randint(1, 4)
            g = random_connected_graph(rng, n) if n > 1 else Graph(["0"], [])
            expanded, _ = exact.zf_to_cpd_gadget(g, 1)
            assert expanded.m == g.m + 2 * n * (n - 1) + 6 * n + 2
            assert expanded.degree(expanded.index("hub")) == 2 * n + 2

    def test_negative_bound_rejected(self):
        with pytest.raises(GraphError, match="at least 0"):
            exact.zf_to_cpd_gadget(path_graph(2), -3)
        assert exact.zf_to_cpd_gadget(path_graph(2), 0)[1] == 1

    def test_mandatory_set_is_hub(self):
        from powerdom.decomposition import classify_cut_vertices

        g = complete_graph(3)
        expanded, _ = exact.zf_to_cpd_gadget(g, 1)
        tax = classify_cut_vertices(expanded)
        assert tax.mandatory == (expanded.index("hub"),)

    def test_reduction_on_a_sample(self):
        g = complete_graph(3)
        z = exact.min_zero_forcing(g).optimum
        expanded, _ = exact.zf_to_cpd_gadget(g, 1)
        gamma = exact.min_cpds(expanded, Budget(max_vertices=48)).optimum
        for k in range(1, g.n + 1):
            assert (z <= k) == (gamma <= k + 1)


def test_mask_connectivity_matches_the_graph_check():
    """``exact._connected`` reads only neighbor masks; on every mask of
    seeded graphs with up to 10 vertices it agrees with
    ``Graph.is_connected_mask``."""
    rng = random.Random("mask connectivity")
    for _ in range(30):
        n = rng.randint(1, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph([f"v{i}" for i in range(n)], rng.sample(pairs, rng.randint(0, len(pairs))))
        nbr = [bits_of(row) for row in g.adj]
        for mask in range(1 << n):
            assert exact._connected(nbr, mask) == g.is_connected_mask(mask)


class TestBudget:
    def test_time_ceiling(self):
        g = complete_bipartite(8, 8)
        tight = Budget(max_vertices=20, max_seconds=0.0)
        with pytest.raises(BudgetExceededError):
            exact.min_cpds(g, tight)
        with pytest.raises(BudgetExceededError):
            exact.l_round_cpd(g, 2, tight)

    def test_time_ceiling_of_the_pd_search(self):
        g = complete_bipartite(8, 8)
        tight = Budget(max_vertices=20, max_seconds=0.0)
        with pytest.raises(BudgetExceededError):
            exact.min_pds(g, tight)
        with pytest.raises(BudgetExceededError):
            exact.l_round_pd(g, 2, tight)
        with pytest.raises(BudgetExceededError):
            exact.min_zero_forcing(g, tight)

    def test_size_is_refused_before_the_pendant_forts_are_built(self, monkeypatch):
        """A star's leaf pairs are quadratic in its leaves, so a star over
        the vertex budget is refused before any of them is built."""
        def refuse(taxonomy):
            raise AssertionError("pendant forts built for a graph over the budget")

        monkeypatch.setattr(exact, "_pendant_forts", refuse)
        star = complete_bipartite(1, 3000)
        with pytest.raises(BudgetExceededError):
            exact.min_pds(star)
        with pytest.raises(BudgetExceededError):
            exact.l_round_pd(star, 2)

    @pytest.mark.parametrize("field,value", [
        ("max_vertices", None), ("max_vertices", -1), ("max_vertices", True),
        ("max_vertices", 24.0), ("max_seconds", float("nan")), ("max_seconds", -0.5),
        ("max_seconds", "1"), ("max_seconds", False),
    ])
    def test_invalid_field_is_refused_by_name(self, field, value):
        """nan would silently disable the time ceiling, and a str or None
        would fail with a TypeError at the first check; ``_replace`` checks
        its fields as the constructor does."""
        for make in (Budget, exact.DEFAULT_BUDGET._replace):
            with pytest.raises(PowerDomError) as info:
                make(**{field: value})
            message = str(info.value)
            assert field in message and repr(value) in message and "\n" not in message

    @pytest.mark.parametrize("seconds", [None, 0, 0.0, 2.5, float("inf")])
    def test_valid_time_ceilings_are_kept(self, seconds):
        assert Budget(max_vertices=0, max_seconds=seconds).max_seconds == seconds


@pytest.mark.parametrize("call, error, message", [
    (lambda: exact.l_round_pd(path_graph(4), 0), GraphError, "round budget must be at least 1"),
    (lambda: exact.l_round_cpd(path_graph(4), 0), GraphError, "round budget must be at least 1"),
    (lambda: exact.DEFAULT_BUDGET.until(time.perf_counter() - 1), BudgetExceededError,
     "time budget exhausted"),
], ids=["l_round_pd", "l_round_cpd", "until"])
def test_each_refusal_is_one_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
