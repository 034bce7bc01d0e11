"""Enumeration oracles and the hardness gadget."""

from __future__ import annotations

import random

import pytest

from powerdom import exact
from powerdom import propagation as prop
from powerdom.errors import BudgetExceededError, DisconnectedError
from powerdom.exact import Budget
from powerdom.graphs import Graph, attach_leaves, complete_graph, cycle_graph, path_graph

from conftest import (
    complete_bipartite,
    double_star,
    naive_min_cpds,
    naive_min_pds_size,
    random_connected_graph,
)


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

    def test_seeded_and_unseeded_agree(self):
        rng = random.Random(37)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(1, 10))
            fast = exact.min_cpds(g)
            slow = exact.min_cpds(g, seeded=False)
            assert fast.optimum == slow.optimum
            assert fast.witness == slow.witness

    def test_matches_naive_subset_filter(self):
        rng = random.Random(43)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(1, 9))
            size, optima = naive_min_cpds(g)
            result = exact.min_cpds(g)
            assert result.optimum == size
            assert result.witness == optima[0]

    def test_all_optima_sorted(self):
        result = exact.min_cpds(cycle_graph(5), all_optima=True)
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


class TestBudget:
    def test_time_ceiling(self):
        g = complete_bipartite(8, 8)
        tight = Budget(max_vertices=20, max_seconds=0.0)
        with pytest.raises(BudgetExceededError):
            exact.min_cpds(g, tight)

    def test_time_ceiling_of_the_pd_search(self):
        g = complete_bipartite(8, 8)
        tight = Budget(max_vertices=20, max_seconds=0.0)
        with pytest.raises(BudgetExceededError):
            exact.min_pds(g, tight)
        with pytest.raises(BudgetExceededError):
            exact.l_round_pd(g, 2, tight)
