"""Color-change engine: domination, forcing, traces, propagation time."""

from __future__ import annotations

import random
import time

import pytest

from powerdom import propagation as prop
from powerdom.errors import NotPowerDominatingError, PowerDomError
from powerdom.graphs import Graph, bits_of, complete_graph, cycle_graph, path_graph

from conftest import (
    complete_bipartite,
    naive_is_pds,
    naive_ppt,
    naive_propagate,
    random_connected_graph,
)


class TestDominateStep:
    def test_cycle_neighborhood(self):
        trace = prop.dominate_step(cycle_graph(4), [0])
        assert trace.final_colored == (0, 1, 3)
        assert trace.forces[-1].timestep == 1

    def test_complete_graph_everything(self):
        g = complete_graph(5)
        assert bits_of(prop.dominate_step(g, [0]).final_colored) == g.full_mask

    def test_empty_set_dominates_nothing(self):
        assert bits_of(prop.dominate_step(path_graph(5), []).final_colored) == 0

    def test_result_contains_the_set(self):
        rng = random.Random(19)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(1, 10))
            s = rng.sample(range(g.n), rng.randint(1, g.n))
            trace = prop.dominate_step(g, s)
            assert bits_of(trace.final_colored) & bits_of(s) == bits_of(s)


class TestForcingClosure:
    def test_path_chain(self):
        g = path_graph(5)
        trace = prop.forcing_closure(g, [0, 1])
        assert bits_of(trace.final_colored) == g.full_mask
        assert [f.timestep for f in trace.forces] == [1, 2, 3]

    def test_cycle_single_vertex_stuck(self):
        g = cycle_graph(4)
        trace = prop.forcing_closure(g, [0])
        assert bits_of(trace.final_colored) == 1 and trace.forces == ()

    def test_star_leaves_force_center(self):
        g = Graph(["c", "l1", "l2", "l3"], [(0, 1), (0, 2), (0, 3)])
        trace = prop.forcing_closure(g, [1, 2, 3])
        assert bits_of(trace.final_colored) == g.full_mask
        assert trace.forces == (prop.Force(1, 1, 0, "force"),)  # smallest source claims


class TestPowerDominating:
    def test_any_cycle_vertex(self):
        g = cycle_graph(7)
        for v in range(7):
            ok, _ = prop.is_power_dominating(g, [v])
            assert ok

    def test_k33_single_vertex_fails(self):
        ok, trace = prop.is_power_dominating(complete_bipartite(3, 3), [0])
        assert not ok
        assert len(trace.final_colored) == 4

    def test_whole_vertex_set(self):
        g = random_connected_graph(random.Random(3), 8)
        ok, _ = prop.is_power_dominating(g, range(8))
        assert ok

    def test_empty_set_fails(self):
        ok, _ = prop.is_power_dominating(path_graph(1), [])
        assert not ok

    def test_monotone_under_supersets(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 12))
            s = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            ok, _ = prop.is_power_dominating(g, s)
            if ok:
                extra = s | {rng.randrange(g.n)}
                ok2, _ = prop.is_power_dominating(g, extra)
                assert ok2

    def test_agrees_with_naive_engine(self):
        rng = random.Random(29)
        for _ in range(80):
            g = random_connected_graph(rng, rng.randint(1, 14))
            s = set(rng.sample(range(g.n), rng.randint(0, g.n)))
            ok, trace = prop.is_power_dominating(g, s)
            assert ok == naive_is_pds(g, s)
            assert bits_of(trace.final_colored) == bits_of(naive_propagate(g, s))


class TestZeroForcing:
    def test_path_endpoint(self):
        assert prop.is_zero_forcing(path_graph(6), [0])

    def test_cycle_needs_two_adjacent(self):
        g = cycle_graph(5)
        assert not prop.is_zero_forcing(g, [0])
        assert prop.is_zero_forcing(g, [0, 1])

    def test_implies_power_dominating(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(1, 12))
            s = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            if prop.is_zero_forcing(g, s):
                ok, _ = prop.is_power_dominating(g, s)
                assert ok


class TestPpt:
    def test_path_from_endpoint(self):
        assert prop.ppt_of_set(path_graph(5), [0]) == 4

    def test_complete_graph(self):
        assert prop.ppt_of_set(complete_graph(6), [0]) == 1

    def test_cycle_two_chains(self):
        assert prop.ppt_of_set(cycle_graph(6), [0]) == 3

    def test_rejects_non_dominating(self):
        with pytest.raises(NotPowerDominatingError):
            prop.ppt_of_set(complete_bipartite(3, 3), [0])

    def test_bounded_by_n_and_matches_naive(self):
        rng = random.Random(53)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(1, 12))
            s = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            ok, _ = prop.is_power_dominating(g, s)
            if ok:
                value = prop.ppt_of_set(g, s)
                assert 1 <= value <= g.n
                assert value == naive_ppt(g, s)

    def test_colors_within_matches_ppt(self):
        rng = random.Random(67)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(1, 10))
            s = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            ok, _ = prop.is_power_dominating(g, s)
            if not ok:
                assert not prop.colors_within(g, s, g.n)
                continue
            value = prop.ppt_of_set(g, s)
            assert prop.colors_within(g, s, value)
            assert not prop.colors_within(g, s, value - 1)


class TestConnectedSet:
    def test_examples(self):
        g = path_graph(4)
        assert prop.is_connected_set(g, [0, 1])
        assert not prop.is_connected_set(g, [0, 2])
        assert prop.is_connected_set(g, [2])
        assert not prop.is_connected_set(g, [])


class TestTraces:
    def test_dominate_entries_at_round_one(self):
        g = path_graph(5)
        ok, trace = prop.is_power_dominating(g, [1])
        assert ok
        kinds = [(f.timestep, f.kind) for f in trace.forces]
        assert kinds[0] == (1, "dominate") and kinds[1] == (1, "dominate")
        assert all(k == "force" for t, k in kinds[2:])

    def test_targets_unique_and_outside_initial(self):
        rng = random.Random(71)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 12))
            s = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            _, trace = prop.is_power_dominating(g, s)
            targets = [f.target for f in trace.forces]
            assert len(targets) == len(set(targets))
            assert not set(targets) & set(trace.initial)

    def test_replay_reproduces_final(self):
        rng = random.Random(73)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 14))
            s = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            _, trace = prop.is_power_dominating(g, s)
            assert prop.replay_trace(g, trace) == bits_of(trace.final_colored)

    def test_serialization_format(self):
        g = path_graph(3)
        ok, trace = prop.is_power_dominating(g, [0])
        lines = prop.trace_lines(g, trace)
        assert lines[0] == "t=1 v1 -> v2 [dominate]"
        assert lines[1] == "t=2 v2 -> v3 [force]"

    def test_replay_rejects_illegal_entries(self):
        g = path_graph(5)
        _, trace = prop.is_power_dominating(g, [1])
        dom, dom2, f1, f2 = trace.forces  # 1->0, 1->2 at t=1; 2->3 at 2; 3->4 at 3

        def replay(forces, final=trace.final_colored):
            prop.replay_trace(g, prop.PropagationTrace(trace.initial, tuple(forces), final))

        cases = [
            ([dom, dom2, f1, f1], "target 3 colored twice"),
            ([prop.Force(2, 1, 0, "dominate"), dom2, f1, f2], "domination entry outside round 1"),
            ([dom, dom2, prop.Force(1, 2, 3, "dominate")], "domination entry outside round 1"),
            ([prop.Force(1, 1, 4, "dominate"), dom2, f1], "domination along a non-edge"),
            ([dom2, f1, prop.Force(3, 4, 0, "force")], "source 4 not colored at t=3"),
            ([dom, dom2, prop.Force(2, 3, 4, "force"), f1], "source 3 not colored at t=2"),
            ([dom, dom2, f1, prop.Force(2, 2, 4, "force")], "source 2 cannot force 4 at t=2"),
            ([dom, dom2, f1, prop.Force(3, 3, 4, "dom")], "unknown entry kind 'dom'"),
            ([dom, dom2, prop.Force(2.5, 2, 3, "force"), f2],
             "timestep 2.5 of target 3 is not an int of at least 1"),
            ([dom, dom2, prop.Force(0, 2, 3, "force"), f2],
             "timestep 0 of target 3 is not an int of at least 1"),
            ([prop.Force(True, 1, 0, "dominate"), dom2, f1, f2],
             "timestep True of target 0 is not an int of at least 1"),
            # every entry is legal, but rounds 3 to 8 color nothing
            ([dom, dom2, f1, prop.Force(9, 3, 4, "force")],
             "round 3 leaves 4 uncolored, which synchronized propagation colors in it"),
        ]
        for forces, message in cases:
            with pytest.raises(PowerDomError, match=message):
                replay(forces)
        with pytest.raises(PowerDomError, match="does not reproduce"):
            replay(trace.forces, final=(0, 1, 2, 3))

    def test_replay_of_a_long_path_is_linear(self):
        g = path_graph(20000)
        ok, trace = prop.is_power_dominating(g, [0])
        assert ok and trace.rounds() == 19999
        started = time.perf_counter()
        assert prop.replay_trace(g, trace) == g.full_mask
        assert time.perf_counter() - started < 5.0


class TestScaling:
    """Long chains run in linear time; the former round-by-round rescan took
    minutes here."""

    N = 50_000

    @pytest.mark.parametrize("where", ["end", "centre"])
    def test_path(self, where):
        g = path_graph(self.N)
        start = 0 if where == "end" else self.N // 2
        started = time.perf_counter()
        ok, trace = prop.is_power_dominating(g, [start])
        assert time.perf_counter() - started < 5.0
        assert ok and len(trace.forces) == self.N - 1
        assert trace.rounds() == (self.N - 1 if where == "end" else self.N // 2)

    @pytest.mark.parametrize("where", ["end", "centre"])
    def test_spider(self, where):
        leg = (self.N - 1) // 3
        edges = []
        for k in range(3):
            prev = 0
            for i in range(leg):
                v = 1 + k * leg + i
                edges.append((prev, v))
                prev = v
        g = Graph([str(v) for v in range(3 * leg + 1)], edges)
        start = 0 if where == "centre" else leg  # leg is the far end of leg 0
        started = time.perf_counter()
        ok, trace = prop.is_power_dominating(g, [start])
        assert time.perf_counter() - started < 5.0
        if where == "centre":
            assert ok and trace.rounds() == leg
        else:
            # a leaf of a spider with three legs colors only its own leg
            assert not ok and trace.final_colored == tuple(range(leg + 1))
