"""Tests of the benchmark's own code: generators, span arithmetic, checker,
speed scaling.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import random

import pytest

import checker
import corpus
import spans
import speed
import workloads


def test_generators_repeat_per_seed():
    for family in corpus.STRUCTURED_FAMILIES:
        assert corpus.structured_graph(family, 300) == corpus.structured_graph(family, 300)
    for family in corpus.ORACLE_FAMILIES:
        assert corpus.oracle_graph(family, 5) == corpus.oracle_graph(family, 5)
    for family in corpus.CHAIN_FAMILIES:
        assert corpus.chain_graph(family, 200, 7) == corpus.chain_graph(family, 200, 7)
    assert corpus.chain_graph("spider", 200, 7) != corpus.chain_graph("spider", 200, 8)


def test_relabel_keeps_the_graph():
    edges = corpus.structured_graph("cactus", 300)
    moved, perm = corpus.relabel(edges, random.Random(7))
    assert sorted(perm) == list(range(300))
    assert moved != edges
    assert {frozenset(e) for e in moved} == {frozenset((perm[u], perm[v])) for u, v in edges}
    assert corpus.relabel(edges, random.Random(7)) == (moved, perm)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_repeat_per_seed(name):
    table = workloads.load_expected()
    first, again, other = (workloads.WORKLOADS[name](seed, table) for seed in (11, 11, 12))
    assert first.files == again.files
    assert [op.argv for op in first.ops] == [op.argv for op in again.ops]
    assert first.files != other.files


def test_generated_graphs_are_simple_and_connected():
    for edges in (corpus.structured_graph("general", 500), corpus.oracle_graph("cut", 2),
                  corpus.chain_graph("flower", 101, 1), corpus.hubs(4)):
        adj = checker.adjacency(corpus.edgelist_text(edges))
        assert checker.edge_count(adj) == len(edges)
        assert checker.induces_connected(adj, list(adj))


def test_self_times_subtract_the_union_of_children():
    # root [0, 10] has children A [1, 4] and B [3, 6], which overlap, and
    # C [8, 12], which runs past the root's end; A has a child [2, 3]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert list(spans.self_times(start, end, parent)) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_layer_self_times_account_for_the_op():
    rec = spans.Recorder()
    op = rec.begin(spans.OP_SPAN, 0.0)
    main = rec.begin("cli.main", 0.5)
    load = rec.begin("graph_io.load_graph", 1.0)
    rec.finish(load, 2.0)
    solve = rec.begin("structural.solve_cpds", 2.0)
    rec.finish(solve, 7.0)
    rec.finish(main, 8.0)
    rec.finish(op, 8.5)
    metrics = spans.layer_metrics(rec, ops=1)
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    assert metrics["graph_io.self_s"] == pytest.approx(1.0)
    assert metrics["structural.self_s"] == pytest.approx(5.0)
    assert metrics["trace.accounted_share"] == pytest.approx(7.5 / 8.5)


STAR = "c a\nc b\nc d\n"
PATH6 = "".join(f"v{i} v{i + 1}\n" for i in range(5))


def test_checker_rejects_a_non_dominating_witness():
    adj = checker.adjacency(STAR)
    assert checker.witness_problems(adj, ["c"], 1, True) == []
    assert "witness does not power dominate" in checker.witness_problems(adj, ["a"], 1, True)


def test_checker_rejects_a_disconnected_witness():
    adj = checker.adjacency(PATH6)
    assert checker.power_dominates(adj, ["v0", "v5"])
    assert checker.witness_problems(adj, ["v0", "v5"], 2, False) == []
    assert checker.witness_problems(adj, ["v0", "v5"], 2, True) == ["witness is not connected"]


def test_trace_replay_accepts_legal_forces_only():
    adj = checker.adjacency(PATH6)
    legal = ["t=1 v0 -> v1 [dominate]"] + [f"t={i} v{i - 1} -> v{i} [force]" for i in range(2, 6)]
    assert checker.trace_problems(adj, ["v0"], legal) == []
    early = legal[:2] + ["t=2 v2 -> v3 [force]"] + legal[3:]
    assert checker.trace_problems(adj, ["v0"], early)
    assert checker.trace_problems(adj, ["v0"], legal[:-1])


def test_scaling_maps_the_reference_to_the_nominal_speed():
    assert speed.scaled(0.5, speed.NOMINAL_S * 2, speed.NOMINAL_S * 2) == pytest.approx(0.25)
    assert speed.scaled(0.5, speed.NOMINAL_S, speed.NOMINAL_S * 3) == pytest.approx(0.25)
    assert 0 < speed.reference() < 1
