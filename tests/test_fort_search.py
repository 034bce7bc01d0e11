"""The fort-driven search behind min_pds, l_round_pd and ppt.

The search must return exactly what checking every k-subset returns: the
same optimum, the same lexicographically smallest witness and the same
sorted list of optima, for every round limit. The reference here is the
plain subset loop over the set-based ``naive_propagate``.
"""

from __future__ import annotations

import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import exact, propagation
from powerdom.graphs import Graph

from conftest import (
    naive_is_fort,
    naive_min_coloring,
    random_cactus,
    random_connected_graph,
    random_tree,
)

GENERATORS = {"tree": random_tree, "cactus": random_cactus, "general": random_connected_graph}


def hubs(k: int) -> Graph:
    """A spine of k vertices, each with three leaves: gamma_P = k."""
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(i, k + 3 * i + j) for i in range(k) for j in range(3)]
    return Graph([str(v) for v in range(4 * k)], edges)


def assert_matches_reference(g: Graph, rounds: int) -> None:
    want = naive_min_coloring(g, rounds)
    result = exact.l_round_pd(g, rounds, all_optima=True)
    assert result.optimum == len(want[0])
    assert result.witness == want[0]
    assert list(result.all_optima) == want
    assert exact.l_round_pd(g, rounds).witness == want[0]
    if rounds == g.n:
        plain = exact.min_pds(g, all_optima=True)
        assert (plain.witness, plain.all_optima) == (result.witness, result.all_optima)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_matches_subset_reference(family):
    rng = random.Random(f"fort/{family}")
    for _ in range(25):
        g = GENERATORS[family](rng, rng.randint(1, 12))
        for rounds in sorted({1, 2, 3, g.n}):
            assert_matches_reference(g, rounds)


@st.composite
def connected_graphs(draw) -> Graph:
    n = draw(st.integers(1, 9))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n)) if pairs else []
    edges = {(p, v) for v, p in enumerate(parents, start=1)} | set(extra)
    return Graph([str(v) for v in range(n)], sorted(edges))


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.sampled_from([1, 2, 3, None]))
def test_matches_subset_reference_property(g, rounds):
    assert_matches_reference(g, g.n if rounds is None else rounds)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.sampled_from([1, 2, None]))
def test_every_learned_fort_is_a_fort(g, rounds):
    learned = []
    closure = propagation._uncolored

    def recording(h, s):
        gap, last = closure(h, s)
        if gap:
            learned.append(gap)
        return gap, last

    propagation._uncolored = recording
    try:
        exact.l_round_pd(g, g.n if rounds is None else rounds, all_optima=True)
    finally:
        propagation._uncolored = closure
    assert learned  # the empty set's closure always leaves a fort
    for gap in learned:
        assert naive_is_fort(g, {v for v in range(g.n) if gap >> v & 1})


def test_hubs6_within_a_second():
    g = hubs(6)
    started = time.perf_counter()
    result = exact.min_pds(g)
    value = exact.ppt(g)
    assert time.perf_counter() - started < 1.0
    assert (result.optimum, result.witness, value) == (6, tuple(range(6)), 1)


def test_leaves_no_reference_cycles():
    g = random_connected_graph(random.Random(14), 14)
    gc.collect()
    gc.disable()
    try:
        exact.min_cpds(g, all_optima=True)
        exact.min_pds(g, all_optima=True)
        exact.l_round_pd(g, 2, all_optima=True)
        assert gc.collect() == 0
    finally:
        gc.enable()
