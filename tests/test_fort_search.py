"""The fort-driven search behind min_pds, l_round_pd, ppt and
min_zero_forcing.

The search must return exactly what checking every k-subset returns: the
same optimum, the same lexicographically smallest witness and the same
sorted list of optima, for every round limit, and the same smallest zero
forcing set, with every optimum and the least forcing time over them.
The reference here is the plain subset loop over the set-based
``naive_propagate``. Every fort it stores must be minimal, and
the propagation time it reports with every optimum must be the least one
over those optima.
"""

from __future__ import annotations

import gc
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import exact, graph_io, propagation
from powerdom.cli import main
from powerdom.graphs import Graph

from conftest import (
    connected_graphs,
    naive_is_fort,
    naive_min_coloring,
    naive_propagate,
    naive_trace,
    random_cactus,
    random_connected_graph,
    random_tree,
    random_tree_with_chords,
)

GENERATORS = {"tree": random_tree, "cactus": random_cactus, "general": random_connected_graph}


def hubs(k: int) -> Graph:
    """A spine of k vertices, each with three leaves: gamma_P = k."""
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(i, k + 3 * i + j) for i in range(k) for j in range(3)]
    return Graph([str(v) for v in range(4 * k)], edges)


def assert_matches_reference(g: Graph, rounds: int) -> None:
    want = naive_min_coloring(g, rounds)
    result = exact.l_round_pd(g, rounds)
    assert result.optimum == len(want[0])
    assert result.witness == want[0]
    assert list(result.all_optima) == want
    if rounds == g.n:
        plain = exact.min_pds(g)
        assert (plain.witness, plain.all_optima) == (result.witness, result.all_optima)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_matches_subset_reference(family):
    rng = random.Random(f"fort/{family}")
    for _ in range(25):
        g = GENERATORS[family](rng, rng.randint(1, 12))
        for rounds in sorted({1, 2, 3, g.n}):
            assert_matches_reference(g, rounds)


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "disconnected"])
def test_zero_forcing_matches_subset_reference(connected):
    rng = random.Random(f"fort/zf/{connected}")
    for _ in range(40):
        n = rng.randint(1, 10)
        if connected:
            g = random_connected_graph(rng, n)
        else:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, rng.randint(0, min(n, len(pairs))))
            g = Graph([str(v) for v in range(n)], edges)
        optima = naive_min_coloring(g, None, dominate=False)
        want = optima[0]
        result = exact.min_zero_forcing(g)
        assert (result.optimum, result.witness) == (len(want), want)
        assert list(result.all_optima) == optima
        assert result.ppt == min(propagation.forcing_closure(g, s).rounds() for s in optima)
        entries, colored = naive_trace(g, set(want), dominate=False)
        assert [(f.timestep, f.source, f.target, f.kind) for f in result.trace.forces] == entries
        assert set(result.trace.final_colored) == colored == set(range(g.n))


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.sampled_from([1, 2, 3, None]))
def test_matches_subset_reference_property(g, rounds):
    assert_matches_reference(g, g.n if rounds is None else rounds)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.sampled_from([1, 2, None]))
def test_every_learned_fort_is_a_fort(g, rounds):
    learned = []
    closure = propagation._uncolored

    def recording(*args):
        gap, last = closure(*args)
        if gap:
            learned.append(gap)
        return gap, last

    propagation._uncolored = recording
    try:
        exact.l_round_pd(g, g.n if rounds is None else rounds)
    finally:
        propagation._uncolored = closure
    assert learned  # the empty set's closure always leaves a fort
    for gap in learned:
        assert naive_is_fort(g, {v for v in range(g.n) if gap >> v & 1})


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_every_learned_zero_forcing_fort_is_a_fort(g):
    learned = []
    closure = propagation._unforced

    def recording(*args):
        gap, last = closure(*args)
        if gap:
            learned.append(gap)
        return gap, last

    propagation._unforced = recording
    try:
        exact.min_zero_forcing(g)
    finally:
        propagation._unforced = closure
    # a closure runs only on a set that meets every fort learned so far,
    # so it never leaves one of them uncolored again
    assert learned and len(set(learned)) == len(learned)
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
        exact.min_cpds(g)
        exact.min_pds(g)
        exact.l_round_pd(g, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def stored_forts(search) -> list[int]:
    """The forts the fort search stores while ``search()`` runs."""
    stored = []
    shrink = exact._minimal_fort

    def recording(*args):
        kept = shrink(*args)
        stored.append(kept)
        return kept

    exact._minimal_fort = recording
    try:
        search()
    finally:
        exact._minimal_fort = shrink
    return stored


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.sampled_from([1, 2, None]), st.booleans())
def test_every_stored_fort_is_minimal(g, rounds, forcing):
    if forcing:
        stored = stored_forts(lambda: exact.min_zero_forcing(g))
    else:
        stored = stored_forts(
            lambda: exact.l_round_pd(g, g.n if rounds is None else rounds))
    assert stored  # the empty set's closure always leaves a fort
    for mask in stored:
        fort = {v for v in range(g.n) if mask >> v & 1}
        assert naive_is_fort(g, fort)
        outside = set(range(g.n)) - fort
        for v in fort:
            # no fort lies inside the fort without v
            assert fort <= naive_propagate(g, outside | {v}, dominate=False)


def least_ppt(g: Graph, result: exact.SolveResult) -> int:
    return min(propagation.ppt_of_set(g, s) for s in result.all_optima)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_reported_ppt_is_the_least_over_the_optima(family):
    rng = random.Random(f"fort/ppt/{family}")
    for _ in range(20):
        g = GENERATORS[family](rng, rng.randint(1, 12))
        results = [exact.min_pds(g), exact.min_cpds(g)]
        for rounds in sorted({1, 2, 3, g.n}):
            results += [exact.l_round_pd(g, rounds),
                        exact.l_round_cpd(g, rounds)]
        for result in results:
            assert result.all_optima[0] == result.witness
            assert result.ppt == least_ppt(g, result)


def run_cli(*argv: str, stdin: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    assert main(list(argv), stdout=out, stderr=err, stdin=io.StringIO(stdin)) == 0
    return out.getvalue()


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_ppt_and_batch_print_the_least_ppt_over_the_optima(family):
    rng = random.Random(f"fort/ppt-cli/{family}")
    for _ in range(8):
        g = GENERATORS[family](rng, rng.randint(2, 12))
        text = graph_io.dump_edgelist(g)
        plain = least_ppt(g, exact.min_pds(g))
        connected = least_ppt(g, exact.min_cpds(g))
        assert run_cli("ppt", "-", stdin=text) == f"ppt: {plain}\n"
        assert run_cli("ppt", "-", "--connected", stdin=text) == f"ppt: {connected}\n"
        for problems in ("pd,cpd", "cpd"):
            row = json.loads(run_cli("batch", "-", "--json", "--problems", problems,
                                     stdin=text))
            assert row["ppt"] == plain


WIDE = exact.Budget(max_vertices=200)


@pytest.mark.parametrize("search,make,optimum,limit", [
    (exact.min_pds, lambda: hubs(16), 16, 1.0),
    (exact.min_pds, lambda: random_tree(random.Random(4), 40), 6, 1.0),
    (exact.min_zero_forcing, lambda: random_tree(random.Random(30), 30), 10, 2.0),
    (exact.min_zero_forcing, lambda: random_tree_with_chords(random.Random(2), 24, 6), 7, 1.0),
], ids=["pd-hubs16", "pd-tree40", "zf-tree30", "zf-tree24-chords6"])
def test_reach_within_a_wall_limit(search, make, optimum, limit):
    g = make()
    started = time.perf_counter()
    result = search(g, WIDE)
    assert time.perf_counter() - started < limit
    assert result.optimum == optimum
