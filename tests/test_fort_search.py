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
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import exact, graph_io, propagation
from powerdom.cli import main
from powerdom.decomposition import connected_profile
from powerdom.graphs import Graph, bits_of

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


def seeded_forts(search) -> list[int]:
    """The forts the fort search starts its store with while ``search()`` runs."""
    seeded = []
    pendant_forts = exact._pendant_forts

    def recording(*args):
        forts = pendant_forts(*args)
        seeded.extend(forts)
        return forts

    exact._pendant_forts = recording
    try:
        search()
    finally:
        exact._pendant_forts = pendant_forts
    return seeded


def failed_closures(search) -> list[int]:
    """What every failed closure of the fort search leaves uncolored while
    ``search()`` runs: each goes to ``exact._minimal_fort`` to be shrunk."""
    gaps = []
    shrink = exact._minimal_fort

    def recording(nbr, closed, gap, deadline):
        gaps.append(gap)
        return shrink(nbr, closed, gap, deadline)

    exact._minimal_fort = recording
    try:
        search()
    finally:
        exact._minimal_fort = shrink
    return gaps


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.sampled_from([1, 2, None]))
def test_every_learned_fort_is_a_fort(g, rounds):
    seeded = []
    learned = failed_closures(lambda: seeded.extend(seeded_forts(
        lambda: exact.l_round_pd(g, g.n if rounds is None else rounds))))
    # the empty set misses a seeded fort or its closure leaves one
    assert seeded or learned
    for gap in seeded + learned:
        assert naive_is_fort(g, {v for v in range(g.n) if gap >> v & 1})


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_every_learned_zero_forcing_fort_is_a_fort(g):
    learned = failed_closures(lambda: exact.min_zero_forcing(g))
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


def assert_minimal_fort(g: Graph, mask: int) -> None:
    fort = {v for v in range(g.n) if mask >> v & 1}
    assert naive_is_fort(g, fort)
    outside = set(range(g.n)) - fort
    for v in fort:
        # no fort lies inside the fort without v
        assert fort <= naive_propagate(g, outside | {v}, dominate=False)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.sampled_from([1, 2, None]), st.booleans())
def test_every_stored_fort_is_minimal(g, rounds, forcing):
    seeded = []
    if forcing:
        stored = stored_forts(lambda: exact.min_zero_forcing(g))
    else:
        stored = stored_forts(lambda: seeded.extend(seeded_forts(
            lambda: exact.l_round_pd(g, g.n if rounds is None else rounds))))
    # the empty set misses a seeded fort or its closure leaves one
    assert seeded or stored
    for mask in seeded + stored:
        assert_minimal_fort(g, mask)


@st.composite
def graphs_with_pendant_paths(draw) -> Graph:
    """A connected graph with pendant paths of one to three vertices hung
    from some of its vertices, several from one vertex."""
    base = draw(connected_graphs())
    labels, edges = list(base.labels), list(base.edges())
    for _ in range(draw(st.integers(1, 8))):
        previous = draw(st.integers(0, base.n - 1))
        for _ in range(draw(st.integers(1, 3))):
            labels.append(str(len(labels)))
            edges.append((previous, len(labels) - 1))
            previous = len(labels) - 1
    return Graph(labels, edges)


@settings(max_examples=150, deadline=None)
@given(graphs_with_pendant_paths())
def test_every_pendant_fort_is_a_minimal_fort(g):
    for mask in exact._pendant_forts(connected_profile(g).taxonomy):
        assert_minimal_fort(g, mask)


def test_a_vertex_seeds_at_most_three_forts():
    """Every two of a star's d leaves make a fort, but a store of all
    d(d-1)/2, which every search node scans, made min_pds on a 400-leaf
    star 60 times slower than learning them; the seed pairs three leaves."""
    star = Graph([str(i) for i in range(41)], [(0, i) for i in range(1, 41)])
    forts = exact._pendant_forts(connected_profile(star).taxonomy)
    assert len(forts) == 3
    for mask in forts:
        assert_minimal_fort(star, mask)
    assert exact.min_pds(star, exact.Budget(max_vertices=41)).all_optima == ((0,),)


@pytest.mark.parametrize("k", range(1, 7))
def test_hubs_need_one_closure_and_learn_no_fort(k):
    """The forts of hubs(k) are its leaf pairs, so the search starts with
    all it needs: one closure accepts the spine, and nothing is learned."""
    calls = Counter()
    closure, shrink = propagation._resume, exact._minimal_fort

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    propagation._resume = counting("closure", closure)
    exact._minimal_fort = counting("shrink", shrink)
    try:
        result = exact.min_pds(hubs(k))
    finally:
        propagation._resume, exact._minimal_fort = closure, shrink
    assert result.witness == tuple(range(k))
    assert calls == {"closure": 1}


# a 17-vertex tree whose 300 minimum power dominating sets have only 235
# distinct closed neighborhoods
SHARED_NEIGHBORHOODS = [(1, 0), (2, 0), (3, 1), (4, 1), (5, 3), (6, 2), (7, 4), (8, 0), (9, 1),
                        (10, 4), (11, 5), (12, 10), (13, 0), (14, 2), (15, 13), (16, 8)]


def test_one_closure_per_distinct_colored_mask(monkeypatch):
    """Optima that color the same closed neighborhood at once share one
    closure, and a failed closure never repeats."""
    g = Graph([str(v) for v in range(17)], SHARED_NEIGHBORHOODS)
    closures = []
    resume = propagation._resume

    def recording(nbr, closed, colored, active, t):
        gap, last = resume(nbr, closed, colored, active, t)
        if t == 2:  # a search closure; a fort shrinks by closures from round 1
            closures.append((colored, gap))
        return gap, last

    monkeypatch.setattr(propagation, "_resume", recording)
    result = exact.min_pds(g)
    assert list(result.all_optima) == naive_min_coloring(g, g.n)
    masks = [colored for colored, _ in closures]
    assert len(set(masks)) == len(masks)
    dominated = {bits_of(naive_propagate(g, set(s), rounds=1)) for s in result.all_optima}
    assert {colored for colored, gap in closures if not gap} == dominated
    assert len(dominated) == 235 and len(result.all_optima) == 300


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


def cubic(n: int) -> Graph:
    """networkx's random cubic graph on n vertices, seeded with n."""
    nx = pytest.importorskip("networkx")
    return Graph([str(v) for v in range(n)], list(nx.random_regular_graph(3, n, seed=n).edges()))


@pytest.mark.parametrize("search,make,optimum,limit", [
    (exact.min_pds, lambda: hubs(16), 16, 1.0),
    (exact.min_pds, lambda: random_tree(random.Random(4), 40), 6, 1.0),
    (exact.min_zero_forcing, lambda: random_tree(random.Random(30), 30), 10, 2.0),
    (exact.min_zero_forcing, lambda: random_tree_with_chords(random.Random(2), 24, 6), 7, 1.0),
    (exact.min_pds, lambda: cubic(50), 4, 2.5),
], ids=["pd-hubs16", "pd-tree40", "zf-tree30", "zf-tree24-chords6", "pd-cubic50"])
def test_reach_within_a_wall_limit(search, make, optimum, limit):
    g = make()
    started = time.perf_counter()
    result = search(g, WIDE)
    assert time.perf_counter() - started < limit
    assert result.optimum == optimum
