"""The propagation engine against the set-based reference ``naive_trace``.

Every public entry point of the engine is compared on seeded random trees,
cacti and general graphs (n <= 20), on long paths, spiders and cycles, and
on hypothesis-generated graphs. The bitmask closures of the exact searches
(``_uncolored``, ``_unforced`` and the resumed ``_resume``) are compared
with the engine itself. A recorded trace builds its entries on first read;
it is compared with one built eagerly from the reference, it prints the
same lines as its entries, and the CLI is checked to run the engine once
per traced solve and to build no entry, whether it prints a trace or not.
"""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdom import cli, exact, structural
from powerdom import propagation as prop
from powerdom.errors import NotPowerDominatingError
from powerdom.graph_io import dump_edgelist
from powerdom.graphs import Graph, bits_of, cycle_graph, iter_bits, path_graph

from conftest import (
    connected_graphs,
    naive_trace,
    random_block_graph,
    random_cactus,
    random_connected_graph,
    random_tree,
)


def spider(legs: tuple[int, ...]) -> Graph:
    labels = ["c"]
    edges = []
    for leg, length in enumerate(legs):
        prev = 0
        for i in range(length):
            labels.append(f"l{leg}_{i}")
            edges.append((prev, len(labels) - 1))
            prev = len(labels) - 1
    return Graph(labels, edges)


def entries(forces) -> list[tuple[int, int, int, str]]:
    return [(f.timestep, f.source, f.target, f.kind) for f in forces]


def assert_trace_matches(g: Graph, s: list[int]) -> None:
    expected, colored = naive_trace(g, set(s))
    ok, trace = prop.is_power_dominating(g, s)
    assert trace == prop.PropagationTrace(
        tuple(sorted(set(s))),
        tuple(prop.Force(*e) for e in expected),
        tuple(sorted(colored)),
    )
    assert ok == (len(colored) == g.n)


def assert_checks_match(g: Graph, s: list[int], every_limit: bool) -> None:
    """colors_within, is_zero_forcing, ppt_of_set and forcing_closure."""
    expected, colored = naive_trace(g, set(s))
    full = len(colored) == g.n
    last = max((e[0] for e in expected), default=1)
    for r in range(1, g.n + 1):
        if every_limit:
            _, within = naive_trace(g, set(s), rounds=r)
            want = bool(s) and len(within) == g.n
        else:
            want = full and last <= r
        assert prop.colors_within(g, s, r) is want, r
    if full:
        assert prop.ppt_of_set(g, s) == last
    else:
        try:
            prop.ppt_of_set(g, s)
        except NotPowerDominatingError:
            pass
        else:
            raise AssertionError("ppt_of_set accepted a set that does not dominate")
    expected, zero = naive_trace(g, set(s), dominate=False)
    assert prop.is_zero_forcing(g, s) is (len(zero) == g.n)
    trace = prop.forcing_closure(g, s)
    assert entries(trace.forces) == expected
    assert trace.final_colored == tuple(sorted(zero))
    timestep = trace.forces[-1].timestep if trace.forces else 0
    assert timestep == (expected[-1][0] if expected else 0)


def random_instances(seed: int, count: int):
    rng = random.Random(seed)
    makers = (random_tree, random_cactus, random_connected_graph)
    for i in range(count):
        g = makers[i % 3](rng, rng.randint(2, 20))
        yield g, rng.sample(range(g.n), rng.randint(1, min(g.n, 4)))


def long_instances():
    for g in (path_graph(300), cycle_graph(301), spider((90, 100, 110)),
              spider((40, 40, 41, 60, 1))):
        ends = [v for v in range(g.n) if len(g.adj[v]) == 1]
        yield g, [0]
        yield g, [g.n // 2]
        yield g, ends[:2]
        yield g, [g.n - 1, g.n // 3]


class TestRandomGraphs:
    def test_traces(self):
        for g, s in random_instances(101, 300):
            assert_trace_matches(g, s)

    def test_checks(self):
        for g, s in random_instances(103, 150):
            assert_checks_match(g, s, every_limit=True)


class TestLongGraphs:
    def test_traces(self):
        for g, s in long_instances():
            assert_trace_matches(g, s)

    def test_checks(self):
        for g, s in long_instances():
            assert_checks_match(g, s, every_limit=False)


@st.composite
def graph_and_set(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    s = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return Graph([str(i) for i in range(n)], edges), s


@settings(max_examples=300, deadline=None)
@given(graph_and_set())
def test_engine_matches_reference(case):
    g, s = case
    assert_trace_matches(g, s)
    assert_checks_match(g, s, every_limit=True)


def masks(g: Graph) -> tuple[list[int], list[int]]:
    nbr = [bits_of(row) for row in g.adj]
    return nbr, [m | 1 << v for v, m in enumerate(nbr)]


def engine_closure(g: Graph, s: int, dominate: bool, limit: int | None) -> tuple[int, int]:
    colored, _, _, last = prop._propagate(g, list(iter_bits(s)), dominate, limit)
    return bits_of(v for v in range(g.n) if not colored[v]), last


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32 - 1))
def test_mask_closures_match_the_engine(g, seed):
    rng = random.Random(seed)
    nbr, closed = masks(g)
    for _ in range(8):
        s = rng.getrandbits(g.n)
        for limit in (1, 2, 3, None):
            assert prop._uncolored(nbr, closed, s, limit) == engine_closure(g, s, True, limit)
            assert prop._unforced(nbr, closed, s, limit) == engine_closure(g, s, False, limit)


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32 - 1))
def test_resumed_closure_matches_a_fresh_one(g, seed):
    """The vertices outside a fort are a stalled coloring, so a closure of
    them plus v that checks only v's colored closed neighbors first is the
    closure of the same set from scratch."""
    rng = random.Random(seed)
    nbr, closed = masks(g)
    for _ in range(8):
        fort, _ = prop._unforced(nbr, closed, rng.getrandbits(g.n))
        for v in iter_bits(fort):
            colored = (g.full_mask ^ fort) | 1 << v
            resumed = prop._resume(nbr, closed, colored, closed[v] & colored, 1)
            assert resumed == engine_closure(g, colored, False, None)


def test_shrinking_the_path_fort_resumes_from_colored_vertices_only():
    """On the path 0-1-2-3, V shrinks to {0, 2, 3}. A resumed trial that
    let the uncolored neighbors of v fire would keep all of V."""
    nbr, closed = masks(path_graph(4))
    assert exact._minimal_fort(nbr, closed, 0b1111, None) == 0b1101


def flower(petals: tuple[int, ...]) -> Graph:
    """Cycles of the given lengths sharing vertex 0."""
    edges, count = [], 1
    for length in petals:
        ring = [0] + list(range(count, count + length - 1))
        count += length - 1
        edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    return Graph([str(i) for i in range(count)], edges)


def eager_trace(g: Graph, s) -> prop.PropagationTrace:
    """The reference's trace of ``s``, built with every field given."""
    expected, colored = naive_trace(g, set(s))
    return prop.PropagationTrace(tuple(sorted(set(s))), tuple(prop.Force(*e) for e in expected),
                                 tuple(sorted(colored)))


def structured_instances():
    """Seeded trees, cacti and block graphs, and the chain families: paths,
    spiders and flowers."""
    rng = random.Random(113)
    for make in (random_tree, random_cactus, random_block_graph):
        for _ in range(12):
            yield make(rng, rng.randint(3, 60))
    for g in (path_graph(200), spider((60, 70, 80)), flower((40, 50, 60, 70))):
        yield g


class TestRecordedTraces:
    def test_certified_trace_equals_the_eager_one(self):
        for g in structured_instances():
            result = structural.solve_cpds(g)
            expected = eager_trace(g, result.witness)
            assert result.trace.forces == expected.forces  # the first read builds it
            assert result.trace.final_colored == expected.final_colored
            assert result.trace == expected and hash(result.trace) == hash(expected)
            assert prop.replay_trace(g, result.trace) == g.full_mask

    def test_check_trace_equals_the_eager_one_also_when_it_fails(self):
        rng = random.Random(127)
        failed = 0
        for g in structured_instances():
            for _ in range(4):
                s = rng.sample(range(g.n), rng.randint(1, 2))
                ok, trace = prop.is_power_dominating(g, s)
                # equality first: it has to build the fields itself
                assert trace == eager_trace(g, s)
                assert entries(trace.forces) == naive_trace(g, set(s))[0]
                assert trace.rounds() == eager_trace(g, s).rounds()
                assert prop.replay_trace(g, trace) == bits_of(trace.final_colored)
                failed += not ok
        assert failed >= 20

    def test_printing_a_run_equals_printing_its_entries(self):
        """A recorded trace prints from its run; read first, or rebuilt as a
        trace with explicit entries, it prints the same lines and gives the
        same ``rounds()``, for solved witnesses and for failing sets."""
        rng = random.Random(131)
        runs = [(lambda g, s: prop.is_power_dominating(g, s)[1], {}),
                (prop.forcing_closure, {"dominate": False}), (prop.dominate_step, {"rounds": 1})]
        failed = 0
        for g in structured_instances():
            sets = [structural.solve_cpds(g).witness]
            sets += [rng.sample(range(g.n), rng.randint(1, 2)) for _ in range(4)]
            for s in sets:
                failed += not prop.is_power_dominating(g, s)[0]
                for run, reference in runs:
                    fresh, read = run(g, s), run(g, s)
                    lines, rounds = prop.trace_lines(g, fresh), fresh.rounds()
                    with pytest.raises(AttributeError):  # printing built no entry
                        prop.PropagationTrace.forces.__get__(fresh)
                    assert lines == [f"t={t} {g.labels[v]} -> {g.labels[w]} [{kind}]" for
                                     t, v, w, kind in naive_trace(g, set(s), **reference)[0]]
                    explicit = prop.PropagationTrace(read.initial, read.forces, read.final_colored)
                    for trace in (read, explicit):
                        assert prop.trace_lines(g, trace) == lines
                        assert trace.rounds() == rounds
                    assert fresh == read
        assert failed >= 20

    def test_a_recorded_trace_is_frozen(self):
        _, trace = prop.is_power_dominating(path_graph(5), [2])
        with pytest.raises(AttributeError):
            trace.forces = ()
        with pytest.raises(AttributeError):
            trace.missing  # noqa: B018
        assert trace.forces == (prop.Force(1, 2, 1, prop.DOMINATE),
                                prop.Force(1, 2, 3, prop.DOMINATE),
                                prop.Force(2, 1, 0, prop.FORCE),
                                prop.Force(2, 3, 4, prop.FORCE))


def run_cli(g: Graph, *argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    assert cli.main([argv[0], "-", *argv[1:]], out, err, io.StringIO(dump_edgelist(g))) == 0
    return out.getvalue()


@pytest.mark.parametrize("g", [spider((3, 4, 5)), random_cactus(random.Random(3), 30),
                               random_block_graph(random.Random(4), 30)],
                         ids=["tree", "cactus", "block"])
def test_traced_solve_runs_the_engine_once(g, monkeypatch):
    calls = []
    engine = prop._propagate
    monkeypatch.setattr(prop, "_propagate", lambda *args, **kw: calls.append(1) or engine(*args, **kw))
    printed = run_cli(g, "solve", "--trace")
    assert len(calls) == 1
    assert "trace:" in printed


def test_untraced_solve_builds_no_trace_entry(monkeypatch):
    """No command builds a trace entry or the final set: an untraced solve
    prints no trace, and a traced one prints it straight from its run."""
    g = spider((30, 40, 50, 1))
    made = []
    force, lazy = prop._force, prop.PropagationTrace.__getattr__
    monkeypatch.setattr(prop, "_force", lambda fields: made.append(fields) or force(fields))
    monkeypatch.setattr(prop.PropagationTrace, "__getattr__",
                        lambda trace, name: made.append(name) or lazy(trace, name))
    run_cli(g, "solve", "--json")
    for argv in (["solve", "--trace"], ["solve", "--json", "--trace"],
                 ["check", "--trace", "--set", "c"]):
        assert "t=1 c -> l0_0 [dominate]" in run_cli(g, *argv)
    assert made == []
