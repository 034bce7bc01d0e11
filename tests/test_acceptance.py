"""Acceptance suite.

One test per acceptance criterion, at full sample sizes, each printing a
PASS line with its elapsed time (run with ``pytest -s`` to see them). The
IEEE bus criterion is dataset-gated: point POWERDOM_IEEE_DIR at a
directory holding bus14.edges / bus30.edges to enable it.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import time

import pytest

from powerdom import exact, milp, spread, structural
from powerdom import propagation as prop
from powerdom.cli import main as cli_main
from powerdom.decomposition import (
    blocks,
    classify_cut_vertices,
    cycle_order,
    recognize,
)
from powerdom.exact import Budget
from powerdom.graphs import Graph, bits_of, iter_bits

from conftest import (
    naive_min_cpds,
    random_block_graph,
    random_cactus,
    random_connected_graph,
    random_connected_with_cut_vertex,
    random_tree,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def _report(number: int, label: str, started: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"PASS criterion {number}: {label} in {elapsed:.1f}s{suffix}")


@pytest.fixture(scope="module")
def tree_corpus():
    rng = random.Random(20260)
    return [random_tree(rng, rng.randint(4, 14)) for _ in range(200)]


@pytest.fixture(scope="module")
def block_corpus():
    rng = random.Random(20261)
    return [random_block_graph(rng, rng.randint(2, 14)) for _ in range(200)]


@pytest.fixture(scope="module")
def cactus_corpus():
    rng = random.Random(20262)
    return [random_cactus(rng, rng.randint(2, 14)) for _ in range(200)]


@pytest.fixture(scope="module")
def cut_corpus():
    rng = random.Random(20263)
    return [random_connected_with_cut_vertex(rng, rng.randint(4, 12)) for _ in range(200)]


def test_criterion_01_tree_oracle_agreement(tree_corpus):
    started = time.perf_counter()
    for g in tree_corpus:
        fast = structural.tree_cpds(g)
        slow = exact.min_cpds(g)
        assert fast.optimum == slow.optimum
        if recognize(g).path:
            assert fast.optimum == 1 and len(fast.witness) == 1
        else:
            assert fast.witness == classify_cut_vertices(g).mandatory
    assert time.perf_counter() - started < 60
    _report(1, "tree solver matches oracle on 200 trees", started)


def test_criterion_02_block_and_cactus_oracle_agreement(block_corpus, cactus_corpus):
    started = time.perf_counter()
    for g in block_corpus:
        assert structural.block_graph_cpds(g).optimum == exact.min_cpds(g).optimum
    for g in cactus_corpus:
        assert structural.cactus_cpds(g).optimum == exact.min_cpds(g).optimum
    assert time.perf_counter() - started < 300
    _report(2, "block/cactus solvers match oracle on 200+200 graphs", started)


def test_criterion_03_decomposition_agreement(cut_corpus):
    started = time.perf_counter()
    for g in cut_corpus:
        fast = structural.decompose_cpds(g)
        assert fast.optimum == exact.min_cpds(g).optimum
    assert time.perf_counter() - started < 300
    _report(3, "cut-vertex decomposition matches oracle on 200 graphs", started)


def test_criterion_04_optimum_structure(tree_corpus, block_corpus, cactus_corpus, cut_corpus):
    started = time.perf_counter()
    corpus = tree_corpus + block_corpus + cactus_corpus + cut_corpus
    checked_all_optima = 0
    for g in corpus:
        info = recognize(g)
        taxonomy = classify_cut_vertices(g)
        mandatory = set(taxonomy.mandatory)
        connected_result = exact.min_cpds(g)
        plain_result = exact.min_pds(g, all_optima=True)
        # containment and no-leaf checks need every optimum from a search
        # that does not assume the mandatory set, tractable on the smaller graphs
        if g.n <= 12:
            size, every_optimum = naive_min_cpds(g, collect_all=True)
            assert size == connected_result.optimum
            leaves = {v for v in range(g.n) if g.degree(v) == 1}
            for optimum_set in every_optimum:
                assert mandatory <= set(optimum_set)
                if not info.path:
                    assert not leaves & set(optimum_set)
            checked_all_optima += 1
        heavy = {
            v
            for v in range(g.n)
            if sum(1 for w in g.adj[v] if g.degree(w) == 1) >= 2
        }
        assert any(
            heavy <= set(optimum_set) for optimum_set in plain_result.all_optima
        )
        assert plain_result.optimum <= connected_result.optimum
    assert checked_all_optima > 0
    _report(
        4,
        "mandatory-set, leaf, heavy-vertex, and ordering properties hold",
        started,
        f"{len(corpus)} graphs, {checked_all_optima} with full optimum sets",
    )


def _segment_excludable_brute(g: Graph, segment: set[int]) -> bool:
    """Independent check: some component of the graph minus the segment is
    itself a power dominating set (monotonicity makes this exact)."""
    allowed = g.full_mask & ~bits_of(segment)
    for component in g.component_masks(within=allowed):
        ok, _ = prop.is_power_dominating(g, iter_bits(component))
        if ok:
            return True
    return False


def test_criterion_05_segment_characterization():
    started = time.perf_counter()
    rng = random.Random(20265)
    segments_checked = 0
    graphs_checked = 0
    while graphs_checked < 100:
        g = random_cactus(rng, rng.randint(4, 12))
        info = recognize(g)
        if info.path or info.cycle:
            continue
        cycles = [blk for blk in blocks(g).blocks if len(blk) >= 3]
        if not cycles:
            continue
        graphs_checked += 1
        taxonomy = classify_cut_vertices(g)
        r1 = set(taxonomy.r1)
        cuts = set(taxonomy.r1) | set(taxonomy.r2) | set(taxonomy.r3)
        chains_at = {}
        for attach, chain in taxonomy.pendant_paths:
            chains_at.setdefault(attach, []).append(chain)
        for blk in cycles:
            order = cycle_order(g, blk)
            size = len(order)
            for a in range(size):
                for b in range(size):
                    interior = []
                    i = (a + 1) % size
                    while i != b:
                        interior.append(order[i])
                        i = (i + 1) % size
                    segment = set(interior)
                    inner_cuts = segment & cuts
                    predicate = (
                        len(inner_cuts) == 0
                        or (len(inner_cuts) == 1 and inner_cuts <= r1)
                        or (
                            len(inner_cuts) == 2
                            and inner_cuts <= r1
                            and g.has_edge(*sorted(inner_cuts))
                        )
                    )
                    feasible = _segment_excludable_brute(g, segment)
                    assert predicate == feasible, (g.labels, sorted(segment))
                    segments_checked += 1
                    if predicate and segment:
                        dropped = set(segment)
                        for v in segment:
                            for chain in chains_at.get(v, ()):
                                dropped.update(chain)
                        keep = [v for v in range(g.n) if v not in dropped]
                        ok, _ = prop.is_power_dominating(g, keep)
                        assert ok and prop.is_connected_set(g, keep)

    # the reference instance: family sizes 7 / 4 / 1 and maximum size 4
    gaps = [1, 2, 1, 0, 1, 1, 1]
    size = 7 + sum(gaps)
    labels = [f"u{i}" for i in range(size)]
    edges = [(i, (i + 1) % size) for i in range(size)]
    position, anchors = 0, []
    for gap in gaps:
        anchors.append(position)
        position += 1 + gap
    single = {0, 2, 3, 4}
    for i, anchor in enumerate(anchors):
        for j in range(1 if i in single else 2):
            labels.append(f"leaf{i}_{j}")
            edges.append((anchor, len(labels) - 1))
    g = Graph(labels, edges)
    taxonomy = classify_cut_vertices(g)
    cycle = [blk for blk in blocks(g).blocks if len(blk) >= 3][0]
    family = structural.feasible_segments(g, cycle_order(g, cycle), taxonomy)
    assert (len(family.zero_cut), len(family.one_cut), len(family.two_cut)) == (7, 4, 1)
    assert family.max_size == 4
    _report(5, "segment characterization verified both directions", started,
            f"{segments_checked} segments over 100 cacti")


def test_criterion_06_spread_gadgets_and_monotonicity():
    started = time.perf_counter()
    solver = lambda h: exact.min_cpds(h)  # noqa: E731
    for c in (1, 2, 3):
        g = spread.make_path_gadget(c)
        assert spread.vertex_spread(g, g.index("b2"), solver).spread == -c
        shrunk = g.delete_vertex(g.index("b2"))
        assert spread.vertex_spread(shrunk, shrunk.index("b1"), solver).spread == c
        assert spread.edge_spread(g, g.index("b1"), g.index("b2"), solver).spread == -c
        cut = g.delete_edge(g.index("b1"), g.index("b2"))
        assert spread.edge_spread(cut, cut.index("b1"), cut.index("a2"), solver).spread == c
        ring = spread.make_cycle_gadget(c)
        assert spread.contract_edge_spread(
            ring, ring.index("c1"), ring.index("c2"), solver
        ).spread == -c
        divided = ring.subdivide_edge(ring.index("c1"), ring.index("c2"))
        assert spread.contract_edge_spread(
            divided, divided.index("c1"), divided.index("sub_c1_c2"), solver
        ).spread == c
        assert spread.subdivide_edge_delta(
            ring, ring.index("c1"), ring.index("c2"), solver
        ).spread == c
    rng = random.Random(20266)
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(2, 10))
        u, v = g.edges()[rng.randrange(g.m)]
        report = spread.subdivide_edge_delta(g, u, v)
        assert report.spread >= 0
    assert time.perf_counter() - started < 120
    _report(6, "gadget swings exact and subdivision never negative", started,
            "c in 1..3 plus 500 random subdivisions")


def test_criterion_07_milp_semantics():
    started = time.perf_counter()
    rng = random.Random(20267)
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(1, 6))
        plain = milp.solve_small(milp.build_model1(g))
        assert plain.objective_value == exact.min_pds(g).optimum
        extended = milp.add_mtz_connectivity(milp.build_model1(g), g)
        connected = milp.solve_small(extended)
        assert connected.objective_value == exact.min_cpds(g).optimum
        for rounds in range(1, g.n + 1):
            assert milp.round_number(g, rounds) == exact.l_round_pd(g, rounds).optimum
        assert milp.ppt_by_search(g) == exact.ppt(g)
    assert time.perf_counter() - started < 600
    _report(7, "model equals oracle for pd, cpd, l-round, ppt", started,
            "300 graphs with n <= 6")


def test_criterion_08_reduction_soundness():
    started = time.perf_counter()
    wide = Budget(max_vertices=48)
    graphs = 0
    for n in range(1, 5):
        for edge_subset in itertools.chain.from_iterable(
            itertools.combinations(list(itertools.combinations(range(n), 2)), k)
            for k in range(n * (n - 1) // 2 + 1)
        ):
            g = Graph([str(i) for i in range(n)], list(edge_subset))
            z = exact.min_zero_forcing(g).optimum
            expanded, _ = exact.zf_to_cpd_gadget(g, 0)
            gamma = exact.min_cpds(expanded, wide).optimum
            for k in range(1, n + 1):
                assert (z <= k) == (gamma <= k + 1), (n, edge_subset, k, z, gamma)
            graphs += 1
    assert graphs == 1 + 2 + 8 + 64
    assert time.perf_counter() - started < 600
    _report(8, "zero forcing reduction biconditional holds", started,
            f"{graphs} graphs, every valid bound")


IEEE_DIR = os.environ.get("POWERDOM_IEEE_DIR")


@pytest.mark.skipif(
    not IEEE_DIR or not os.path.exists(os.path.join(IEEE_DIR or "", "bus14.edges")),
    reason="set POWERDOM_IEEE_DIR to a directory with bus14.edges / bus30.edges",
)
def test_criterion_09_ieee_bus_values():
    from powerdom.graph_io import load_graph

    started = time.perf_counter()
    with open(os.path.join(IEEE_DIR, "bus14.edges")) as handle:
        bus14 = load_graph(handle)
    assert (bus14.n, bus14.m) == (14, 20)
    assert exact.min_pds(bus14).optimum == 2
    assert exact.min_cpds(bus14).optimum == 2
    bus30_path = os.path.join(IEEE_DIR, "bus30.edges")
    if os.path.exists(bus30_path):
        with open(bus30_path) as handle:
            bus30 = load_graph(handle)
        wide = Budget(max_vertices=30)
        assert exact.min_pds(bus30, wide).optimum == 3
        assert exact.min_cpds(bus30, wide).optimum == 4
    _report(9, "IEEE bus values reproduced", started)


def test_criterion_10_cli_determinism():
    started = time.perf_counter()
    tree = os.path.join(DATA, "toy_tree.edges")
    cactus = os.path.join(DATA, "toy_cactus.edges")
    bridge = os.path.join(DATA, "toy_bridge.edges")
    commands = [
        ("solve", cactus, "--problem", "cpd", "--trace"),
        ("solve", bridge, "--problem", "pd", "--json"),
        ("solve", bridge, "--problem", "cpd", "--method", "milp"),
        ("ppt", cactus),
        ("check", tree, "--set", "c1,c2", "--trace"),
        ("model", tree, "--problem", "cpd", "--format", "lp"),
        ("model", cactus, "--problem", "pd", "--format", "mps"),
        ("spread", cactus, "--op", "subdivide-edge", "--target", "v2,v3"),
        ("gadget", "--kind", "zf-reduction", "--k", "1", "--input", tree),
        ("decompose", bridge),
        ("batch", tree, cactus, bridge, "--json"),
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = cli_main(list(argv), stdout=out, stderr=err, stdin=io.StringIO())
            runs.append((code, out.getvalue()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
    _report(10, "every command is byte-deterministic", started,
            f"{len(commands)} commands")
