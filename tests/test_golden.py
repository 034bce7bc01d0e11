"""Byte-level golden output of the CLI.

The table below holds exit codes and sha256 sums of stdout, recorded for
three fixed graphs: a spider with three legs (600 vertices), a flower of
four 4-cycles sharing one vertex, and a 20-vertex random cactus; and for
three seeded 300-vertex graphs that exercise the structural solvers and
the decomposition: a random tree, a random block graph, and a tree of
small 2-connected blocks that are neither cliques nor cycles; and for
the LP and MPS export of the pd and cpd models of a seeded 60-vertex
random graph. Any change to a witness, a trace line, the batch table or
an exported model byte changes a digest.
When such a change is intended, record the new digests and say in
CHANGES.md why the output moved.
"""

from __future__ import annotations

import hashlib
import io
import random

import pytest

from powerdom.cli import main


def spider_edges() -> list[tuple[str, str]]:
    edges = []
    for leg, length in (("a", 200), ("b", 200), ("c", 199)):
        prev = "hub"
        for i in range(1, length + 1):
            edges.append((prev, f"{leg}{i}"))
            prev = f"{leg}{i}"
    return edges


def flower_edges() -> list[tuple[str, str]]:
    edges = []
    for petal in range(1, 5):
        ring = ["h"] + [f"p{petal}_{i}" for i in range(1, 4)]
        edges += [(ring[i], ring[(i + 1) % 4]) for i in range(4)]
    return edges


CACTUS = ("0-1 0-4 1-2 1-5 2-3 3-4 3-6 4-13 4-16 6-7 6-9 7-8 7-10 7-12 8-9 "
          "10-11 11-12 13-14 14-15 15-16 16-17 16-19 17-18 18-19")


def cactus_edges() -> list[tuple[str, str]]:
    return [tuple(f"k{x}" for x in pair.split("-")) for pair in CACTUS.split()]


def seeded_tree_edges() -> list[tuple[str, str]]:
    rng = random.Random(301)
    return [(f"t{i}", f"t{rng.randrange(i)}") for i in range(1, 300)]


def seeded_block_graph_edges() -> list[tuple[str, str]]:
    """Cliques of 2 to 4 vertices glued at random earlier vertices."""
    rng = random.Random(302)
    edges, count = [], 1
    while count < 300:
        size = min(rng.randint(2, 4), 300 - count + 1)
        clique = [rng.randrange(count)] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(f"b{a}", f"b{c}") for i, a in enumerate(clique) for c in clique[i + 1:]]
    return edges


# a diamond and K_{2,3}: 2-connected, neither a clique nor a cycle
GENERAL_BLOCKS = ((4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))),
                  (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))))


def seeded_general_edges() -> list[tuple[str, str]]:
    """Diamonds, K_{2,3}s and single edges glued at random earlier vertices."""
    rng = random.Random(303)
    edges, count = [], 1
    while count < 300:
        size, block = rng.choice(GENERAL_BLOCKS + ((2, ((0, 1),)),))
        if count + size - 1 > 300:
            size, block = 2, ((0, 1),)
        members = [rng.randrange(count)] + list(range(count, count + size - 1))
        count += size - 1
        edges += [(f"g{members[a]}", f"g{members[c]}") for a, c in block]
    return edges


def seeded_model_edges() -> list[tuple[str, str]]:
    """A random spanning tree on 60 vertices plus 30 random chords."""
    rng = random.Random(304)
    edges = {(rng.randrange(i), i) for i in range(1, 60)}
    while len(edges) < 59 + 30:
        u, v = sorted(rng.sample(range(60), 2))
        edges.add((u, v))
    return [(f"m{u}", f"m{v}") for u, v in sorted(edges)]


ORIGINAL = ("spider", "flower", "cactus")
GRAPHS = {"spider": (spider_edges, "hub"), "flower": (flower_edges, "h"),
          "cactus": (cactus_edges, "k0"), "tree": (seeded_tree_edges, "t0"),
          "blockgraph": (seeded_block_graph_edges, "b0"),
          "general": (seeded_general_edges, "g0"), "model": (seeded_model_edges, "m0")}
# the edge the spread digest subdivides: the first edge of a diamond
SPREAD_TARGET = "g0,g1"

DIGESTS = {
    ("solve", "spider"): (0, "230252f61a7163dc204932d268f1eb3233678030154a850f6706b4cd072fb45f"),
    ("solve", "flower"): (0, "6a7eb179b9cce3b1381323fe1e8fde72518e82b0e0d22b31f6c21d7c82d507c5"),
    ("solve", "cactus"): (0, "368578fee45fc133a13077a865706e6fff10a80084abc9bf4081ea09cdef5e40"),
    ("check", "spider"): (0, "6a54841dd5aa042e429a81af5f7bfa71142dabc190be39b40210c7f4f9044950"),
    ("check", "flower"): (0, "a5edab223b67f7fd11837db3b26081cedbc5243eb4aa7605ce10c5416c6349f9"),
    ("check", "cactus"): (2, "540060af34664628a1ebe3f78e19fff92fdba91de4562553b71cda3629890184"),
    ("batch", "all"): (0, "7bcc53167236c4fed18a3beffc61f4c06b2aa63933a9f5648430d6693d2ff8e0"),
    ("solve-json", "tree"): (0, "9b3b2804028f984fcb1c6290372d6c39e93934bdc93125dbeac0fad1d86c37b8"),
    ("solve-json", "blockgraph"):
        (0, "65c86d6bcaef5d3cde61b0bc9b8eac960e86b9df68ec28d3df07dbe66d12f8fc"),
    ("solve-json", "general"): (0, "af9f4d10e65613eaf4e4c97aa24c900ef837c78fa232b6feaee217b912361973"),
    ("decompose", "general"): (0, "ee2e7d749c8fff9dd0383382a2ea113282037c60b06a62eca4625b3a40b88ac4"),
    ("spread", "general"): (0, "55adc9a725ebcde3981fa9a2439bde9a6699cc7ce6891aa6bde089e82383b8a5"),
    ("model-pd-lp", "model"): (0, "a4ed44be6662dc27a7dfd505904c20ea9930a93e4360aba72bf1f2fef4587e5e"),
    ("model-pd-mps", "model"): (0, "060a85a9b1886b248a2dad7818bfd2c68fce4f71decf40b79d437bdcb6b83863"),
    ("model-cpd-lp", "model"): (0, "1f19d0ae3ac1747f1ce2a43515fd27b33401bceeae2a235fa312f557907ae1cf"),
    ("model-cpd-mps", "model"): (0, "2444a6546cbc458c9a5a32ed33f1196e5a99d12126567e8316215accc01426d1"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, (make, _) in GRAPHS.items():
        path = root / f"{name}.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in make()), encoding="utf-8")
        paths[name] = str(path)
    return paths


def argv_for(command: str, graph: str, files: dict[str, str]) -> list[str]:
    if command == "solve":
        return ["solve", files[graph], "--problem", "cpd", "--trace"]
    if command == "solve-json":
        return ["solve", files[graph], "--problem", "cpd", "--json"]
    if command == "decompose":
        return ["decompose", files[graph], "--json"]
    if command == "spread":
        return ["spread", files[graph], "--op", "subdivide-edge", "--target", SPREAD_TARGET,
                "--json"]
    if command.startswith("model-"):
        _, problem, fmt = command.split("-")
        return ["model", files[graph], "--problem", problem, "--format", fmt]
    if command == "check":
        return ["check", files[graph], "--problem", "pd", "--trace",
                "--set", GRAPHS[graph][1]]
    return ["batch", "--json"] + [files[name] for name in ORIGINAL]


def run_digest(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of stdout."""
    out = io.StringIO()
    code = main(argv, stdout=out, stderr=io.StringIO(), stdin=io.StringIO())
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command,graph", sorted(DIGESTS))
def test_stdout_matches_recorded_digest(command, graph, files):
    assert run_digest(argv_for(command, graph, files)) == DIGESTS[command, graph]

