"""Byte-level golden output of the CLI.

The table below holds exit codes and sha256 sums of stdout, recorded for
three fixed graphs: a spider with three legs (600 vertices), a flower of
four 4-cycles sharing one vertex, and a 20-vertex random cactus; and for
three seeded 300-vertex graphs that exercise the structural solvers and
the decomposition: a random tree, a random block graph, and a tree of
small 2-connected blocks that are neither cliques nor cycles; and for
the LP and MPS export of the pd and cpd models of a seeded 60-vertex
random graph; and for the enumeration oracles on three graphs of 18 to
20 vertices (hubs(5), a seeded tree, and two seeded sparse graphs sharing
a cut vertex): ``batch --json`` (also with ``--problems cpd`` and with
``--skip-ppt``), ``solve --problem pd --method brute --all-optima --json``,
``ppt --json`` and ``ppt --connected --json``; and for
``solve --problem cpd --method brute --all-optima``, as text and with
``--json``, on those three graphs and the 8-cycle; and for the milp method on
the three toy fixtures under ``tests/data`` and on the 8-cycle:
``solve --method milp --problem pd|cpd --json --trace`` and
``ppt --method milp [--connected] --json``. Any change to a witness,
a trace line, the batch table or an exported model byte changes a digest.
When such a change is intended, record the new digests and say in
CHANGES.md why the output moved.
"""

from __future__ import annotations

import hashlib
import io
import os
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


def hubs_edges(k: int = 5) -> list[tuple[str, str]]:
    """A spine of k vertices, each with three leaves: gamma_P = k."""
    edges = [(f"s{i}", f"s{i + 1}") for i in range(k - 1)]
    edges += [(f"s{i}", f"l{i}_{j}") for i in range(k) for j in range(3)]
    return edges


def small_tree_edges() -> list[tuple[str, str]]:
    rng = random.Random(305)
    return [(f"r{i}", f"r{rng.randrange(i)}") for i in range(1, 18)]


def c8_edges() -> list[tuple[str, str]]:
    return [(f"c{i}", f"c{(i + 1) % 8}") for i in range(8)]


def small_cut_edges() -> list[tuple[str, str]]:
    """Two random trees of 10 vertices with two chords each, sharing the
    cut vertex c9 (19 vertices)."""
    rng = random.Random(306)
    edges = set()
    for offset in (0, 9):
        part = {(rng.randrange(i), i) for i in range(1, 10)}
        while len(part) < 11:
            part.add(tuple(sorted(rng.sample(range(10), 2))))
        edges |= {(u + offset, v + offset) for u, v in part}
    return [(f"c{u}", f"c{v}") for u, v in sorted(edges)]


ORIGINAL = ("spider", "flower", "cactus")
ORACLE = ("hubs", "smalltree", "smallcut")
DATA = os.path.join(os.path.dirname(__file__), "data")
TOYS = ("toy_tree", "toy_cactus", "toy_bridge")
GRAPHS = {"spider": (spider_edges, "hub"), "flower": (flower_edges, "h"),
          "cactus": (cactus_edges, "k0"), "tree": (seeded_tree_edges, "t0"),
          "blockgraph": (seeded_block_graph_edges, "b0"),
          "general": (seeded_general_edges, "g0"), "model": (seeded_model_edges, "m0"),
          "hubs": (hubs_edges, "s0"), "smalltree": (small_tree_edges, "r0"),
          "smallcut": (small_cut_edges, "c0"), "c8": (c8_edges, "c0")}
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
    ("batch-one", "hubs"): (0, "48ab84c65ea25d8f487184657a954c7be861fc84460dc3908c63f2779a336678"),
    ("batch-one", "smalltree"): (0, "1ae4c6496fd09b1f2ef8efacf3a84a8db740969f041f68d73357961d8a4e48bb"),
    ("batch-one", "smallcut"): (0, "c39eebb60bb762d23ca1ad9045b898ea51472821d7695e45cb8fe6168e1896c6"),
    ("batch-cpd", "smalltree"): (0, "8fd8496ffba3b77b5dca2b2fc3a6399efe11792a0ba6fd2eeca2a3a868830eb1"),
    ("batch-cpd", "smallcut"): (0, "7222aaca3c002822f32ea4bd38e6c94527eb3f55a071cf6daf2e82558acdfd7a"),
    ("batch-skip", "smalltree"): (0, "54f25af8b8f6064a5332561ed0b470d431fdee7135f797535eda9fd7d744d143"),
    ("batch-skip", "smallcut"): (0, "ae57fbc08def8f77a75cfe684567e2090fe37d03135ceb93175f75a11080c783"),
    ("solve-pd-all", "hubs"): (0, "aec4ce0f8c9adad9aae8d5e1cd54ebe50932394bbbead7ad4b85125eb19a7204"),
    ("solve-pd-all", "smalltree"):
        (0, "98d31aa52b6472ba318c0972eebce6b7f8f2b4fdaa06563c48a07898ce3194fd"),
    ("solve-pd-all", "smallcut"):
        (0, "b8fafbd823fc1a1e7feef5f3cfeb8bd6508c503e713dd3e0648def838e1c5241"),
    ("solve-cpd-all", "hubs"):
        (0, "618567be2de5bfd4374744bb9ff8f72ef961de63d61e8da048c052fe1d954393"),
    ("solve-cpd-all", "smalltree"):
        (0, "0f86277f30db869a0e721733590cd648442d80372456bbc38ea62ad3072d3ebb"),
    ("solve-cpd-all", "smallcut"):
        (0, "266832c70ddb18a5a017ca98e5de68ae89f35b9c3ae36c24b0c1b05ad0216c51"),
    ("solve-cpd-all", "c8"):
        (0, "7154acdf5bba4b7abab3ff4056078cb4f196169b0b0ac36ee9bd3ef907733dae"),
    ("solve-cpd-all-json", "hubs"):
        (0, "abfd3c7685f39d62cbbd70ba8f1d779a435ab565de05326067b0eb5e14aa869c"),
    ("solve-cpd-all-json", "smalltree"):
        (0, "c418b0cbe9656092fa358570461d03c54cb8c04ad87b0f1501f55997d26bd64c"),
    ("solve-cpd-all-json", "smallcut"):
        (0, "11fa07215188ada7ac0c993d1800f65bf882a5511f81f4e0caa24ca5ff9703d4"),
    ("solve-cpd-all-json", "c8"):
        (0, "9b4da2a50fc57c79c35128abe0f8d69636b6b60905af86d7e88f5cd67ecb876c"),
    ("ppt", "hubs"): (0, "677e71b76454faf9f8383ed8483f084011495d4c430dd032f1f419650910de29"),
    ("ppt", "smalltree"): (0, "a3069c161882db1529ab139a245147d8e22ede01f258f88eadf8ac73f720c32d"),
    ("ppt", "smallcut"): (0, "58abcceeacb8600f3b694779b327b15f6b3b13e4b316b5a933e3de65fad28d67"),
    ("ppt-connected", "hubs"): (0, "9b6088c68cbe5f6c606b3e33eb1bb51c07a520483c7d103a1abacff403e98c95"),
    ("ppt-connected", "smalltree"):
        (0, "7440ae634314540737a62fa1848b78e6d50c3309ca63a23d46ae344a611a91c7"),
    ("ppt-connected", "smallcut"):
        (0, "cea3c885bdb09d5013ade8e87c72a8b5e5ad68b8e0a9a8cdc0be29c1da4e6fbf"),
    ("milp-pd", "toy_tree"):
        (0, "c503d5732b2730ab5f4fd0d8597a0b5ffc8f64ed3e690d9614fa1895e76a8062"),
    ("milp-pd", "toy_cactus"):
        (0, "119dccc3638b253c62744d1abe6a38bee4b458d189f63460117c0239f977fe9e"),
    ("milp-pd", "toy_bridge"):
        (0, "1b2051e87f5ec47d32e80b6dc7a390682ba2ab1bffbe1ab646fddf5e733901cb"),
    ("milp-pd", "c8"): (0, "b3be6e8363453c431d1320e110bbf65d1c3563cbeb7ddbf3661aba1d8b3fb477"),
    ("milp-cpd", "toy_tree"):
        (0, "7828bd308d3fc99403b141e36e014ff12b038b9d8601db8c6742314a8516cf25"),
    ("milp-cpd", "toy_cactus"):
        (0, "f525bba7736f5557a7bce0d077112c082f9098e392dbb5c1dc415670d6743276"),
    ("milp-cpd", "toy_bridge"):
        (0, "932bf095740c56e93235feea0cb06f36d3bee4b94700b61438c7ea30de874b50"),
    ("milp-cpd", "c8"):
        (0, "6439d4946dde81ac44127a9a00155578b218a1435db62e404d3758918e4e26ab"),
    ("ppt-milp", "toy_tree"):
        (0, "09765199907a6fba7036aa8e0de060cfef75e5f1383755814d97bf0bc4b38995"),
    ("ppt-milp", "toy_cactus"):
        (0, "8f550e8c139f2ae5244a2917fb0cc147b1cd930b9109a2b61a9b18e93a923188"),
    ("ppt-milp", "toy_bridge"):
        (0, "9e96b014982f51c50f4fdc3966f92354c0f70c47fcaa9984d7d3981b2c535222"),
    ("ppt-milp", "c8"):
        (0, "8f550e8c139f2ae5244a2917fb0cc147b1cd930b9109a2b61a9b18e93a923188"),
    ("ppt-milp-connected", "toy_tree"):
        (0, "3dc6d6a5230a1fc599b4a36f1bec0c0f99c9b81a01d72d332571e1344151d2f0"),
    ("ppt-milp-connected", "toy_cactus"):
        (0, "de3d51116ed8907a0d219d4e5a644e98ea6dada64fd2ded451b6e976e7ace1a3"),
    ("ppt-milp-connected", "toy_bridge"):
        (0, "4fee42a2c1926597e1225a865e6a6a7faec52ec6e6af6a3d111fc8238e4736eb"),
    ("ppt-milp-connected", "c8"):
        (0, "de3d51116ed8907a0d219d4e5a644e98ea6dada64fd2ded451b6e976e7ace1a3"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, (make, _) in GRAPHS.items():
        path = root / f"{name}.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in make()), encoding="utf-8")
        paths[name] = str(path)
    paths.update({name: os.path.join(DATA, f"{name}.edges") for name in TOYS})
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
    if command == "batch-one":
        return ["batch", "--json", files[graph]]
    if command == "batch-cpd":
        return ["batch", "--json", "--problems", "cpd", files[graph]]
    if command == "batch-skip":
        return ["batch", "--json", "--skip-ppt", files[graph]]
    if command == "solve-pd-all":
        return ["solve", files[graph], "--problem", "pd", "--method", "brute",
                "--all-optima", "--json"]
    if command.startswith("solve-cpd-all"):
        return (["solve", files[graph], "--problem", "cpd", "--method", "brute", "--all-optima"]
                + ["--json"] * command.endswith("-json"))
    if command == "ppt":
        return ["ppt", files[graph], "--json"]
    if command == "ppt-connected":
        return ["ppt", files[graph], "--connected", "--json"]
    if command.startswith("milp-"):
        return ["solve", files[graph], "--method", "milp", "--problem", command[5:],
                "--json", "--trace"]
    if command == "ppt-milp":
        return ["ppt", files[graph], "--method", "milp", "--json"]
    if command == "ppt-milp-connected":
        return ["ppt", files[graph], "--method", "milp", "--connected", "--json"]
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

