"""Byte-level golden output of the CLI.

The table below holds exit codes and sha256 sums of stdout, recorded for
three fixed graphs: a spider with three legs (600 vertices), a flower of
four 4-cycles sharing one vertex, and a 20-vertex random cactus. Any
change to a witness, a trace line or the batch table changes a digest.
When such a change is intended, record the new digests and say in
CHANGES.md why the output moved.
"""

from __future__ import annotations

import hashlib
import io

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


GRAPHS = {"spider": (spider_edges, "hub"), "flower": (flower_edges, "h"),
          "cactus": (cactus_edges, "k0")}

DIGESTS = {
    ("solve", "spider"): (0, "230252f61a7163dc204932d268f1eb3233678030154a850f6706b4cd072fb45f"),
    ("solve", "flower"): (0, "6a7eb179b9cce3b1381323fe1e8fde72518e82b0e0d22b31f6c21d7c82d507c5"),
    ("solve", "cactus"): (0, "368578fee45fc133a13077a865706e6fff10a80084abc9bf4081ea09cdef5e40"),
    ("check", "spider"): (0, "6a54841dd5aa042e429a81af5f7bfa71142dabc190be39b40210c7f4f9044950"),
    ("check", "flower"): (0, "a5edab223b67f7fd11837db3b26081cedbc5243eb4aa7605ce10c5416c6349f9"),
    ("check", "cactus"): (2, "540060af34664628a1ebe3f78e19fff92fdba91de4562553b71cda3629890184"),
    ("batch", "all"): (0, "7bcc53167236c4fed18a3beffc61f4c06b2aa63933a9f5648430d6693d2ff8e0"),
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
    if command == "check":
        return ["check", files[graph], "--problem", "pd", "--trace",
                "--set", GRAPHS[graph][1]]
    return ["batch", "--json"] + [files[name] for name in GRAPHS]


def run_digest(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of stdout."""
    out = io.StringIO()
    code = main(argv, stdout=out, stderr=io.StringIO(), stdin=io.StringIO())
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command,graph", sorted(DIGESTS))
def test_stdout_matches_recorded_digest(command, graph, files):
    assert run_digest(argv_for(command, graph, files)) == DIGESTS[command, graph]

