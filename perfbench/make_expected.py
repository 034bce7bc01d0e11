"""Record the expected answers for the fixed graphs into expected.json.

Runs the CLI of the checkout it is started from on every structured and
random oracle graph, and checks the closed forms the benchmark uses
instead of table entries (hubs, long chains, model sizes) against the same
CLI. Run it from the root of a checkout whose answers are trusted:

    python3 perfbench/make_expected.py

It takes about a minute. Rerun it only when corpus.py changes.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile

import corpus
import workloads


def run_cli(argv: list[str]) -> str:
    from powerdom import cli

    out, err = io.StringIO(), io.StringIO()
    rc = cli.main(argv, stdout=out, stderr=err)
    if rc != 0 or err.getvalue():
        raise SystemExit(f"{argv}: exit {rc}: {err.getvalue()}")
    return out.getvalue()


def record(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def structured_table(directory: str) -> dict:
    table = {}
    for family in corpus.STRUCTURED_FAMILIES:
        for n in corpus.STRUCTURED_SIZES:
            edges = corpus.structured_graph(family, n)
            text = corpus.edgelist_text(edges)
            path = record(directory, "g.edges", text)
            result = json.loads(run_cli(["solve", path, "--problem", "cpd", "--json"]))
            entry = {"sha": corpus.digest(text), "optimum": result["optimum"],
                     "method": result["method"]}
            if n == corpus.STRUCTURED_SIZES[0]:
                entry["spread"] = {}
                for u, v in corpus.spread_candidates(family, n, edges):
                    for op in ("subdivide-edge", "contract-edge"):
                        target = f"v{u},v{v}"
                        out = json.loads(run_cli(["spread", path, "--op", op,
                                                  "--target", target, "--json"]))
                        entry["spread"][f"{op} {target}"] = [out["before"], out["after"]]
            table[f"{family}/{n}"] = entry
            print(f"structured {family}/{n}: {entry['optimum']}", flush=True)
    return table


def oracle_table(directory: str) -> dict:
    table = {}
    for family in corpus.ORACLE_FAMILIES:
        for index in range(corpus.ORACLE_GRAPHS):
            text = corpus.edgelist_text(corpus.oracle_graph(family, index))
            path = record(directory, "g.edges", text)
            row = json.loads(run_cli(["batch", path, "--json"]))
            if "error" in row or row["ppt"] is None:
                raise SystemExit(f"oracle {family}/{index}: {row}")
            connected = json.loads(run_cli(["ppt", path, "--connected", "--json"]))
            table[f"{family}/{index}"] = {
                "sha": corpus.digest(text), "n": row["n"], "method": row["method"],
                "gamma_p": row["gamma_p"], "gamma_pc": row["gamma_pc"],
                "ppt": row["ppt"], "ppt_connected": connected["ppt"],
            }
            print(f"oracle {family}/{index}: {table[f'{family}/{index}']}", flush=True)
    return table


def check_closed_forms(directory: str) -> None:
    """The workloads' own checks must pass on the closed-form ops."""
    empty = {"structured": {}, "oracle": {}}
    for seed in range(3):
        for build in (workloads.chains, workloads.model):
            work = build(seed, empty)
            paths = {name: record(directory, name, text) for name, text in work.files.items()}
            for op in work.ops:
                argv = [paths.get(a, a) for a in op.argv]
                stdout = run_cli(argv)
                parsed = op.read_back(stdout) if op.read_back else None
                problems = op.check(0, stdout, parsed)
                if problems:
                    raise SystemExit(f"{op.label} (seed {seed}): {problems}")
    for k in corpus.HUB_SIZES:
        path = record(directory, "hubs.edges", corpus.edgelist_text(corpus.hubs(k)))
        row = json.loads(run_cli(["batch", path, "--json"]))
        connected = json.loads(run_cli(["ppt", path, "--connected", "--json"]))
        if (row["gamma_p"], row["gamma_pc"], row["ppt"], connected["ppt"]) != (k, k, 1, 1):
            raise SystemExit(f"hubs({k}): {row} {connected}")


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench_expected") as directory:
        check_closed_forms(directory)
        table = {"structured": structured_table(directory),
                 "oracle": oracle_table(directory)}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
