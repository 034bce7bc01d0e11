"""Guards over the package source itself, and over the benchmark records
kept next to it."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "powerdom"


def test_no_assert_statements():
    """``python -O`` strips asserts, so a check in ``src/`` raises a typed
    error instead."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _imports_of(module: str) -> list[str]:
    """``file:line`` of each import of ``module`` or a submodule of it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == module or name.startswith(module + ".")]
    return found


def test_no_module_imports_gc():
    """A saving in ``src/`` comes from allocating fewer containers, not from
    tuning or pausing the garbage collector."""
    assert _imports_of("gc") == []


def test_no_module_imports_dataclasses():
    """Every record is a named tuple, or a slotted class for the lazy
    trace: ``dataclasses`` would pull ``inspect``, ``ast`` and ``dis`` into
    every import and generate each record's methods while importing."""
    assert _imports_of("dataclasses") == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Compared with a bare interpreter, so the site's own imports do not count."""
    probe = "import sys; sys.path.insert(0, sys.argv[1]); {}print(*sys.modules)"

    def loaded(imports: str) -> set[str]:
        done = subprocess.run([sys.executable, "-c", probe.format(imports), str(SRC.parent)],
                              capture_output=True, text=True, check=True)
        return set(done.stdout.split())

    added = loaded("import powerdom.cli; ") - loaded("")
    assert "powerdom.cli" in added and "argparse" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_no_module_reads_the_environment():
    """Every setting arrives as an argument or a command-line flag, so the
    same call gives the same result whatever the environment holds."""
    readers = {"environ", "environb", "getenv"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "os"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                hit = any(alias.name in readers for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = node.value.id in aliases and node.attr in readers
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _calls_outside(name: str, home: tuple[str, str]) -> list[str]:
    """Calls of ``name`` (bare or as an attribute) under ``src/`` that are
    not inside the function ``home`` = (module file, function name)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == home:
                allowed.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_certify_makes_a_solve_result():
    """Every result is re-verified, because only ``exact.certify`` builds one."""
    assert _calls_outside("SolveResult", ("exact.py", "certify")) == []


def test_only_connected_profile_refuses_a_disconnected_graph():
    """Every operation that needs a connected graph asks one function, so
    they all refuse the same inputs with the same message."""
    assert _calls_outside("DisconnectedError", ("decomposition.py", "connected_profile")) == []


def _public_searches() -> set[str]:
    """The public functions of ``exact`` that run a search: those that name
    one of its two search loops, or another public search, other than as a
    parameter of their own."""
    tree = ast.parse((SRC / "exact.py").read_text(encoding="utf-8"))
    names = {node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
             - {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    searches = {"_min_coloring", "_min_connected"}
    while True:
        more = {name for name, used in names.items() if used & searches} - searches
        if not more:
            return {name for name in searches if not name.startswith("_")}
        searches |= more


def test_structural_searches_no_piece_through_a_public_search():
    """The decomposition runs ``exact``'s growth search on each piece
    directly, so no piece pays for a public search's profile and checks;
    only ``solve_cpds``'s ``brute`` branch names a public search."""
    searches = _public_searches()
    assert {"min_cpds", "min_cpds_subject_to", "min_pds", "ppt"} <= searches
    tree = ast.parse((SRC / "structural.py").read_text(encoding="utf-8"))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "solve_cpds":
            for branch in ast.walk(node):
                if isinstance(branch, ast.If) and ast.unparse(branch.test) == "method == 'brute'":
                    allowed.update(id(n) for stmt in branch.body for n in ast.walk(stmt))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            named = [node.attr]
        elif isinstance(node, ast.Name):
            named = [node.id]
        else:
            continue
        if id(node) not in allowed and searches.intersection(named):
            found.append(f"structural.py:{node.lineno}")
    assert found == []
    assert allowed, "solve_cpds has no brute branch"


def test_structural_builds_no_graph_or_row_of_a_piece():
    """The decomposition searches a piece on neighbor masks read from the
    whole graph's rows and lists a piece as its vertices, so ``structural``
    calls neither ``induced_subgraph`` nor ``_induced_rows``."""
    tree = ast.parse((SRC / "structural.py").read_text(encoding="utf-8"))
    found = [f"structural.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(
                 node.func, "id", None)) in {"induced_subgraph", "_induced_rows"}]
    assert found == []


def test_no_function_takes_an_all_optima_parameter():
    """The exact searches find every optimum of the optimal level anyway,
    so each result carries them and their least propagation time; no
    caller chooses to drop them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.Lambda))
                  for arg in ast.walk(node.args)
                  if isinstance(arg, ast.arg) and arg.arg == "all_optima"]
    assert found == []


def test_cli_solves_cpd_through_solve_cpds_only():
    """``structural.solve_cpds`` is the one dispatch point of the cpd
    methods other than milp, ``brute`` included."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
             if "min_cpds" in (getattr(node, "attr", None), getattr(node, "id", None))
             or isinstance(node, ast.ImportFrom) and "min_cpds" in [a.name for a in node.names]]
    assert found == []


def test_cli_calls_no_private_function_of_another_module():
    """The command line is a client of the library's public functions: it
    calls no ``_``-prefixed name of another ``powerdom`` module. Reading a
    private constant (``graph_io._INTEGER``) is not a call."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    modules, private = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.asname or alias.name for alias in node.names}
            if node.module is None:
                modules |= names
            else:
                private |= {name for name in names if name.startswith("_")}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in modules and func.attr.startswith("_")
                    or isinstance(func, ast.Name) and func.id in private):
                found.append(f"cli.py:{node.lineno}: {ast.unparse(func)}")
    assert {"milp", "structural", "graph_io"} <= modules
    assert found == []


def test_cli_prints_every_trace_through_trace_lines():
    """The CLI reads no trace entry itself: ``propagation.trace_lines``
    prints a recorded trace from its run, without building its entries."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "forces"]
    assert found == []


def test_propagation_defines_no_engine_class():
    """``_propagate`` is the whole frontier engine, its counters locals of
    the one function: ``propagation`` defines no class but the trace and
    its entries."""
    tree = ast.parse((SRC / "propagation.py").read_text(encoding="utf-8"))
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {"Force", "PropagationTrace"}


def test_every_benchmark_record_holds_the_shared_keys():
    """Each ``BENCH_*.json`` at the repo root parses and names its change,
    its claimed gain, its end-to-end runs, its host and its ``src/`` size."""
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    shared = {"change", "claimed_gain", "end_to_end", "host", "src_lines"}
    missing = {path.name: sorted(shared - json.loads(path.read_text(encoding="utf-8")).keys())
               for path in records}
    assert {name: keys for name, keys in missing.items() if keys} == {}


def test_the_cli_parser_overrides_only_error_and_print_help():
    """``cli._Parser`` turns argparse's exits into exceptions for ``main``
    and nothing more: a call that names a subcommand parses with that
    subcommand's own parser, so no hook in ``parse_known_args`` or
    elsewhere adds arguments at parse time."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    parsers = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "_Parser"]
    assert len(parsers) == 1
    defined = {node.name for node in parsers[0].body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert defined == {"error", "print_help"}
