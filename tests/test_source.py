"""Guards over the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "powerdom"


def test_no_assert_statements():
    """``python -O`` strips asserts, so a check in ``src/`` raises a typed
    error instead."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_gc():
    """A saving in ``src/`` comes from allocating fewer containers, not from
    tuning or pausing the garbage collector."""
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
                      if name == "gc" or name.startswith("gc.")]
    assert found == []


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
