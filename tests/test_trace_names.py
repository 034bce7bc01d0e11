"""The names the benchmark's traced run wraps.

``perfbench/spans.py`` wraps public functions of every ``powerdom`` module
from outside the package and puts them back afterwards. It finds them by
name, so a rename in ``src/`` must fail here, not only in a traced
benchmark run. The module is loaded from its file and left unchanged.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import powerdom.cli  # noqa: F401  (imports every module the spans name)
from powerdom.graphs import Graph

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(name: str):
    """The object a span name denotes, as its defining module or Graph holds it."""
    module_name, _, attr = name.partition(".")
    if attr.startswith("Graph."):
        return Graph.__dict__[attr.split(".", 1)[1]]
    return getattr(sys.modules[f"powerdom.{module_name}"], attr)


def bindings() -> dict[tuple[str, str], object]:
    """Every name bound in a powerdom module or in the Graph class."""
    out = {("Graph", key): value for key, value in vars(Graph).items()}
    for module_name, module in list(sys.modules.items()):
        if module_name == "powerdom" or module_name.startswith("powerdom."):
            out.update(((module_name, key), value) for key, value in vars(module).items())
    return out


def test_every_traced_name_is_wrapped_and_restored():
    spans = load_spans()
    names = [name for name in spans.GROUPS if name != spans.OP_SPAN]
    for name in ("graphs.Graph.__init__", "graphs.Graph.from_labeled_edges",
                 "structural.feasible_segments", "structural.nontrivial_block_subgraphs"):
        assert name in names
    originals = {name: lookup(name) for name in names}
    assert isinstance(originals["graphs.Graph.from_labeled_edges"], classmethod)
    before = bindings()
    undo = spans.instrument(spans.Recorder(), time.perf_counter)
    try:
        for name in names:
            wrapped, original = lookup(name), originals[name]
            if isinstance(original, classmethod):
                assert isinstance(wrapped, classmethod), name
                wrapped, original = wrapped.__func__, original.__func__
            assert wrapped is not original and wrapped.__wrapped__ is original, name
    finally:
        spans.restore(undo)
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
