"""The package's records: each keeps its fields in order and refuses
assignment to them, and ``==``, hash and repr cover every field."""

from __future__ import annotations

import pickle

import pytest

from powerdom import exact, milp, spread, structural
from powerdom.decomposition import cycle_order, profile
from powerdom.graph_io import load_graph

# a triangle and a 4-cycle joined by a bridge, with a pendant leaf
G = load_graph("a b\nb c\nc a\nc d\nd e\ne f\nf g\ng d\ng h\n")
PROFILE = profile(G)
CYCLE = next(block for block, edges in zip(PROFILE.decomposition.blocks,
                                            PROFILE.decomposition.edges) if edges == 4)
FAMILY = structural.feasible_segments(G, cycle_order(G, CYCLE), PROFILE.taxonomy)
RESULT = exact.min_pds(G)
MODEL = milp.build_model1(G, 3)

RECORDS = {
    "BlockDecomposition": (PROFILE.decomposition,
                           ("blocks", "cut_vertices", "trivial", "edges", "walks")),
    "CutVertexTaxonomy": (PROFILE.taxonomy, ("r1", "r2", "r3", "mandatory", "pendant_paths",
                                             "pendant_count")),
    "GraphClass": (PROFILE.graph_class, ("path", "cycle", "tree", "block_graph", "cactus")),
    "GraphProfile": (PROFILE, ("connected", "decomposition", "taxonomy", "graph_class")),
    "Budget": (exact.Budget(3, 1.5), ("max_vertices", "max_seconds")),
    "SolveResult": (RESULT, ("optimum", "witness", "trace", "method", "all_optima", "ppt")),
    "PropagationTrace": (RESULT.trace, ("initial", "forces", "final_colored")),
    "SpreadReport": (spread.vertex_spread(G, G.index("h")),
                     ("operation", "target", "before", "after", "spread")),
    "Segment": (FAMILY.best, ("cycle", "start", "end", "interior")),
    "FeasibleSegmentFamily": (FAMILY, ("zero_cut", "one_cut", "two_cut", "max_size", "best")),
    "MilpModel": (MODEL, ("name", "variables", "objective", "constraints")),
    "ModelSolution": (milp.solve_small(MODEL, G), ("assignment", "objective_value")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_keeps_its_fields_and_refuses_assignment(name):
    """Each record is remade from its fields in order and by pickle, equals
    the tuple of its fields when it is a named tuple, and refuses
    assignment to each."""
    record, fields = RECORDS[name]
    assert type(record).__name__ == name and record._fields == fields
    values = [getattr(record, field) for field in fields]
    for field, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    assert type(record)(*values) == record == pickle.loads(pickle.dumps(record))
    assert not isinstance(record, tuple) or record == tuple(values)
    shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
    assert repr(record) == f"{name}({shown})"
