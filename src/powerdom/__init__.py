"""Power domination toolkit: exact oracles, linear-time structural solvers,
spread analysis, and integer programming model generation for undirected
graphs."""

from .errors import (
    BudgetExceededError,
    DecompositionError,
    DisconnectedError,
    GraphClassError,
    GraphError,
    ModelError,
    NotPowerDominatingError,
    ParseError,
    PowerDomError,
)
from .graphs import Graph, attach_leaves, complete_graph, cycle_graph, path_graph
from .graph_io import dump_edgelist, load_graph
from .decomposition import (
    BlockDecomposition,
    CutVertexTaxonomy,
    GraphClass,
    blocks,
    classify_cut_vertices,
    cycle_order,
    recognize,
)
from .propagation import (
    Force,
    PropagationTrace,
    dominate_step,
    forcing_closure,
    is_connected_set,
    is_power_dominating,
    is_zero_forcing,
    ppt_of_set,
    trace_lines,
)
from .exact import (
    Budget,
    SolveResult,
    l_round_cpd,
    l_round_pd,
    min_cpds,
    min_cpds_subject_to,
    min_pds,
    min_zero_forcing,
    ppt,
    zf_to_cpd_gadget,
)
from .structural import (
    FeasibleSegmentFamily,
    Segment,
    block_graph_cpds,
    cactus_cpds,
    decompose_cpds,
    feasible_segments,
    solve_cpds,
    tree_cpds,
    tree_pd_equals_cpd,
)
from .spread import (
    SpreadReport,
    contract_edge_spread,
    edge_spread,
    make_cycle_gadget,
    make_path_gadget,
    subdivide_edge_delta,
    vertex_spread,
)
from .milp import (
    MilpModel,
    ModelSolution,
    add_mtz_connectivity,
    build_model1,
    export,
    parse_lp,
    parse_mps,
    ppt_by_search,
    round_number,
    solve_graph,
    solve_small,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
