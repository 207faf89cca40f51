"""Ordered binary decision diagrams that survive soft memory faults.

The package provides three reduction regimes for a boolean function: the
classic fully reduced form, the quasi-reduced form (every edge spans one
level) and the index-resilient reduced form in between, whose node indices
are recoverable from the structure alone.  On top of those sit the recovery
procedures: index reconstruction through the unique table or through the
children, a fault-tolerant Apply/reduce pipeline that avoids hash structures,
and edge reconstruction from a preorder node vector.
"""

from .core import (
    TERM0,
    TERM1,
    BddError,
    ContractError,
    Diagram,
    DiagramStore,
    Mode,
    Node,
    OrderingError,
    UniqueTable,
    count_nodes,
    dfs_preorder,
    evaluate,
    export_dot,
    fnv1a_pair,
    from_cubes,
    from_truth_table,
    is_terminal,
    isomorphic,
    matches_cube,
    mk_node,
    negate,
    new_consed_store,
    reduce_robdd,
    restrict,
    terminal,
    truth_bits,
    truth_table,
)
from .ops import AND, IMPLIES, NAND, NOR, OPS, OR, XNOR, XOR, BoolOp, MemoTable, apply, equivalent
from .quasi import build_qr, merge_quadratic, pad_chains
from .indexres import (
    Chain,
    ChainPlan,
    blocking_parent_counts,
    find_chains,
    find_mergeable_pair,
    ir_reduce,
    is_index_resilient,
    is_ir_reduced,
    is_redundant,
)
from .faults import (
    COMPONENTS,
    HI,
    INDEX,
    LO,
    CostReport,
    DeleteBound,
    FaultOverlay,
    NodeRange,
    build_unique_table,
    check_delete_delta,
    check_merge_delta,
    cost_report,
    inject,
    node_range,
    parent_map,
    reconstruct_index_ut,
)
from .resilient import index_reconstruct, reduction_procedure, resilient_apply
from .edges import (
    AmbiguousEdgeError,
    EdgeCampaignStats,
    EdgeRecoveryError,
    NodeVector,
    build_node_vector,
    candidate_set,
    child_bound,
    edge_campaign,
    reconstruct_edge,
)
from .pla import PlaError, PlaFile, load_pla, parse_pla

__version__ = "0.1.0"
