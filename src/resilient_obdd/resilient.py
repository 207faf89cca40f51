"""Operations that keep working while variable indices are corrupted.

On an index-resilient diagram a node's true index is min(child levels) - 1,
so a corrupted index is repaired by looking down, repairing corrupted children
first: :func:`index_reconstruct`.  The walk only descends into children that
are themselves flagged, so repairing one node costs one repair per corrupted
node it can reach.

:func:`resilient_apply` is the table-free Apply variant: it never touches a
unique table (only its result memo, whose entries are themselves allowed to
fail), keeps redundant nodes, and repairs any corrupted operand index the
moment it is read.  Its raw output preserves the one-level-down property but
may contain duplicate triples, so :func:`reduction_procedure` finishes the
job without hash structures: pad skipped levels, merge duplicates
quadratically, then remove removable chains.
"""

from __future__ import annotations

from functools import partial

from .core import Diagram, DiagramStore, Mode, dfs_preorder, is_terminal, rebuild
from .faults import INDEX, FaultOverlay
from .indexres import ir_reduce
from .ops import BoolOp, MemoTable, split_pair, terminal_pair
from .quasi import merge_quadratic, pad_chains


def index_reconstruct(d: Diagram, overlay: FaultOverlay, u: int) -> int:
    """Repair u's corrupted index from its children; returns the true index.

    On an index-resilient diagram one child sits one level down, so the
    index is min(child levels) - 1, with terminals on level n.  Corrupted
    children are repaired first, each once; healthy ones are read as they
    are.  Each repaired value is written back and its flag cleared.
    """
    store = d.store

    def leaf(v):
        return None if v == u or overlay.is_corrupt(v, INDEX) else store.level(v)

    def join(v, lo_level, hi_level):
        overlay.reconstruct_calls += 1
        index = min(lo_level, hi_level) - 1
        overlay.repair(v, INDEX, index)
        return index

    def split(v):
        node = store.node(v)
        return v, node.lo, node.hi

    return rebuild(u, leaf, split, join)


def _overlay_map(overlays) -> dict[int, FaultOverlay]:
    if overlays is None:
        return {}
    if isinstance(overlays, FaultOverlay):
        overlays = (overlays,)
    return {id(ov.store): ov for ov in overlays}


def resilient_apply(op: BoolOp, f: Diagram, g: Diagram, overlays=None,
                    memo: MemoTable | None = None) -> Diagram:
    """Apply without unique tables, tolerant of index and memo faults.

    ``overlays`` may be one overlay or a sequence (one per operand store);
    a corrupted operand index triggers :func:`index_reconstruct` on first
    read.  A corrupted memo entry reads as a miss and is recomputed, costing
    one extra expansion per corrupted entry that is looked up again.  The result
    is built with raw appends: redundant nodes are kept and duplicate triples
    may appear, but every internal node keeps a child one level down, so the
    output is itself repairable.
    """
    if f.n != g.n:
        raise ValueError(f"operand variable counts differ: {f.n} != {g.n}")
    n = f.n
    by_store = _overlay_map(overlays)
    if memo is None:
        memo = MemoTable()
    out = DiagramStore(n, Mode.KEEP_REDUNDANT)

    def checked_level(diagram: Diagram, u: int) -> int:
        if is_terminal(u):
            return n
        overlay = by_store.get(id(diagram.store))
        if overlay is not None and overlay.is_corrupt(u, INDEX):
            index_reconstruct(diagram, overlay, u)
        return diagram.store.node(u).index

    def split(key):
        return split_pair(f, g, key, checked_level(f, key[0]), checked_level(g, key[1]))

    root = rebuild((f.root, g.root), partial(terminal_pair, op), split, out.add_raw, memo)
    return Diagram(out, root)


def reduction_procedure(d: Diagram, overlay: FaultOverlay | None = None) -> Diagram:
    """Canonical index-resilient reduced form, without hash structures.

    Repairs any flagged index on a reachable node first (the initial sweep is
    the first touch), then pads skipped levels, merges duplicates pairwise
    and removes removable chains.  On clean already-reduced input the output
    is isomorphic to the input.
    """
    if overlay is not None:
        for u in dfs_preorder(d, include_terminals=False):
            if overlay.is_corrupt(u, INDEX):
                index_reconstruct(d, overlay, u)
    return ir_reduce(merge_quadratic(pad_chains(d)))
