"""Quasi-reduced diagrams: every edge spans exactly one level.

A quasi-reduced diagram is what the complete decision tree becomes when only
the duplicate-triple rule is applied: nodes with equal children survive, every
root-to-terminal path has length n, and the form is canonical for the
function.  It is the required input shape for the chain-removal reduction in
:mod:`resilient_obdd.indexres`.

Two routes lead here.  :func:`build_qr` hash-conses the form directly from any
diagram.  The table-free route, used when hash structures cannot be trusted,
is :func:`pad_chains` (insert the redundant nodes that long edges elide)
followed by :func:`merge_quadratic` (merge duplicates by pairwise comparison,
no hashing anywhere).
"""

from __future__ import annotations

from functools import partial

from .core import (
    ContractError,
    Diagram,
    DiagramStore,
    Mode,
    dfs_preorder,
    is_terminal,
    mk_node,
    new_consed_store,
    rebuild,
    terminal_leaf,
)


def build_qr(d: Diagram) -> Diagram:
    """Canonical quasi-reduced form of the function, via hash-consing."""
    n = d.n
    store, table = new_consed_store(n, Mode.KEEP_REDUNDANT)

    def leaf(key):
        u, i = key
        if i < n:
            return None
        if not is_terminal(u):
            raise ContractError(f"node {u} is reached below the last level")
        return u

    def split(key):
        # key (u, i): the function rooted at u, materialized from level i down
        u, i = key
        level = d.store.level(u)
        if level < i:
            raise ContractError(f"node {u} at level {level} is the child of a node above level {i}")
        if level == i:
            node = d.store.node(u)
            return i, (node.lo, i + 1), (node.hi, i + 1)
        return i, (u, i + 1), (u, i + 1)  # the 1-side is a memo hit or a leaf

    root = rebuild((d.root, 0), leaf, split, partial(mk_node, store, table), {})
    return Diagram(store, root)


def pad_chains(d: Diagram) -> Diagram:
    """Insert a fresh chain of redundant nodes on every edge that skips levels.

    Edges into terminals and a root below level 0 are padded too, so
    afterwards every root-to-terminal path has length n.  No unique table is
    consulted: duplicates introduced by separate chains stay distinct until
    :func:`merge_quadratic` runs.  Both edges of a node are padded once
    both of its children are built.
    """
    out = DiagramStore(d.n, Mode.KEEP_REDUNDANT)

    def pad(child: int, parent_level: int) -> int:
        # copies keep their original's level, so out.level is the child's
        for level in range(out.level(child) - 1, parent_level, -1):
            child = out.add_raw(level, child, child)
        return child

    def join(index, lo, hi):
        return out.add_raw(index, pad(lo, index), pad(hi, index))

    root = rebuild(d.root, terminal_leaf, lambda u: d.store.node(u).triple(), join, {})
    return Diagram(out, pad(root, -1))


def merge_quadratic(d: Diagram) -> Diagram:
    """Apply the duplicate-triple rule exhaustively without hash structures.

    Works level by level from the bottom, comparing each node against the
    nodes already kept on its level (pairwise, hence quadratic).  Only plain
    arrays indexed by level or by node id are used, which is the point: this
    is the merge step of the fault-tolerant pipeline.  On chain-padded input
    the result is the canonical quasi-reduced form.
    """
    n = d.n
    store = d.store
    arena_end = store.next_id()
    by_level: list[list[int]] = [[] for _ in range(n)]
    for u in dfs_preorder(d, include_terminals=False):
        by_level[store.node(u).index].append(u)

    out = DiagramStore(n, Mode.KEEP_REDUNDANT)
    remap = list(range(arena_end))
    for level in range(n - 1, -1, -1):
        kept_lo: list[int] = []
        kept_hi: list[int] = []
        kept_id: list[int] = []
        for u in sorted(by_level[level]):
            node = store.node(u)
            lo, hi = remap[node.lo], remap[node.hi]
            for t in range(len(kept_id)):
                if kept_lo[t] == lo and kept_hi[t] == hi:
                    remap[u] = kept_id[t]
                    break
            else:
                remap[u] = out.add_raw(level, lo, hi)
                kept_lo.append(lo)
                kept_hi.append(hi)
                kept_id.append(remap[u])

    root = d.root if is_terminal(d.root) else remap[d.root]
    return Diagram(out, root)
