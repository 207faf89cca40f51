"""Index-resilient diagrams and their canonical reduction.

A diagram is *index-resilient* when it has no duplicate triples and every
internal node at level i keeps at least one child at level i+1.  The second
property is what makes a corrupted variable index recoverable without any
side structure: the true index is always min(child levels) - 1.

Full ROBDD reduction destroys the property (the redundant-node rule creates
edges that skip levels), so this module implements the weaker reduction that
preserves it: starting from a quasi-reduced diagram, delete only those chains
of redundant nodes whose removal keeps every remaining node one level above
some child.  The result is canonical for the function and ordering.

Whether a redundant node may go is decided by counting its *blocking
parents*: parents that rely on this node staying put.  A parent P at level i
blocks a redundant child N when either

 1. both of P's children are redundant (possibly the same node) and N is the
    1-child: of two redundant children only the 0-child may be removed, a
    fixed convention that canonicity depends on; or
 2. P has another child besides N that already sits more than one level down,
    so N is P's only hold on level i+1.

A *removable chain* is a maximal run of redundant nodes linked through
0-children whose head has no blocking parent and whose later members have
exactly one (the chain predecessor).  Removing a whole chain redirects every
edge into it to the node the chain collapses to.

Each public check has a private twin that takes the diagram's internal nodes
in preorder, so that :func:`ir_reduce` and the verifier walk a diagram once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ContractError,
    Diagram,
    DiagramStore,
    Mode,
    dfs_preorder,
    is_terminal,
    rebuild,
    terminal_leaf,
)


def is_redundant(store: DiagramStore, u: int) -> bool:
    """Internal node whose two edges point at the same child."""
    if is_terminal(u):
        return False
    node = store.node(u)
    return node.lo == node.hi


def find_mergeable_pair(d: Diagram):
    """Two distinct reachable nodes with identical triples, or None."""
    return _find_mergeable_pair(d.store, dfs_preorder(d, include_terminals=False))


def _find_mergeable_pair(store: DiagramStore, internal: list[int]):
    seen: dict[tuple[int, int, int], int] = {}
    for u in internal:
        triple = store.node(u).triple()
        other = seen.get(triple)
        if other is not None:
            return (other, u)
        seen[triple] = u
    return None


def blocking_parent_counts(d: Diagram) -> dict[int, int]:
    """For every reachable redundant node, how many parents block its removal.

    Counts parents, not conditions: a parent satisfying both blocking
    properties still contributes one.
    """
    return _blocking_parent_counts(d.store, dfs_preorder(d, include_terminals=False))


def _blocking_parent_counts(store: DiagramStore, internal: list[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for u in internal:
        if is_redundant(store, u):
            counts[u] = 0
    for p in internal:
        node = store.node(p)
        lo, hi = node.lo, node.hi
        both_redundant = is_redundant(store, lo) and is_redundant(store, hi)
        for child in ({lo, hi} if lo != hi else {lo}):
            if child not in counts:
                continue
            blocks = both_redundant and child == hi
            if not blocks and lo != hi:
                other = hi if child == lo else lo
                blocks = store.level(other) > node.index + 1
            if blocks:
                counts[child] += 1
    return counts


@dataclass
class Chain:
    """A removable chain: its nodes in order and the node they collapse to."""

    nodes: list[int]
    child: int

    @property
    def head(self) -> int:
        return self.nodes[0]


@dataclass
class ChainPlan:
    chains: list[Chain] = field(default_factory=list)
    to_remove: set[int] = field(default_factory=set)
    collapse: dict[int, int] = field(default_factory=dict)  # removed id -> survivor


def find_chains(d: Diagram) -> ChainPlan:
    """Mark every removable chain, visiting levels breadth-first from the top.

    A chain starts at a redundant node with no blocking parent and follows
    0-children while they stay redundant with exactly one blocking parent.
    Chains never share nodes.
    """
    return _find_chains(d.store, dfs_preorder(d, include_terminals=False))


def _find_chains(store: DiagramStore, internal: list[int]) -> ChainPlan:
    counts = _blocking_parent_counts(store, internal)
    by_level: dict[int, list[int]] = {}
    for u in internal:
        by_level.setdefault(store.level(u), []).append(u)

    plan = ChainPlan()
    for level in sorted(by_level):
        for u in sorted(by_level[level]):
            if u in plan.to_remove or not is_redundant(store, u) or counts[u] != 0:
                continue
            nodes = [u]
            m = store.node(u).lo
            while not is_terminal(m) and is_redundant(store, m) and counts[m] == 1:
                nodes.append(m)
                m = store.node(m).lo
            chain = Chain(nodes, m)
            for v in nodes:
                assert v not in plan.to_remove, "chains must be disjoint"
                plan.to_remove.add(v)
                plan.collapse[v] = m
            plan.chains.append(chain)
    return plan


def ir_reduce(d: Diagram) -> Diagram:
    """Remove all removable chains; canonical on quasi-reduced input.

    Input must be free of duplicate triples.  Index-resilient inputs that are
    not quasi-reduced are accepted (the algorithm runs as specified) but the
    output may then contain mergeable nodes; the full fault-tolerant pipeline
    in :mod:`resilient_obdd.resilient` avoids that by re-padding first.
    """
    internal = dfs_preorder(d, include_terminals=False)
    pair = _find_mergeable_pair(d.store, internal)
    if pair is not None:
        raise ContractError(f"input has mergeable nodes {pair[0]} and {pair[1]}")
    collapse = _find_chains(d.store, internal).collapse  # survivors are never themselves removed
    out = DiagramStore(d.n, Mode.KEEP_REDUNDANT)

    def split(u):
        node = d.store.node(u)
        return node.index, collapse.get(node.lo, node.lo), collapse.get(node.hi, node.hi)

    root = rebuild(collapse.get(d.root, d.root), terminal_leaf, split, out.add_raw, {})
    return Diagram(out, root)


def is_index_resilient(d: Diagram) -> bool:
    """No duplicate triples, and each internal node has a child one level down."""
    return _is_index_resilient(d.store, dfs_preorder(d, include_terminals=False))


def _is_index_resilient(store: DiagramStore, internal: list[int]) -> bool:
    if _find_mergeable_pair(store, internal) is not None:
        return False
    for u in internal:
        node = store.node(u)
        if min(store.level(node.lo), store.level(node.hi)) != node.index + 1:
            return False
    return True


def is_ir_reduced(d: Diagram) -> bool:
    """Index-resilient with no removable chain left."""
    return _is_ir_reduced(d.store, dfs_preorder(d, include_terminals=False))


def _is_ir_reduced(store: DiagramStore, internal: list[int]) -> bool:
    if not _is_index_resilient(store, internal):
        return False
    return all(count != 0 for count in _blocking_parent_counts(store, internal).values())
