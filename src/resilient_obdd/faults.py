"""Single-component fault model, index recovery via the unique table, and
the cost of recovery.

The model: one fault corrupts one component (variable index, 0-edge or
1-edge) of one internal node, replacing the stored value with a random wrong
value of the right type.  Detection is perfect and is represented by a
:class:`FaultOverlay` that flags corrupted components and remembers the
original values so campaigns can verify and undo.  Terminals and the unique
table itself are assumed safe.

With a single corrupted index, the true level of a node N is pinned down by
its healthy neighbours: it lies in the closed range

    [max parent level + 1, min child level - 1]

and :func:`reconstruct_index_ut` finds it exactly by probing the unique
table's subtables over that range for N's own id.  The width of the range is
the probe cost; :func:`cost_report` aggregates it over a diagram, which is
the metric the reduction trade-offs are judged by.

:func:`check_merge_delta` and :func:`check_delete_delta` apply one classic
reduction rule and report how the total cost moved, together with the
predicted exact value (merges) or enclosing interval (deletions) computed
from the local geometry around the touched nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Diagram, UniqueTable, dfs_preorder, is_terminal

INDEX = "index"
LO = "lo"
HI = "hi"
COMPONENTS = (INDEX, LO, HI)


class FaultOverlay:
    """Perfect-detection flags plus undo data for one store.

    ``reconstruct_calls`` is a telemetry counter bumped once per node the
    index repair routine in :mod:`resilient_obdd.resilient` repairs; tests
    use it to check the bound on repairs.
    """

    def __init__(self, store):
        self.store = store
        self._originals: dict[tuple[int, str], int] = {}
        self.reconstruct_calls = 0

    def is_corrupt(self, u: int, component: str) -> bool:
        return (u, component) in self._originals

    def original(self, u: int, component: str) -> int:
        return self._originals[(u, component)]

    def corrupted(self) -> list[tuple[int, str]]:
        return sorted(self._originals)

    def __len__(self):
        return len(self._originals)

    def repair(self, u: int, component: str, value: int):
        """Write a recovered value and drop the flag (if one was set)."""
        setattr(self.store.node(u), component, value)
        self._originals.pop((u, component), None)

    def restore(self):
        """Undo every outstanding fault."""
        for (u, component), value in list(self._originals.items()):
            setattr(self.store.node(u), component, value)
        self._originals.clear()


def inject(d: Diagram, overlay: FaultOverlay, u: int, component: str, rng) -> None:
    """Corrupt one component of one internal node with a random wrong value."""
    if is_terminal(u):
        raise ValueError("terminals are outside the fault model")
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    if overlay.is_corrupt(u, component):
        raise ValueError(f"component {component} of node {u} is already corrupted")
    store = d.store
    node = store.node(u)
    old = getattr(node, component)
    count = store.n if component == INDEX else store.next_id()
    if count < 2:
        raise ValueError("no wrong value of the right type exists")
    # the draw rng.choice makes over range(count) without old
    k = rng.randrange(count - 1)
    overlay._originals[(u, component)] = old
    setattr(node, component, k + (k >= old))


# ---------------------------------------------------------------------------
# candidate level ranges and table-based index recovery


@dataclass(frozen=True)
class NodeRange:
    """Closed range of levels a node's true index must lie in."""

    lower: int
    upper: int
    parent_level: int  # max level among usable parents, -1 for a root
    child_level: int   # min level among usable children, n for terminals

    @property
    def size(self) -> int:
        return self.upper - self.lower + 1


def parent_map(d: Diagram) -> dict[int, list[int]]:
    """Reachable internal node -> sorted list of its parents."""
    parents: dict[int, list[int]] = {}
    for u in dfs_preorder(d, include_terminals=False):
        node = d.store.node(u)
        for child in {node.lo, node.hi}:
            if not is_terminal(child):
                parents.setdefault(child, []).append(u)
    return {u: sorted(ps) for u, ps in parents.items()}


def node_range(d: Diagram, u: int, overlay: FaultOverlay | None = None,
               parents: dict[int, list[int]] | None = None) -> NodeRange:
    """Range of possible indices for u, from uncorrupted neighbours only.

    Under the single-fault model the range always contains the true index.
    When neighbours are corrupted too (multi-fault misuse), the unusable ones
    are skipped, which widens the range rather than poisoning it: no parent
    usable means the bound of a root, no child usable means the deepest
    possible level.
    """
    if is_terminal(u):
        raise ValueError("terminals have no reconstructable index")
    store = d.store
    if parents is None:
        parents = parent_map(d)

    def usable(v: int) -> bool:
        return is_terminal(v) or overlay is None or not overlay.is_corrupt(v, INDEX)

    parent_levels = [store.level(p) for p in parents.get(u, []) if usable(p)]
    node = store.node(u)
    child_levels = [store.level(c) for c in (node.lo, node.hi) if usable(c)]
    ip = max(parent_levels) if parent_levels else -1
    ic = min(child_levels) if child_levels else store.n
    return NodeRange(ip + 1, ic - 1, ip, ic)


def reconstruct_index_ut(d: Diagram, table: UniqueTable, u: int,
                         overlay: FaultOverlay | None = None) -> int:
    """Recover u's variable index by probing the unique table over its range.

    Scans candidate levels from the deepest up, probing each subtable at the
    bucket selected by u's (healthy) child pair and walking the collision
    list for u's own id.  The bucket does not depend on the level, so the key
    is hashed once.  Exact under a single index fault: u sits in exactly
    one subtable.  Returns -1 only when no level matches, which cannot happen
    unless the single-fault precondition was violated.
    """
    r = node_range(d, u, overlay)
    node = d.store.node(u)
    bucket = table.bucket_index(node.lo, node.hi)
    for level in range(r.upper, r.lower - 1, -1):
        if table.bucket_holds(level, bucket, u):
            return level
    return -1


def build_unique_table(d: Diagram, bucket_count: int = 256) -> UniqueTable:
    """Index an existing diagram's reachable nodes into a fresh table.

    Keys use the current stored child pairs, so build it while the diagram is
    healthy; campaigns then corrupt nodes and probe the intact table.
    """
    table = UniqueTable(d.n, bucket_count)
    for u in dfs_preorder(d, include_terminals=False):
        table.insert(d.store, d.store.node(u).index, u)
    return table


# ---------------------------------------------------------------------------
# cost of index recovery


@dataclass
class CostReport:
    """Per-node range widths plus their total and mean."""

    per_node: dict[int, int]
    total: int
    mean: float
    node_count: int


def cost_report(d: Diagram) -> CostReport:
    """Range width of every reachable internal node; total and mean.

    A width of 1 means the node's index is recoverable from its neighbours
    alone.  Quasi-reduced diagrams score 1.0 exactly: every node except the
    root has a parent one level up, and the root sits at level 0.  Merely
    index-resilient diagrams can score above 1.0, because resilience pins the
    top of the range (one child one level down) but not the bottom.
    """
    parents = parent_map(d)
    per_node: dict[int, int] = {}
    for u in dfs_preorder(d, include_terminals=False):
        per_node[u] = node_range(d, u, parents=parents).size
    total = sum(per_node.values())
    count = len(per_node)
    return CostReport(per_node, total, total / count if count else 0.0, count)


# ---------------------------------------------------------------------------
# cost deltas of single reduction-rule applications


def _redirect_edges(d: Diagram, mapping: dict[int, int]):
    """Point every edge into a mapped node at its replacement, in place."""
    store = d.store
    for u in dfs_preorder(d, include_terminals=False):
        node = store.node(u)
        if node.lo in mapping:
            node.lo = mapping[node.lo]
        if node.hi in mapping:
            node.hi = mapping[node.hi]
    if store.table is not None:
        for old in mapping:
            store.table.remove(store, store.node(old).index, old)


def check_merge_delta(d: Diagram, nodes) -> int:
    """Merge a set of duplicate-triple nodes in place; return the cost delta.

    The survivor is the member with the deepest parent, which keeps its own
    range unchanged and makes the delta exactly minus the summed range widths
    of the deleted members.  Mutates the diagram.
    """
    nodes = sorted(set(nodes))
    if len(nodes) < 2:
        raise ValueError("need at least two nodes to merge")
    store = d.store
    triples = {store.node(u).triple() for u in nodes}
    if len(triples) != 1:
        raise ValueError(f"nodes are not mergeable, triples differ: {sorted(triples)}")
    reachable = set(dfs_preorder(d, include_terminals=False))
    if not set(nodes) <= reachable:
        raise ValueError("all nodes must be reachable from the root")

    parents = parent_map(d)

    def deepest_parent(u: int) -> int:
        ps = parents.get(u, [])
        return max((store.level(p) for p in ps), default=-1)

    before = cost_report(d)
    kept = max(nodes, key=lambda u: (deepest_parent(u), -u))
    mapping = {u: kept for u in nodes if u != kept}
    _redirect_edges(d, mapping)
    after = cost_report(d)
    return after.total - before.total


@dataclass
class DeleteBound:
    """Predicted cost-delta interval for one redundant-node deletion.

    Geometry around the deleted node N at level l with child C at level l+k:
    ``g`` holds l minus each parent level, ``j`` each parent's other-child
    level offset (None when the parent is itself redundant), ``h`` each
    parent's own deepest-parent offset (None for a root), ``q`` the offset of
    C's deepest other parent (None when N is C's only parent) and ``z`` the
    offset of C's shallowest child (None when C is a terminal).
    """

    lower: int
    upper: int
    r: int
    k: int
    min_g: int
    g: tuple[int, ...]
    j: tuple[int | None, ...]
    h: tuple[int | None, ...]
    q: int | None
    z: int | None

    def contains(self, delta: int) -> bool:
        return self.lower <= delta <= self.upper


def check_delete_delta(d: Diagram, u: int) -> tuple[int, DeleteBound]:
    """Delete one redundant node in place; return (cost delta, predicted bound).

    The bound is the closed interval [-(min g + k + 1), k(r - 1) + 1] in the
    local geometry captured by :class:`DeleteBound`.  Requires the node to
    have at least one parent (deleting a redundant root has no surrounding
    geometry to predict from).  Mutates the diagram.
    """
    store = d.store
    if is_terminal(u):
        raise ValueError("terminals cannot be deleted")
    node = store.node(u)
    if node.lo != node.hi:
        raise ValueError(f"node {u} is not redundant")
    parents = parent_map(d)
    ps = parents.get(u, [])
    if not ps:
        raise ValueError("deletion delta is only defined for nodes with parents")

    l = node.index
    child = node.lo
    k = store.level(child) - l
    g = tuple(l - store.level(p) for p in ps)
    j = []
    h = []
    for p in ps:
        pn = store.node(p)
        other = pn.hi if pn.lo == u else pn.lo
        j.append(None if other == u else store.level(other) - store.level(p))
        p_parents = [store.level(x) for x in parents.get(p, [])]
        h.append(store.level(p) - max(p_parents) if p_parents else None)
    other_parent_levels = [store.level(p) for p in parents.get(child, []) if p != u]
    q = (l + k) - max(other_parent_levels) if other_parent_levels else None
    if is_terminal(child):
        z = None
    else:
        cn = store.node(child)
        z = min(store.level(cn.lo), store.level(cn.hi)) - (l + k)

    r = len(ps)
    bound = DeleteBound(
        lower=-(min(g) + k + 1),
        upper=k * (r - 1) + 1,
        r=r, k=k, min_g=min(g), g=g, j=tuple(j), h=tuple(h), q=q, z=z,
    )
    before = cost_report(d)
    _redirect_edges(d, {u: child})
    after = cost_report(d)
    return after.total - before.total, bound
