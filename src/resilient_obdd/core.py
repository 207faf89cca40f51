"""Core storage and construction for ordered binary decision diagrams.

Nodes live in an append-only arena owned by a :class:`DiagramStore`.  A node
is a mutable triple (index, lo, hi): the variable index it tests, the child
followed when the variable is 0 and the child followed when it is 1.  The two
terminals are the reserved ids ``TERM0`` and ``TERM1``; they are not arena
entries and, for level arithmetic, sit on the pseudo-level ``n`` below every
variable.

Two construction modes exist.  ``Mode.ROBDD`` applies both classic reduction
rules while hash-consing (never build a node with equal children, never
duplicate a triple), yielding fully reduced diagrams.  ``Mode.KEEP_REDUNDANT``
applies only the duplicate-triple rule, which is what quasi-reduced and
index-resilient forms need: nodes with equal children are kept.

Hash-consing goes through a :class:`UniqueTable`: one subtable per variable
level, each an array of collision buckets keyed by a 64-bit FNV-1a hash of the
two child ids.  The recovery procedures in the sibling modules probe these
buckets directly, so the bucket layout is part of the contract, not an
implementation detail.

Stores are meant for single-threaded use: build a diagram, then treat it as
read-only (the fault-injection helpers are the one sanctioned exception).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import partial

TERM0 = 0
TERM1 = 1
_FIRST_ID = 2

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class BddError(Exception):
    """Base class for diagram errors."""


class OrderingError(BddError):
    """A node would test a variable at or below one of its children."""


class ContractError(BddError):
    """A structural precondition of an operation does not hold."""


class Mode(Enum):
    ROBDD = "robdd"
    KEEP_REDUNDANT = "keep-redundant"


def fnv1a_pair(lo: int, hi: int) -> int:
    """64-bit FNV-1a over the two child ids, fed as 8 little-endian bytes each."""
    h = _FNV_OFFSET
    for word in (lo, hi):
        for _ in range(8):
            h ^= word & 0xFF
            h = (h * _FNV_PRIME) & _MASK64
            word >>= 8
    return h


def is_terminal(u: int) -> bool:
    return u < _FIRST_ID


def terminal(bit: int) -> int:
    return TERM1 if bit else TERM0


class Node:
    """One arena entry.  Mutable so that faults can be injected and repaired."""

    __slots__ = ("index", "lo", "hi")

    def __init__(self, index: int, lo: int, hi: int):
        self.index = index
        self.lo = lo
        self.hi = hi

    def triple(self) -> tuple[int, int, int]:
        return (self.index, self.lo, self.hi)

    def __repr__(self):
        return f"Node(index={self.index}, lo={self.lo}, hi={self.hi})"


class DiagramStore:
    """Append-only node arena over ``n`` ordered variables.

    Ids are dense integers starting at 2 (0 and 1 are the terminals) and are
    never reused.  ``table`` points at the unique table that hash-conses this
    store, when one exists; raw stores built by the table-free pipeline leave
    it as None.
    """

    def __init__(self, n: int, mode: Mode = Mode.ROBDD):
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        self.n = n
        self.mode = mode
        self._nodes: list[Node] = []
        self.table: UniqueTable | None = None

    def add_raw(self, index: int, lo: int, hi: int) -> int:
        """Append a node without consulting any unique table.

        Used by the error-resilient pipeline, which must not depend on hash
        structures.  The ordering property is still enforced.
        """
        self._check_ordering(index, lo, hi)
        return self._append(index, lo, hi)

    def _append(self, index: int, lo: int, hi: int) -> int:
        self._nodes.append(Node(index, lo, hi))
        return len(self._nodes) + _FIRST_ID - 1

    def _check_ordering(self, index: int, lo: int, hi: int):
        if not 0 <= index < self.n:
            raise OrderingError(f"variable index {index} out of range [0, {self.n})")
        if index >= self.level(lo) or index >= self.level(hi):
            raise OrderingError(
                f"node at level {index} would have children at levels "
                f"{self.level(lo)} and {self.level(hi)}"
            )

    def node(self, u: int) -> Node:
        if is_terminal(u):
            raise ValueError(f"id {u} is a terminal, not an arena node")
        return self._nodes[u - _FIRST_ID]

    def level(self, u: int) -> int:
        """Variable index of u, with terminals on pseudo-level n."""
        if is_terminal(u):
            return self.n
        return self._nodes[u - _FIRST_ID].index

    def ids(self) -> range:
        """All arena ids, including any that became unreachable."""
        return range(_FIRST_ID, len(self._nodes) + _FIRST_ID)

    def next_id(self) -> int:
        return len(self._nodes) + _FIRST_ID

    def __len__(self):
        return len(self._nodes)


@dataclass(frozen=True)
class Diagram:
    """A root id paired with the store that owns it."""

    store: DiagramStore
    root: int

    @property
    def n(self) -> int:
        return self.store.n


class UniqueTable:
    """Per-level hash subtables used for consing and for recovery probes.

    Each level owns ``bucket_count`` collision lists; a node with children
    (lo, hi) lives in bucket ``fnv1a_pair(lo, hi) % bucket_count`` of the
    subtable of its own level, exactly once.  Recovery code walks buckets
    looking for a node's id; construction code walks them comparing keys.
    A bucket's list is created by its first insert, so a table costs memory
    for the buckets in use, not for n times ``bucket_count``.
    """

    def __init__(self, n: int, bucket_count: int = 256):
        if bucket_count < 1:
            raise ValueError("bucket_count must be positive")
        self.n = n
        self.bucket_count = bucket_count
        self._buckets: dict[tuple[int, int], list[int]] = {}

    def bucket_index(self, lo: int, hi: int) -> int:
        return fnv1a_pair(lo, hi) % self.bucket_count

    def _slot(self, index: int, lo: int, hi: int) -> tuple[int, int]:
        """(level, bucket index) of the collision list the key (lo, hi) selects."""
        return index, self.bucket_index(lo, hi)

    def _bucket(self, index: int, lo: int, hi: int) -> list[int]:
        """The collision list the key (lo, hi) selects at this level, created
        on first use."""
        return self._buckets.setdefault(self._slot(index, lo, hi), [])

    def insert(self, store: DiagramStore, index: int, u: int):
        node = store.node(u)
        self._bucket(index, node.lo, node.hi).append(u)

    def remove(self, store: DiagramStore, index: int, u: int):
        node = store.node(u)
        self._buckets[self._slot(index, node.lo, node.hi)].remove(u)

    def contains_id(self, index: int, lo: int, hi: int, u: int) -> bool:
        """Identity probe: does the bucket for (lo, hi) at this level hold u?

        This is the primitive the index- and edge-recovery procedures use.
        It deliberately compares ids, not keys: a probe with a wrong key can
        still find u if that key collides into u's bucket.
        """
        return self.bucket_holds(index, self.bucket_index(lo, hi), u)

    def bucket_holds(self, index: int, bucket: int, u: int) -> bool:
        """Identity probe by bucket index, for probing one key on several
        levels with one hash."""
        return u in self._buckets.get((index, bucket), ())


def mk_node(store: DiagramStore, table: UniqueTable, index: int, lo: int, hi: int) -> int:
    """Hash-consing constructor.

    In ROBDD mode a node with equal children is never built (the child is
    returned instead); in both modes an existing node with the same triple is
    reused.  Each call checks the ordering once, hashes the key once and
    walks the one bucket it selects, which a new node is appended to.
    """
    if store.mode is Mode.ROBDD and lo == hi:
        return lo
    store._check_ordering(index, lo, hi)
    bucket = table._bucket(index, lo, hi)
    nodes = store._nodes
    for u in bucket:
        node = nodes[u - _FIRST_ID]
        if node.lo == lo and node.hi == hi:
            return u
    u = store._append(index, lo, hi)
    bucket.append(u)
    return u


def new_consed_store(n: int, mode: Mode = Mode.ROBDD, bucket_count: int = 256):
    """A fresh (store, table) pair wired together."""
    store = DiagramStore(n, mode)
    table = UniqueTable(n, bucket_count)
    store.table = table
    return store, table


# ---------------------------------------------------------------------------
# the one rebuild walk


def rebuild(root, leaf, split, join, memo=None):
    """Memoized post-order rebuild over keys, with an explicit stack.

    Every transform in the package is a function of this shape: a key (a
    node id, an id pair, a level and cube set) either is a leaf with a known
    result or splits into a 0-side key and a 1-side key whose results are
    joined.  For each key visited: ``leaf(key)`` gives its result or None;
    then ``memo.get(key)`` is tried; on a miss ``split(key)`` gives
    ``(label, key0, key1)``, the 0-side is finished before the 1-side is
    looked at, ``join(label, result0, result1)`` gives the result and
    ``memo[key] = result`` stores it.  That is the order a recursive
    function would take, so arena ids, memo counters and seeded fault draws
    are what such a function gives.  Depth is bounded by memory, not by the
    interpreter's recursion limit.  Results must not be None.  Internal to
    the package.

    A key that is its own descendant (an edge fault can point a node back at
    an ancestor) would grow the stack without end; each time the depth
    doubles past 1024 the stack is checked for a repeated key, and one
    raises :class:`ContractError`.
    """
    stack: list[list] = []  # [key, label, key1, result0 or None]
    check_depth = 1024
    key = root
    while True:
        result = leaf(key)
        if result is None and memo is not None:
            result = memo.get(key)
        if result is None:
            label, key0, key1 = split(key)
            stack.append([key, label, key1, None])
            if len(stack) > check_depth:
                if len({frame[0] for frame in stack}) < len(stack):
                    raise ContractError(f"key {key!r} is its own descendant")
                check_depth *= 2
            key = key0
            continue
        while stack:
            frame = stack[-1]
            if frame[3] is None:  # the 0-side just finished: start the 1-side
                frame[3] = result
                key = frame[2]
                break
            stack.pop()
            result = join(frame[1], frame[3], result)
            if memo is not None:
                memo[frame[0]] = result
        else:
            return result


def terminal_leaf(u: int) -> int | None:
    """Leaf rule for walks over node ids: terminals map to themselves."""
    return u if u < _FIRST_ID else None


# ---------------------------------------------------------------------------
# evaluation

# Node truth tables cover at most this many of the bottom variables, so one
# node costs at most 2^BLOCK_VARS bits (2 KiB); see truth_bits.
BLOCK_VARS = 14


def evaluate(d: Diagram, assignment) -> int:
    """Follow the path selected by the assignment; returns 0 or 1.

    Raises :class:`ContractError` when the variable index along the path
    does not strictly increase (an edge fault can point a node back up).
    """
    if len(assignment) != d.n:
        raise ValueError(f"assignment has {len(assignment)} values, diagram has {d.n} variables")
    u = d.root
    last = -1
    while not is_terminal(u):
        node = d.store.node(u)
        if node.index <= last:
            raise ContractError(f"node {u} at level {node.index} is below level {last} on its path")
        last = node.index
        u = node.hi if assignment[node.index] else node.lo
    return u


def assignments(n: int):
    """All 2^n assignments in lexicographic order (variable 0 first)."""
    return itertools.product((0, 1), repeat=n)


def variable_masks(n: int) -> list[int]:
    """Per variable, the 2^n-bit int whose bit k is that variable's value on
    assignment k (variable 0 is the most significant bit of k)."""
    masks = []
    for i in range(n):
        run = 1 << (n - 1 - i)
        mask, width = ((1 << run) - 1) << run, 2 * run
        while width < 1 << n:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return masks


def truth_bits(d: Diagram) -> int:
    """The truth table as one int: bit k is the value on assignment k.

    Each node on the bottom ``min(n, BLOCK_VARS)`` levels gets the table of
    its function over those variables, bottom-up as ``lo & ~m | hi & m``
    with ``m`` its variable's mask.  For each setting of the variables above,
    the path from the root is followed down into that block and the
    memoized table of the node it reaches fills that setting's slice.
    Memory is the result's 2^n bits plus at most 2^BLOCK_VARS bits per node.
    Raises :class:`ContractError` on an edge that does not point strictly
    down, where :func:`evaluate` would raise on some assignment.
    """
    n, store = d.n, d.store
    width = min(n, BLOCK_VARS)
    top = n - width
    masks = variable_masks(width)
    full = (1 << (1 << width)) - 1

    def leaf(u):
        return (full if u == TERM1 else 0) if is_terminal(u) else None

    def split(u):
        node = store.node(u)
        if min(store.level(node.lo), store.level(node.hi)) <= node.index:
            raise ContractError(f"node {u} at level {node.index} has an edge that does not point down")
        return masks[node.index - top], node.lo, node.hi

    def join(mask, lo, hi):
        return lo & ~mask | hi & mask

    memo: dict[int, int] = {}
    bits = 0
    for prefix in range(1 << top):
        u = d.root
        last = -1
        while not is_terminal(u) and (node := store.node(u)).index < top:
            if node.index <= last:
                raise ContractError(f"node {u} at level {node.index} is below level {last} on its path")
            last = node.index
            u = node.hi if prefix >> (top - 1 - node.index) & 1 else node.lo
        bits |= rebuild(u, leaf, split, join, memo) << (prefix << width)
    return bits


def truth_table(d: Diagram) -> list[int]:
    """The 2^n function values, indexed with variable 0 as the top bit."""
    return list(map(int, reversed(format(truth_bits(d), f"0{1 << d.n}b"))))


# ---------------------------------------------------------------------------
# construction


def from_truth_table(n: int, bits, mode: Mode = Mode.ROBDD) -> Diagram:
    """Build a diagram from the complete table of 2^n function values.

    ``bits[k]`` is the value on the assignment whose binary expansion is k
    with variable 0 as the most significant bit.
    """
    bits = list(bits)
    if len(bits) != 1 << n:
        raise ValueError(f"expected {1 << n} values, got {len(bits)}")
    store, table = new_consed_store(n, mode)

    def leaf(key):
        i, base = key
        return terminal(bits[base]) if i == n else None

    def split(key):
        i, base = key
        return i, (i + 1, base), (i + 1, base + (1 << (n - 1 - i)))

    return Diagram(store, rebuild((0, 0), leaf, split, partial(mk_node, store, table)))


def _cube_ok(cube: str, n: int, what: str):
    if len(cube) != n:
        raise ValueError(f"{what} cube {cube!r} has length {len(cube)}, expected {n}")
    bad = set(cube) - {"0", "1", "-"}
    if bad:
        raise ValueError(f"{what} cube {cube!r} contains invalid characters {sorted(bad)}")


def matches_cube(cube: str, assignment) -> bool:
    return all(c == "-" or int(c) == a for c, a in zip(cube, assignment))


def from_cubes(n: int, onset, dcset=(), dc_value: int = 0,
               mode: Mode = Mode.ROBDD) -> Diagram:
    """Build the function "1 iff the assignment matches an ON-set cube".

    Assignments matching only don't-care cubes take ``dc_value``.  The build
    expands the complete decision-tree semantics, hash-consed level by level,
    with memoization on the level and the surviving ON and DC cube sets so
    shared subtrees are built once.  A cube set is an int bitmask over cube
    positions, and a branch clears the bits of the cubes it drops, from
    masks made once per level.
    """
    onset = list(onset)
    dcset = list(dcset)
    for c in onset:
        _cube_ok(c, n, "onset")
    for c in dcset:
        _cube_ok(c, n, "dcset")
    if dc_value not in (0, 1):
        raise ValueError("dc_value must be 0 or 1")
    store, table = new_consed_store(n, mode)

    def leaf(key):
        i, on, dc = key
        if i < n:
            return None
        if on:
            return TERM1
        return terminal(dc_value) if dc else TERM0

    def keep_masks(cubes):
        # per level, the cubes that survive x_i = 0 and x_i = 1: a cube
        # survives the branch x_i = b unless it requires x_i = not b
        every = (1 << len(cubes)) - 1
        drop0, drop1 = [0] * n, [0] * n
        for k, cube in enumerate(cubes):
            for i, c in enumerate(cube):
                if c == "1":
                    drop0[i] |= 1 << k
                elif c == "0":
                    drop1[i] |= 1 << k
        return ([every & ~m for m in drop0], [every & ~m for m in drop1], every)

    on0, on1, on_all = keep_masks(onset)
    dc0, dc1, dc_all = keep_masks(dcset)

    def split(key):
        i, on, dc = key
        return i, (i + 1, on & on0[i], dc & dc0[i]), (i + 1, on & on1[i], dc & dc1[i])

    root = rebuild((0, on_all, dc_all), leaf, split, partial(mk_node, store, table), {})
    return Diagram(store, root)


# ---------------------------------------------------------------------------
# transforms


def reduce_robdd(d: Diagram) -> Diagram:
    """Rebuild into a fresh fully reduced store; canonical for the function."""
    store, table = new_consed_store(d.n, Mode.ROBDD)
    root = rebuild(d.root, terminal_leaf, lambda u: d.store.node(u).triple(),
                   partial(mk_node, store, table), {})
    return Diagram(store, root)


def restrict(d: Diagram, var: int, value: int) -> Diagram:
    """Cofactor: fix one variable, keep the variable count unchanged."""
    if not 0 <= var < d.n:
        raise ValueError(f"variable {var} out of range [0, {d.n})")
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    store, table = new_consed_store(d.n, Mode.ROBDD)

    def split(u):
        node = d.store.node(u)
        if node.index == var:
            kept = node.hi if value else node.lo
            return None, kept, kept  # the 1-side is a memo hit or a terminal
        return node.triple()

    def join(index, lo, hi):
        return lo if index is None else mk_node(store, table, index, lo, hi)

    return Diagram(store, rebuild(d.root, terminal_leaf, split, join, {}))


def negate(d: Diagram) -> Diagram:
    """Structure-preserving copy with the two terminals swapped."""
    store = DiagramStore(d.n, d.store.mode)

    def leaf(u):
        return (TERM1 if u == TERM0 else TERM0) if is_terminal(u) else None

    root = rebuild(d.root, leaf, lambda u: d.store.node(u).triple(), store.add_raw, {})
    return Diagram(store, root)


# ---------------------------------------------------------------------------
# inspection


def dfs_preorder(d: Diagram, include_terminals: bool = True) -> list[int]:
    """Depth-first preorder from the root, 0-edge before 1-edge, each id once."""
    order: list[int] = []
    seen: set[int] = set()
    stack = [d.root]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        if is_terminal(u):
            if include_terminals:
                order.append(u)
            continue
        order.append(u)
        node = d.store.node(u)
        stack.append(node.hi)  # popped after the whole 0-side
        stack.append(node.lo)
    return order


def count_nodes(d: Diagram) -> int:
    """Number of internal nodes reachable from the root."""
    return len(dfs_preorder(d, include_terminals=False))


def isomorphic(a: Diagram, b: Diagram) -> bool:
    """Structural equality up to arena numbering (simultaneous DFS).

    Walks its own stack of id pairs rather than :func:`rebuild`, because it
    stops at the first mismatch.
    """
    if a.n != b.n:
        return False
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    stack = [(a.root, b.root)]
    while stack:
        u, v = stack.pop()
        if is_terminal(u) or is_terminal(v):
            if u != v:
                return False
            continue
        if u in fwd:
            if fwd[u] != v:
                return False
            continue
        if v in bwd:
            return False
        na, nb = a.store.node(u), b.store.node(v)
        if na.index != nb.index:
            return False
        fwd[u] = v
        bwd[v] = u
        stack.append((na.hi, nb.hi))
        stack.append((na.lo, nb.lo))
    return True


def export_dot(d: Diagram, name: str = "bdd") -> str:
    """GraphViz text: dashed 0-edges, solid 1-edges, boxed terminals,
    one rank per variable level."""
    order = dfs_preorder(d, include_terminals=True)
    lines = [f"digraph {name} {{"]
    by_level: dict[int, list[int]] = {}
    for u in order:
        if not is_terminal(u):
            by_level.setdefault(d.store.level(u), []).append(u)
    for level in sorted(by_level):
        members = "; ".join(f'n{u} [label="x{level}"]' for u in by_level[level])
        lines.append(f"  {{ rank=same; {members}; }}")
    for u in order:
        if is_terminal(u):
            lines.append(f'  n{u} [shape=box, label="{u}"];')
    for u in order:
        if is_terminal(u):
            continue
        node = d.store.node(u)
        lines.append(f"  n{u} -> n{node.lo} [style=dashed];")
        lines.append(f"  n{u} -> n{node.hi} [style=solid];")
    lines.append("}")
    return "\n".join(lines) + "\n"
