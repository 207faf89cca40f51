"""Binary boolean operations over diagrams: memoized Apply and equivalence.

Apply walks pairs of nodes, one from each operand.  The node (or nodes)
testing the smaller variable index advances to its children while the other
side stands still; a terminal counts as testing a pseudo-variable below
everything, so it always stands still until both sides are terminal.  Results
are cached in a :class:`MemoTable` keyed by the id pair, which bounds the
number of distinct pairs expanded by the product of the operand sizes.

This is the standard table-backed variant: results are hash-consed into a
fresh fully reduced store.  The table-free, fault-tolerant variant lives in
:mod:`resilient_obdd.resilient`.
"""

from __future__ import annotations

from functools import partial

from .core import (
    Diagram,
    Mode,
    is_terminal,
    isomorphic,
    mk_node,
    new_consed_store,
    rebuild,
    reduce_robdd,
)


class BoolOp:
    """A binary operation given by its value on the four terminal pairs."""

    __slots__ = ("name", "_table")

    def __init__(self, name: str, f00: int, f01: int, f10: int, f11: int):
        self.name = name
        self._table = (f00, f01, f10, f11)

    def __call__(self, a: int, b: int) -> int:
        return self._table[2 * a + b]

    def __repr__(self):
        return f"BoolOp({self.name})"


AND = BoolOp("and", 0, 0, 0, 1)
OR = BoolOp("or", 0, 1, 1, 1)
XOR = BoolOp("xor", 0, 1, 1, 0)
NAND = BoolOp("nand", 1, 1, 1, 0)
NOR = BoolOp("nor", 1, 0, 0, 0)
XNOR = BoolOp("xnor", 1, 0, 0, 1)
IMPLIES = BoolOp("implies", 1, 1, 0, 1)

OPS = {op.name: op for op in (AND, OR, XOR, NAND, NOR, XNOR, IMPLIES)}


class MemoTable:
    """Result cache keyed by (left id, right id).

    Entries can be flagged as corrupted (the fault model assumes perfect
    detection); a flagged entry behaves as a miss and the next store clears
    the flag.  ``fault_rng``/``fault_rate`` let campaigns corrupt entries as
    they are inserted, which models faults striking mid-run while keeping
    runs reproducible.
    """

    def __init__(self, fault_rng=None, fault_rate: float = 0.0):
        self._map: dict[tuple[int, int], int] = {}
        self._corrupt: set[tuple[int, int]] = set()
        self._fault_rng = fault_rng
        self._fault_rate = fault_rate
        self.hits = 0
        self.misses = 0
        self.inserted = 0
        self.corrupted_total = 0
        self.lost_hits = 0

    def get(self, key) -> int | None:
        if key in self._corrupt:
            # detected fault: treat as absent, caller recomputes
            self.lost_hits += 1
            self.misses += 1
            return None
        value = self._map.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value: int):
        self._map[key] = value
        self._corrupt.discard(key)
        self.inserted += 1
        if self._fault_rng is not None and self._fault_rate > 0.0:
            if self._fault_rng.random() < self._fault_rate:
                self.mark_corrupt(key)

    __setitem__ = put  # lets :func:`~resilient_obdd.core.rebuild` store into it

    def mark_corrupt(self, key):
        self._corrupt.add(key)
        self.corrupted_total += 1

    def is_corrupt(self, key) -> bool:
        return key in self._corrupt


def terminal_pair(op: BoolOp, key) -> int | None:
    """Leaf rule for walks over id pairs: two terminals combine under op."""
    u, v = key
    return op(u, v) if is_terminal(u) and is_terminal(v) else None


def split_pair(f: Diagram, g: Diagram, key, lu: int, lv: int):
    """``(level, 0-side pair, 1-side pair)`` of an id pair whose operands sit
    on levels lu and lv: the side on the smaller level advances."""
    u, v = key
    i = min(lu, lv)
    if lu == i:
        nu = f.store.node(u)
        u0, u1 = nu.lo, nu.hi
    else:
        u0 = u1 = u
    if lv == i:
        nv = g.store.node(v)
        v0, v1 = nv.lo, nv.hi
    else:
        v0 = v1 = v
    return i, (u0, v0), (u1, v1)


def apply(op: BoolOp, f: Diagram, g: Diagram, memo: MemoTable | None = None) -> Diagram:
    """Combine two diagrams under a binary operation; result fully reduced.

    Passing an explicit ``memo`` exposes the cache counters to the caller.
    """
    if f.n != g.n:
        raise ValueError(f"operand variable counts differ: {f.n} != {g.n}")
    store, table = new_consed_store(f.n, Mode.ROBDD)
    if memo is None:
        memo = MemoTable()

    def split(key):
        return split_pair(f, g, key, f.store.level(key[0]), g.store.level(key[1]))

    root = rebuild((f.root, g.root), partial(terminal_pair, op), split,
                   partial(mk_node, store, table), memo)
    return Diagram(store, root)


def equivalent(f: Diagram, g: Diagram) -> bool:
    """Semantic equality, decided by comparing canonical reduced forms."""
    if f.n != g.n:
        raise ValueError(f"operand variable counts differ: {f.n} != {g.n}")
    return isomorphic(reduce_robdd(f), reduce_robdd(g))
