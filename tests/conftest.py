"""Shared fixtures: small hand-built diagrams and random generators."""

from __future__ import annotations

import random

import pytest

import resilient_obdd as ro
from resilient_obdd.core import Diagram, DiagramStore, Mode


def build_wide_range_example():
    """Reduced 5-variable diagram whose node c has recovery range [1, 3].

    Two nodes (c and e) share the same child pair on different levels, so
    index recovery by table probing has to reject a same-key node on a wrong
    level before finding the right one.
    """
    store, table = ro.new_consed_store(5)
    f = ro.mk_node(store, table, 4, ro.TERM1, ro.TERM0)
    e = ro.mk_node(store, table, 3, ro.TERM0, f)
    d = ro.mk_node(store, table, 2, e, ro.TERM1)
    c = ro.mk_node(store, table, 1, ro.TERM0, f)
    b = ro.mk_node(store, table, 1, d, e)
    a = ro.mk_node(store, table, 0, b, c)
    names = {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f}
    return ro.Diagram(store, a), table, names


def build_vector_example(bucket_count: int = 4096):
    """Ten-entry diagram used for the positional edge-recovery bounds."""
    store, table = ro.new_consed_store(5, bucket_count=bucket_count)
    T0, T1 = ro.TERM0, ro.TERM1
    e = ro.mk_node(store, table, 4, T1, T0)
    d = ro.mk_node(store, table, 3, T1, e)
    c = ro.mk_node(store, table, 2, T1, d)
    g = ro.mk_node(store, table, 3, T1, T0)
    f = ro.mk_node(store, table, 2, d, g)
    b = ro.mk_node(store, table, 1, c, f)
    h = ro.mk_node(store, table, 1, f, g)
    a = ro.mk_node(store, table, 0, b, h)
    names = {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f, "g": g, "h": h}
    return ro.Diagram(store, a), table, names


@pytest.fixture
def wide_range_example():
    return build_wide_range_example()


@pytest.fixture
def vector_example():
    return build_vector_example()


def parity_bits(n: int) -> list[int]:
    return [bin(k).count("1") & 1 for k in range(1 << n)]


def parity_diagram(n: int) -> Diagram:
    return ro.from_truth_table(n, parity_bits(n))


def random_bits(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(0, 1) for _ in range(1 << n)]


def random_reduced(rng: random.Random, n: int) -> Diagram:
    return ro.from_truth_table(n, random_bits(rng, n))


def random_raw_diagram(rng: random.Random, n: int, width: int = 4,
                       dup_rate: float = 0.25, red_rate: float = 0.35) -> Diagram:
    """Random raw diagram seeded with duplicate triples and redundant nodes.

    Built bottom-up level by level.  Children come mostly from the level just
    below, so most planted nodes stay reachable from the level-0 root; the
    delta campaigns filter by reachability anyway.
    """
    store = DiagramStore(n, Mode.KEEP_REDUNDANT)
    deeper: list[int] = [ro.TERM0, ro.TERM1]
    previous: list[int] = [ro.TERM0, ro.TERM1]
    for level in range(n - 1, 0, -1):
        made: list[int] = []
        for _ in range(rng.randint(2, width)):
            roll = rng.random()
            if made and roll < dup_rate:
                src = store.node(rng.choice(made))
                u = store.add_raw(level, src.lo, src.hi)
            elif roll < dup_rate + red_rate:
                child = rng.choice(previous)
                u = store.add_raw(level, child, child)
            else:
                u = store.add_raw(level, rng.choice(previous), rng.choice(deeper))
            made.append(u)
        deeper = deeper + made
        previous = made
    root = store.add_raw(0, rng.choice(previous), rng.choice(previous))
    return Diagram(store, root)


def upward_edge_diagram() -> Diagram:
    """A reduced 6-variable diagram whose root's 0-child has its 0-edge
    pointed back at the root, as an edge fault can leave it."""
    d = ro.from_cubes(6, ["1-0-1-", "01--10"])
    d.store.node(d.store.node(d.root).lo).lo = d.root
    return d


def random_expression(rng: random.Random, n: int, leaves: int = 3):
    """A random binary-op tree over the variables, as (op-tree, truth table).

    The truth table is computed directly from the tree, independently of any
    diagram machinery, so it can serve as the second construction route.
    """
    ops = (ro.AND, ro.OR, ro.XOR, ro.NAND, ro.XNOR)

    def gen(k: int):
        if k == 1:
            return rng.randrange(n)
        split = rng.randint(1, k - 1)
        return (rng.choice(ops), gen(split), gen(k - split))

    tree = gen(leaves)

    def value(node, assignment) -> int:
        if isinstance(node, int):
            return assignment[node]
        op, left, right = node
        return op(value(left, assignment), value(right, assignment))

    table = [value(tree, a) for a in ro.core.assignments(n)]
    return tree, table
