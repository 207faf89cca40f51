"""Output checks that do not go through the code they check.

Everything here reads diagrams only through ``store.node(u)`` fields and
recomputes semantics straight from the cube lists, so a defect in the
package's own evaluation, counting or isomorphism code cannot hide a wrong
result.  All walks are iterative.
"""

from __future__ import annotations

import random

TERMINALS = (0, 1)


def reachable(d) -> list[int]:
    """Internal nodes reachable from the root, DFS preorder, 0-edge first."""
    order, seen, stack = [], set(), [d.root]
    while stack:
        u = stack.pop()
        if u in TERMINALS or u in seen:
            continue
        seen.add(u)
        order.append(u)
        node = d.store.node(u)
        stack.append(node.hi)
        stack.append(node.lo)
    return order


def shape(d) -> tuple:
    """The diagram up to node numbering: the root's preorder position, then
    for each reachable node in DFS preorder its level and its children's
    positions (terminals as -1 and -2).  Two diagrams have the same shape
    exactly when they are isomorphic."""
    order = reachable(d)
    position = {u: k for k, u in enumerate(order)}
    position.update({0: -1, 1: -2})
    nodes = map(d.store.node, order)
    return (position[d.root],
            *((node.index, position[node.lo], position[node.hi]) for node in nodes))


def postorder(d) -> list[int]:
    """Internal nodes reachable from the root, every child before its parents."""
    order, seen, stack = [], set(), [(d.root, False)]
    while stack:
        u, children_done = stack.pop()
        if children_done:
            order.append(u)
        elif u not in TERMINALS and u not in seen:
            seen.add(u)
            node = d.store.node(u)
            stack += [(u, True), (node.hi, False), (node.lo, False)]
    return order


def evaluate(d, assignment) -> int:
    u = d.root
    while u not in TERMINALS:
        node = d.store.node(u)
        u = node.hi if assignment[node.index] else node.lo
    return u


def cube_value(onset, dcset, dc_value: int, assignment) -> int:
    def hit(cube):
        return all(c == "-" or int(c) == a for c, a in zip(cube, assignment))

    if any(hit(c) for c in onset):
        return 1
    return dc_value if any(hit(c) for c in dcset) else 0


def variable_masks(n: int) -> list[int]:
    """Bit k of mask i is variable i's value in assignment k (variable 0 = MSB)."""
    masks = []
    for i in range(n):
        half = 1 << (n - 1 - i)
        mask, length = ((1 << half) - 1) << half, 2 * half
        while length < 1 << n:
            mask |= mask << length
            length *= 2
        masks.append(mask)
    return masks


def cube_bits(cubes, masks: list[int], full: int) -> int:
    bits = 0
    for cube in cubes:
        term = full
        for c, m in zip(cube, masks):
            if c == "1":
                term &= m
            elif c == "0":
                term &= full ^ m
        bits |= term
    return bits


def function_bits(n: int, onset, dcset, dc_value: int) -> int:
    """Truth table of the PLA semantics as one 2^n-bit integer."""
    masks, full = variable_masks(n), (1 << (1 << n)) - 1
    on = cube_bits(onset, masks, full)
    return on | cube_bits(dcset, masks, full) if dc_value else on


def diagram_bits(d) -> int:
    """Truth table of a diagram, bottom-up over its reachable nodes."""
    masks, full = variable_masks(d.n), (1 << (1 << d.n)) - 1
    value = {0: 0, 1: full}
    for u in postorder(d):
        node = d.store.node(u)
        m = masks[node.index]
        value[u] = (value[node.lo] & (full ^ m)) | (value[node.hi] & m)
    return value[d.root]


def sample_assignments(n: int, onset, rng: random.Random, count: int = 32):
    """Random assignments plus one satisfying assignment per ON cube (up to 4)."""
    out = [[rng.randint(0, 1) for _ in range(n)] for _ in range(count)]
    for cube in onset[:4]:
        out.append([rng.randint(0, 1) if c == "-" else int(c) for c in cube])
    return out


def isomorphic(a, b) -> bool:
    """Same shape and levels up to node numbering."""
    if a.n != b.n:
        return False
    fwd, bwd, stack = {}, {}, [(a.root, b.root)]
    while stack:
        u, v = stack.pop()
        if u in TERMINALS or v in TERMINALS:
            if u != v:
                return False
            continue
        if u in fwd or v in bwd:
            if fwd.get(u) != v or bwd.get(v) != u:
                return False
            continue
        na, nb = a.store.node(u), b.store.node(v)
        if na.index != nb.index:
            return False
        fwd[u], bwd[v] = v, u
        stack.append((na.hi, nb.hi))
        stack.append((na.lo, nb.lo))
    return True
