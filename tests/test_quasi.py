"""Quasi-reduction, chain padding and the hash-free duplicate merge."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import resilient_obdd as ro

from conftest import (
    parity_diagram,
    random_bits,
    random_raw_diagram,
    random_reduced,
    upward_edge_diagram,
)


def every_edge_spans_one_level(d):
    for u in ro.dfs_preorder(d, include_terminals=False):
        node = d.store.node(u)
        for child in (node.lo, node.hi):
            if d.store.level(child) != node.index + 1:
                return False
    return True


def no_duplicate_triples(d):
    seen = set()
    for u in ro.dfs_preorder(d, include_terminals=False):
        t = d.store.node(u).triple()
        if t in seen:
            return False
        seen.add(t)
    return True


# ---------------------------------------------------------------------------
# quasi-reduction


def test_build_qr_structure_and_semantics():
    rng = random.Random(2)
    for n in (2, 4, 6):
        d = ro.from_truth_table(n, random_bits(rng, n))
        qr = ro.build_qr(d)
        assert every_edge_spans_one_level(qr)
        assert no_duplicate_triples(qr)
        assert qr.store.level(qr.root) == 0 or ro.is_terminal(qr.root)
        assert ro.truth_table(qr) == ro.truth_table(d)


def test_build_qr_parity_sizes():
    # derived: parity needs every node, so qr adds nothing beyond the chain
    assert ro.count_nodes(ro.build_qr(parity_diagram(3))) == 5
    # derived: a single variable function x0 over 4 vars pads a full chain
    store, table = ro.new_consed_store(4)
    top = ro.mk_node(store, table, 0, ro.TERM0, ro.TERM1)
    qr = ro.build_qr(ro.Diagram(store, top))
    assert ro.count_nodes(qr) == 7  # 1 + two chains of 3
    assert ro.truth_table(qr) == ro.truth_table(ro.Diagram(store, top))


def test_build_qr_of_constant_spans_all_levels():
    store = ro.DiagramStore(3)
    qr = ro.build_qr(ro.Diagram(store, ro.TERM1))
    # derived: one redundant node per level
    assert ro.count_nodes(qr) == 3
    assert every_edge_spans_one_level(qr)
    assert all(v == 1 for v in ro.truth_table(qr))


def test_build_qr_idempotent():
    rng = random.Random(8)
    d = random_reduced(rng, 5)
    qr = ro.build_qr(d)
    again = ro.build_qr(qr)
    assert ro.isomorphic(qr, again)


# ---------------------------------------------------------------------------
# chain padding


def test_pad_chains_fills_long_edges(wide_range_example):
    d, _, _ = wide_range_example
    padded = ro.pad_chains(d)
    assert every_edge_spans_one_level(padded)
    assert ro.truth_table(padded) == ro.truth_table(d)
    # padding never removes nodes
    assert ro.count_nodes(padded) >= ro.count_nodes(d)


def test_pad_chains_pads_above_the_root():
    store, table = ro.new_consed_store(3)
    u = ro.mk_node(store, table, 2, ro.TERM0, ro.TERM1)
    padded = ro.pad_chains(ro.Diagram(store, u))
    assert padded.store.level(padded.root) == 0
    assert every_edge_spans_one_level(padded)
    assert ro.count_nodes(padded) == 3


def test_pad_then_merge_equals_quasi_reduce():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randrange(2, 7)
        d = random_reduced(rng, n)
        via_pad = ro.merge_quadratic(ro.pad_chains(d))
        assert ro.isomorphic(via_pad, ro.build_qr(d))


# ---------------------------------------------------------------------------
# hash-free merge


def test_merge_quadratic_removes_planted_duplicates():
    store = ro.DiagramStore(3, ro.Mode.KEEP_REDUNDANT)
    a1 = store.add_raw(2, ro.TERM0, ro.TERM1)
    a2 = store.add_raw(2, ro.TERM0, ro.TERM1)  # duplicate triple
    b = store.add_raw(1, a1, a2)
    root = store.add_raw(0, b, b)
    d = ro.Diagram(store, root)
    merged = ro.merge_quadratic(d)
    assert no_duplicate_triples(merged)
    assert ro.truth_table(merged) == ro.truth_table(d)
    assert ro.count_nodes(merged) == ro.count_nodes(d) - 1


def test_merge_quadratic_cascades_upward():
    # two parents that become duplicates only after their children merge
    store = ro.DiagramStore(2, ro.Mode.KEEP_REDUNDANT)
    c1 = store.add_raw(1, ro.TERM1, ro.TERM0)
    c2 = store.add_raw(1, ro.TERM1, ro.TERM0)
    p1 = store.add_raw(0, c1, ro.TERM1)
    p2 = store.add_raw(0, c2, ro.TERM1)
    # a fake forest root keeps both parents reachable
    d = ro.Diagram(store, p1)
    merged = ro.merge_quadratic(d)
    assert ro.count_nodes(merged) == 2
    assert ro.truth_table(merged) == ro.truth_table(d)
    del p2


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.randoms(use_true_random=False))
def test_merge_quadratic_on_random_raw_diagrams(n, pyrandom):
    rng = random.Random(pyrandom.randrange(1 << 30))
    d = random_raw_diagram(rng, n)
    merged = ro.merge_quadratic(d)
    assert no_duplicate_triples(merged)
    assert ro.truth_table(merged) == ro.truth_table(d)
    # deletion rule untouched: merge only ever removes duplicate triples
    assert ro.count_nodes(merged) <= ro.count_nodes(d)


def test_merge_quadratic_keeps_redundant_nodes():
    store = ro.DiagramStore(2, ro.Mode.KEEP_REDUNDANT)
    b = store.add_raw(1, ro.TERM0, ro.TERM1)
    red = store.add_raw(0, b, b)
    merged = ro.merge_quadratic(ro.Diagram(store, red))
    # the redundant root survives: merging is not reduction
    node = merged.store.node(merged.root)
    assert node.lo == node.hi
    assert ro.count_nodes(merged) == 2


def test_build_qr_refuses_an_edge_pointing_up():
    with pytest.raises(ro.ContractError):
        ro.build_qr(upward_edge_diagram())
