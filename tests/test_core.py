"""Store, unique table, construction and the basic transforms."""

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import resilient_obdd as ro
from resilient_obdd.core import Diagram, DiagramStore, Mode, assignments, rebuild

from conftest import parity_diagram, random_bits

# ---------------------------------------------------------------------------
# node construction rules


def test_mk_node_deletion_rule_in_robdd_mode():
    store, table = ro.new_consed_store(3)
    x2 = ro.mk_node(store, table, 2, ro.TERM0, ro.TERM1)
    assert ro.mk_node(store, table, 1, x2, x2) == x2


def test_mk_node_merge_rule_shares_triples():
    store, table = ro.new_consed_store(3)
    x2 = ro.mk_node(store, table, 2, ro.TERM0, ro.TERM1)
    u = ro.mk_node(store, table, 1, x2, ro.TERM1)
    v = ro.mk_node(store, table, 1, x2, ro.TERM1)
    assert u == v
    assert len(store) == 2


def test_keep_redundant_mode_builds_redundant_nodes():
    store, table = ro.new_consed_store(3, Mode.KEEP_REDUNDANT)
    x2 = ro.mk_node(store, table, 2, ro.TERM0, ro.TERM1)
    u = ro.mk_node(store, table, 1, x2, x2)
    assert u != x2
    node = store.node(u)
    assert node.lo == node.hi == x2
    # merge rule still applies to the redundant triple
    assert ro.mk_node(store, table, 1, x2, x2) == u


def test_ordering_violations_rejected():
    store, table = ro.new_consed_store(3)
    x1 = ro.mk_node(store, table, 1, ro.TERM0, ro.TERM1)
    with pytest.raises(ro.OrderingError):
        ro.mk_node(store, table, 1, x1, ro.TERM1)
    with pytest.raises(ro.OrderingError):
        ro.mk_node(store, table, 2, x1, ro.TERM0)
    for index, lo, hi in ((3, ro.TERM0, ro.TERM1), (1, x1, ro.TERM1), (2, ro.TERM0, x1)):
        with pytest.raises(ro.OrderingError):
            store.add_raw(index, lo, hi)
    assert len(store) == 1


def test_consing_hashes_the_key_once(monkeypatch):
    calls = []
    original = ro.core.fnv1a_pair

    def counted(lo, hi):
        calls.append((lo, hi))
        return original(lo, hi)

    monkeypatch.setattr(ro.core, "fnv1a_pair", counted)
    store, table = ro.new_consed_store(3)
    x2 = ro.mk_node(store, table, 2, ro.TERM0, ro.TERM1)
    assert calls == [(ro.TERM0, ro.TERM1)]
    assert ro.mk_node(store, table, 2, ro.TERM0, ro.TERM1) == x2  # found, not built
    assert calls == [(ro.TERM0, ro.TERM1)] * 2
    ro.mk_node(store, table, 1, x2, ro.TERM1)
    assert calls[2:] == [(x2, ro.TERM1)]
    assert ro.mk_node(store, table, 1, x2, x2) == x2  # deletion rule: no key to hash
    with pytest.raises(ro.OrderingError):  # refused before hashing
        ro.mk_node(store, table, 2, x2, ro.TERM1)
    assert len(calls) == 3
    assert len(store) == 2


def test_terminal_levels_and_accessors():
    store = DiagramStore(4)
    assert store.level(ro.TERM0) == 4
    assert store.level(ro.TERM1) == 4
    with pytest.raises(ValueError):
        store.node(ro.TERM1)


def test_ids_are_stable_and_never_reused():
    store = DiagramStore(3, Mode.KEEP_REDUNDANT)
    first = store.add_raw(2, ro.TERM0, ro.TERM1)
    second = store.add_raw(1, first, first)
    assert (first, second) == (2, 3)
    assert list(store.ids()) == [2, 3]


def test_unique_table_consistency_after_building():
    rng = random.Random(11)
    d = ro.from_truth_table(6, random_bits(rng, 6))
    table = d.store.table
    seen = set()
    size = len(d.store)
    for u in d.store.ids():
        node = d.store.node(u)
        assert ro.mk_node(d.store, table, node.index, node.lo, node.hi) == u
        assert node.triple() not in seen  # no duplicate triples in robdd mode
        seen.add(node.triple())
    assert len(d.store) == size  # consing a stored key found it


def test_fnv1a_pair_is_deterministic_and_spreads():
    a = ro.fnv1a_pair(0, 1)
    assert a == ro.fnv1a_pair(0, 1)
    assert a != ro.fnv1a_pair(1, 0)
    assert 0 <= a < 1 << 64


# ---------------------------------------------------------------------------
# evaluation and construction


def test_evaluate_paths_on_wide_range_example(wide_range_example):
    d, _, names = wide_range_example
    # the all-zero prefix path runs a, b, d, e into terminal 0
    assert ro.evaluate(d, (0, 0, 0, 0, 0)) == 0
    assert ro.evaluate(d, (0, 0, 0, 0, 1)) == 0
    # 1,1 prefix reaches f and terminal 1 on x4 = 0
    assert ro.evaluate(d, (1, 1, 0, 0, 0)) == 1
    assert ro.count_nodes(d) == 6


def test_evaluate_rejects_wrong_length(wide_range_example):
    d, _, _ = wide_range_example
    with pytest.raises(ValueError):
        ro.evaluate(d, (0, 1))


def test_from_truth_table_round_trip():
    rng = random.Random(3)
    for n in (1, 2, 5):
        bits = random_bits(rng, n)
        assert ro.truth_table(ro.from_truth_table(n, bits)) == bits


def test_parity_robdd_size():
    # derived: the reduced parity diagram keeps two nodes per middle level
    assert ro.count_nodes(parity_diagram(3)) == 5
    assert ro.count_nodes(parity_diagram(5)) == 9


def test_from_cubes_matches_cube_oracle():
    onset = ["1-0", "011"]
    dcset = ["110"]
    for dc_value in (0, 1):
        d = ro.from_cubes(3, onset, dcset, dc_value)
        for a in assignments(3):
            want = (1 if any(ro.matches_cube(c, a) for c in onset)
                    else dc_value if any(ro.matches_cube(c, a) for c in dcset)
                    else 0)
            assert ro.evaluate(d, a) == want


class RecordingMemo(dict):
    """A memo that logs every lookup and store, in order."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def get(self, key, default=None):
        self.log.append(("get", key))
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.log.append(("set", key))
        super().__setitem__(key, value)


def from_cubes_with_tuple_sets(n, onset, dcset, dc_value, mode, log):
    """``from_cubes`` as it was, carrying cube sets as tuples of positions."""
    store, table = ro.new_consed_store(n, mode)

    def leaf(key):
        i, on, dc = key
        if i < n:
            return None
        if on:
            return ro.TERM1
        return ro.terminal(dc_value) if dc else ro.TERM0

    def split(key):
        i, on, dc = key
        return (i,
                (i + 1, tuple(k for k in on if onset[k][i] != "1"),
                 tuple(k for k in dc if dcset[k][i] != "1")),
                (i + 1, tuple(k for k in on if onset[k][i] != "0"),
                 tuple(k for k in dc if dcset[k][i] != "0")))

    root = rebuild((0, tuple(range(len(onset))), tuple(range(len(dcset)))),
                   leaf, split, partial(ro.mk_node, store, table), RecordingMemo(log))
    return Diagram(store, root)


def test_from_cubes_bitmasks_match_tuple_sets(monkeypatch):
    log: list = []
    monkeypatch.setattr(ro.core, "rebuild", lambda root, leaf, split, join, memo:
                        rebuild(root, leaf, split, join, RecordingMemo(log)))
    rng = random.Random(41)

    def cubes(n, count):
        return ["".join(rng.choice("01---") for _ in range(n)) for _ in range(count)]

    def positions(mask, size):
        return tuple(k for k in range(size) if mask >> k & 1)

    for n in range(1, 13):
        for _ in range(4):
            onset, dcset = cubes(n, rng.randrange(9)), cubes(n, rng.randrange(4))
            for dc_value in (0, 1):
                for mode in Mode:
                    log.clear()
                    got = ro.from_cubes(n, onset, dcset, dc_value, mode)
                    got_keys = [(op, (i, positions(on, len(onset)), positions(dc, len(dcset))))
                                for op, (i, on, dc) in log]
                    want_keys: list = []
                    want = from_cubes_with_tuple_sets(n, onset, dcset, dc_value, mode, want_keys)
                    assert got_keys == want_keys
                    assert (got.root, [got.store.node(u).triple() for u in got.store.ids()]) \
                        == (want.root, [want.store.node(u).triple() for u in want.store.ids()])


def test_from_cubes_validates_input():
    with pytest.raises(ValueError):
        ro.from_cubes(3, ["10"])  # wrong width
    with pytest.raises(ValueError):
        ro.from_cubes(3, ["1x0"])  # bad character
    with pytest.raises(ValueError):
        ro.from_cubes(3, ["100"], dc_value=2)


def test_constant_functions_collapse_to_terminals():
    assert ro.from_cubes(3, []).root == ro.TERM0
    assert ro.from_truth_table(2, [1, 1, 1, 1]).root == ro.TERM1


# ---------------------------------------------------------------------------
# transforms


def test_reduce_robdd_idempotent_and_semantics_preserving():
    rng = random.Random(7)
    d = ro.from_truth_table(5, random_bits(rng, 5))
    r1 = ro.reduce_robdd(d)
    r2 = ro.reduce_robdd(r1)
    assert ro.isomorphic(r1, r2)
    assert ro.truth_table(r1) == ro.truth_table(d)


def test_reduce_robdd_collapses_quasi_reduced_input():
    d = parity_diagram(4)
    qr = ro.build_qr(d)
    back = ro.reduce_robdd(qr)
    assert ro.isomorphic(back, d)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_canonicity_across_cube_orders(n, pyrandom):
    # build the same function from shuffled cube lists: isomorphic results
    cubes = []
    for k in range(1 << n):
        if pyrandom.random() < 0.4:
            cubes.append(format(k, f"0{n}b"))
    shuffled = cubes[:]
    pyrandom.shuffle(shuffled)
    d1 = ro.from_cubes(n, cubes)
    d2 = ro.from_cubes(n, shuffled)
    assert ro.isomorphic(d1, d2)


def test_restrict_is_the_cofactor(wide_range_example):
    d, _, names = wide_range_example
    got = ro.restrict(d, 0, 0)
    left = Diagram(d.store, names["b"])
    for a in assignments(5):
        assert ro.evaluate(got, a) == ro.evaluate(left, a)
    assert ro.count_nodes(got) <= ro.count_nodes(d)


def test_restrict_validates_arguments(wide_range_example):
    d, _, _ = wide_range_example
    with pytest.raises(ValueError):
        ro.restrict(d, 5, 0)
    with pytest.raises(ValueError):
        ro.restrict(d, 0, 2)


def test_negate_swaps_terminals_and_preserves_structure(wide_range_example):
    d, _, _ = wide_range_example
    neg = ro.negate(d)
    assert ro.evaluate(neg, (0, 0, 0, 0, 0)) == 1
    assert ro.count_nodes(neg) == ro.count_nodes(d)
    double = ro.negate(neg)
    assert ro.truth_table(double) == ro.truth_table(d)
    assert ro.negate(Diagram(DiagramStore(2), ro.TERM0)).root == ro.TERM1


def test_negate_preserves_quasi_reduced_shape():
    qr = ro.build_qr(parity_diagram(3))
    neg = ro.negate(qr)
    assert ro.count_nodes(neg) == ro.count_nodes(qr)
    assert ro.is_index_resilient(neg)


# ---------------------------------------------------------------------------
# inspection


def test_dfs_preorder_visits_zero_edge_first(vector_example):
    d, _, names = vector_example
    order = ro.dfs_preorder(d)
    labels = {v: k for k, v in names.items()}
    labels[ro.TERM0] = "T0"
    labels[ro.TERM1] = "T1"
    assert [labels[u] for u in order] == [
        "a", "b", "c", "T1", "d", "e", "T0", "f", "g", "h"]


def test_isomorphic_distinguishes_structure():
    d1 = parity_diagram(3)
    d2 = ro.from_truth_table(3, [0, 1, 1, 0, 1, 0, 0, 1])
    assert ro.isomorphic(d1, d2)
    d3 = ro.from_truth_table(3, [1, 1, 1, 0, 1, 0, 0, 1])
    assert not ro.isomorphic(d1, d3)


def test_export_dot_shape(wide_range_example):
    d, _, _ = wide_range_example
    dot = ro.export_dot(d, name="example")
    assert dot.startswith("digraph example {")
    assert dot.count("style=dashed") == 6
    assert dot.count("style=solid") == 6
    assert dot.count("shape=box") == 2
    assert "rank=same" in dot
