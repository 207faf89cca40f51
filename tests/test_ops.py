"""Binary operators, the consed apply and the fault-aware memo table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import resilient_obdd as ro
from resilient_obdd.core import assignments

from conftest import parity_diagram, random_bits, random_reduced


def test_op_truth_tables():
    # trivial: the four-entry tables defining each operator
    cases = {
        "and": [0, 0, 0, 1], "or": [0, 1, 1, 1], "xor": [0, 1, 1, 0],
        "nand": [1, 1, 1, 0], "nor": [1, 0, 0, 0], "xnor": [1, 0, 0, 1],
        "implies": [1, 1, 0, 1],
    }
    for name, rows in cases.items():
        op = ro.OPS[name]
        got = [op(a, b) for a in (0, 1) for b in (0, 1)]
        assert got == rows, name


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.randoms(use_true_random=False),
       st.sampled_from(sorted(ro.OPS)))
def test_apply_matches_pointwise_oracle(n, pyrandom, opname):
    rng = random.Random(pyrandom.randrange(1 << 30))
    f_bits = random_bits(rng, n)
    g_bits = random_bits(rng, n)
    op = ro.OPS[opname]
    h = ro.apply(op, ro.from_truth_table(n, f_bits), ro.from_truth_table(n, g_bits))
    assert ro.truth_table(h) == [op(a, b) for a, b in zip(f_bits, g_bits)]


def test_apply_requires_matching_variable_count():
    f = parity_diagram(3)
    g = parity_diagram(4)
    with pytest.raises(ValueError):
        ro.apply(ro.AND, f, g)


def test_apply_terminal_short_circuits():
    f = parity_diagram(4)
    store = ro.DiagramStore(4)
    zero = ro.Diagram(store, ro.TERM0)
    one = ro.Diagram(store, ro.TERM1)
    assert ro.apply(ro.AND, f, zero).root == ro.TERM0
    assert ro.truth_table(ro.apply(ro.OR, f, zero)) == ro.truth_table(f)
    assert ro.apply(ro.OR, f, one).root == ro.TERM1


def test_apply_output_is_reduced():
    rng = random.Random(5)
    f = random_reduced(rng, 5)
    g = random_reduced(rng, 5)
    h = ro.apply(ro.XOR, f, g)
    assert ro.isomorphic(h, ro.reduce_robdd(h))


def test_equivalent_across_stores():
    rng = random.Random(9)
    bits = random_bits(rng, 4)
    d1 = ro.from_truth_table(4, bits)
    d2 = ro.reduce_robdd(ro.build_qr(ro.from_truth_table(4, bits)))
    assert ro.equivalent(d1, d2)
    flipped = bits[:]
    flipped[3] ^= 1
    assert not ro.equivalent(d1, ro.from_truth_table(4, flipped))


# ---------------------------------------------------------------------------
# memo table


def test_memo_hit_miss_accounting():
    memo = ro.MemoTable()
    assert memo.get((4, 7)) is None
    memo.put((4, 7), 13)
    assert memo.get((4, 7)) == 13
    assert (memo.misses, memo.hits, memo.inserted) == (1, 1, 1)


def test_memo_corrupted_entry_reads_as_miss():
    memo = ro.MemoTable()
    memo.put((2, 3), 9)
    memo.mark_corrupt((2, 3))
    assert memo.is_corrupt((2, 3))
    assert memo.get((2, 3)) is None
    assert memo.lost_hits == 1
    assert memo.corrupted_total == 1
    # recomputation overwrites and clears the flag
    memo.put((2, 3), 9)
    assert not memo.is_corrupt((2, 3))
    assert memo.get((2, 3)) == 9


def test_memo_random_faults_bounded_by_injections():
    rng = random.Random(21)
    memo = ro.MemoTable(fault_rng=rng, fault_rate=0.5)
    for k in range(200):
        memo.put((k, k + 1), k)
    reads = sum(memo.get((k, k + 1)) is not None for k in range(200))
    assert memo.lost_hits == 200 - reads
    assert memo.lost_hits <= memo.corrupted_total
    assert memo.corrupted_total > 0


def test_apply_with_faulty_memo_still_correct():
    rng = random.Random(31)
    for trial in range(20):
        n = rng.randrange(3, 7)
        f = random_reduced(rng, n)
        g = random_reduced(rng, n)
        memo = ro.MemoTable(fault_rng=random.Random(trial), fault_rate=0.4)
        h = ro.apply(ro.AND, f, g, memo=memo)
        want = [a & b for a, b in zip(ro.truth_table(f), ro.truth_table(g))]
        assert ro.truth_table(h) == want
        assert memo.lost_hits <= memo.corrupted_total
