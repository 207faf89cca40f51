"""Bitset truth tables against the per-assignment route they replace."""

import random
import tracemalloc

import pytest

import resilient_obdd as ro
from resilient_obdd import core
from resilient_obdd.bench import build_output, cube_oracle, verify_function, verify_pla
from resilient_obdd.core import assignments
from resilient_obdd.indexres import is_index_resilient, is_ir_reduced
from resilient_obdd.pla import parse_pla

from conftest import random_raw_diagram, random_reduced, upward_edge_diagram


def per_assignment_table(d):
    return [ro.evaluate(d, a) for a in assignments(d.n)]


def per_assignment_verify(n, oracle, ro_, qr, ir, label):
    """verify_function as it was: evaluate and the oracle on every assignment."""
    problems = []
    for name, d in (("ro", ro_), ("qr", qr), ("ir", ir)):
        for a in assignments(n):
            if ro.evaluate(d, a) != oracle(a):
                problems.append(f"{label}/{name}: wrong value on {a}")
                break
    for a in assignments(n):
        if ro.evaluate(ir, a) != ro.evaluate(qr, a):
            problems.append(f"{label}: regimes disagree on {a}")
            break
    if not is_index_resilient(ir):
        problems.append(f"{label}/ir: not index-resilient")
    if not is_ir_reduced(ir):
        problems.append(f"{label}/ir: removable chain or mergeable pair left")
    if not is_index_resilient(qr):
        problems.append(f"{label}/qr: not index-resilient")
    counts = (ro.count_nodes(ro_), ro.count_nodes(ir), ro.count_nodes(qr))
    if not counts[0] <= counts[1] <= counts[2]:
        problems.append(f"{label}: size sandwich violated ro/ir/qr = {counts}")
    return problems


def random_pla(rng, n, outputs, cubes, literal_rate):
    rows = []
    for _ in range(cubes):
        ins = "".join(rng.choice("01") if rng.random() < literal_rate else "-"
                      for _ in range(n))
        rows.append(ins + " " + "".join(rng.choice("10~") for _ in range(outputs)))
    return parse_pla(f".i {n}\n.o {outputs}\n" + "\n".join(rows) + "\n.e\n", "random")


def wrong_ir(rng, n, oracle, onset, dcset, dc_value):
    """The resilient form of the function with one more ON minterm, and
    that minterm as an assignment; the function must have an OFF minterm."""
    a = tuple(rng.randint(0, 1) for _ in range(n))
    while oracle(a):
        a = tuple(rng.randint(0, 1) for _ in range(n))
    minterm = "".join(map(str, a))
    ir = ro.ir_reduce(ro.build_qr(ro.from_cubes(n, onset + [minterm], dcset, dc_value)))
    return ir, a


def test_variable_masks():
    assert core.variable_masks(1) == [0b10]
    assert core.variable_masks(3) == [0b11110000, 0b11001100, 0b10101010]


@pytest.mark.parametrize("block_vars", [1, 2, 3, core.BLOCK_VARS])
def test_truth_table_in_blocks_matches_evaluate(monkeypatch, block_vars):
    monkeypatch.setattr(core, "BLOCK_VARS", block_vars)
    rng = random.Random(block_vars)
    for n in range(1, 8):
        for _ in range(4):
            for d in (random_reduced(rng, n), random_raw_diagram(rng, n)):
                assert ro.truth_table(d) == per_assignment_table(d), n
                assert ro.truth_bits(d) == sum(v << k for k, v in enumerate(ro.truth_table(d)))


def test_truth_table_of_terminals():
    for n in (1, 3):
        assert ro.truth_table(ro.Diagram(ro.DiagramStore(n), ro.TERM0)) == [0] * (1 << n)
        assert ro.truth_table(ro.Diagram(ro.DiagramStore(n), ro.TERM1)) == [1] * (1 << n)


def test_cube_oracle_bits_match_its_calls():
    rng = random.Random(5)
    for n in range(1, 9):
        pla = random_pla(rng, n, 1, rng.randint(0, 6), 0.5)
        for dc_value in (0, 1):
            oracle = cube_oracle(pla.onset(0), pla.dcset(0), dc_value)
            bits = oracle.bits(n)
            assert [bits >> k & 1 for k in range(1 << n)] == [oracle(a) for a in assignments(n)]


@pytest.mark.parametrize("block_vars", [2, core.BLOCK_VARS])
def test_verify_function_matches_the_per_assignment_route(monkeypatch, block_vars):
    monkeypatch.setattr(core, "BLOCK_VARS", block_vars)
    rng = random.Random(17)
    checked = 0
    for n in range(1, 11):
        for _ in range(3):
            pla = random_pla(rng, n, 1, rng.randint(1, 8), rng.choice((0.3, 0.6)))
            dc_value = rng.randint(0, 1)
            onset, dcset = pla.onset(0), pla.dcset(0)
            oracle = cube_oracle(onset, dcset, dc_value)
            r, q, i = build_output(pla, 0, dc_value)
            triples = [(r, q, i), (r, q, r), (q, r, i), (ro.negate(r), q, i), (r, ro.negate(q), i)]
            if any(not oracle(a) for a in assignments(n)):
                triples.append((r, q, wrong_ir(rng, n, oracle, onset, dcset, dc_value)[0]))
            for triple in triples:
                want = per_assignment_verify(n, oracle, *triple, label="f")
                assert verify_function(n, oracle, *triple, label="f") == want
                checked += bool(want)
    assert checked > 100  # most broken triples are reported


def test_upward_edge_raises_instead_of_looping():
    d = upward_edge_diagram()
    with pytest.raises(ro.ContractError):
        ro.evaluate(d, (0,) * 6)
    with pytest.raises(ro.ContractError):
        ro.truth_bits(d)


def test_verify_at_twenty_inputs_in_bounded_memory():
    rng = random.Random(20)
    pla = random_pla(rng, 20, 2, 60, 0.4)
    tracemalloc.start()
    try:
        assert verify_pla(pla) == []
        onset, dcset = pla.onset(1), pla.dcset(1)
        oracle = cube_oracle(onset, dcset, 0)
        r, q, _ = build_output(pla, 1, 0)
        ir, a = wrong_ir(rng, 20, oracle, onset, dcset, 0)
        problems = verify_function(20, oracle, r, q, ir, label="out1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems[:2] == [f"out1/ir: wrong value on {a}", f"out1: regimes disagree on {a}"]
    # one 2^20-bit table per node would take 128 KiB a node
    assert ro.count_nodes(q) > 1000
    assert peak < 64 << 20
