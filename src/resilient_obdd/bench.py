"""Benchmark statistics, exhaustive verification and fault campaigns.

Builds, per PLA output column, the three diagram regimes this package is
about: the fully reduced form (smallest, fragile indices), the quasi-reduced
form (largest, trivially recoverable) and the index-resilient reduced form in
between.  ``REFERENCE_COUNTS`` holds known-good totals for the classic
LGSynth93 two-level benchmarks so the stats command can print drift columns
when one of those files is supplied.
"""

from __future__ import annotations

import json
import random

from dataclasses import dataclass, field

from . import core
from .core import Diagram, count_nodes, from_cubes, matches_cube
from .faults import INDEX, FaultOverlay, build_unique_table, inject, reconstruct_index_ut
from .indexres import _is_index_resilient, _is_ir_reduced, ir_reduce
from .quasi import build_qr
from .resilient import index_reconstruct

# benchmark -> (inputs, outputs, quasi-reduced, fully reduced, index-resilient)
REFERENCE_COUNTS: dict[str, tuple[int, int, int, int, int]] = {
    "al2": (16, 47, 1218, 269, 504),
    "alcom": (15, 38, 946, 175, 424),
    "alu1": (12, 8, 206, 31, 109),
    "amd": (14, 24, 1318, 739, 1021),
    "b10": (15, 11, 985, 617, 815),
    "b2": (16, 17, 6613, 5568, 5902),
    "b9": (16, 5, 453, 196, 334),
    "br1": (12, 8, 346, 242, 265),
    "br2": (12, 8, 285, 174, 190),
    "clpl": (11, 5, 140, 53, 84),
    "co14": (14, 1, 39, 27, 27),
    "gary": (15, 11, 988, 625, 814),
    "in2": (19, 10, 4006, 2476, 2988),
    "intb": (15, 7, 1862, 1228, 1631),
    "mp2d": (14, 14, 413, 151, 299),
    "newapla": (12, 10, 272, 78, 134),
    "newapla1": (12, 7, 155, 50, 81),
    "newtpla": (15, 5, 186, 83, 120),
    "opa": (17, 69, 3091, 1164, 2315),
    "pdc": (16, 40, 6204, 4754, 5563),
    "ryy6": (16, 1, 50, 23, 32),
    "shift": (19, 10, 1206, 189, 667),
    "t2": (17, 16, 728, 306, 434),
    "t3": (12, 8, 300, 111, 227),
    "t4": (12, 8, 399, 213, 320),
    "test2": (11, 35, 11678, 11195, 11431),
    "tial": (14, 8, 2230, 1677, 1934),
}


def build_output(pla, output: int, dc_value: int = 0):
    """(reduced, quasi-reduced, resilient-reduced) diagrams for one output."""
    ro = from_cubes(pla.n_inputs, pla.onset(output), pla.dcset(output), dc_value)
    qr = build_qr(ro)
    ir = ir_reduce(qr)
    return ro, qr, ir


@dataclass
class StatsRow:
    benchmark: str
    n_inputs: int
    n_outputs: int
    qr_nodes: int
    ro_nodes: int
    ir_nodes: int
    per_output: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def reference(self):
        return REFERENCE_COUNTS.get(self.benchmark)


def stats(pla, dc_value: int = 0) -> StatsRow:
    """Sum the three regime sizes over all output columns."""
    per_output = []
    for j in range(pla.n_outputs):
        ro, qr, ir = build_output(pla, j, dc_value)
        per_output.append((count_nodes(qr), count_nodes(ro), count_nodes(ir)))
    return StatsRow(
        benchmark=pla.name or "?",
        n_inputs=pla.n_inputs,
        n_outputs=pla.n_outputs,
        qr_nodes=sum(t[0] for t in per_output),
        ro_nodes=sum(t[1] for t in per_output),
        ir_nodes=sum(t[2] for t in per_output),
        per_output=per_output,
    )


def stats_text(rows: list[StatsRow]) -> str:
    """Aligned table with drift-versus-reference columns where known."""
    header = (f"{'benchmark':<12}{'in':>4}{'out':>5}{'qr':>8}{'ro':>8}{'ir':>8}"
              f"{'d_qr':>7}{'d_ro':>7}{'d_ir':>7}")
    lines = [header]
    for row in rows:
        ref = row.reference
        if ref is None:
            deltas = f"{'-':>7}{'-':>7}{'-':>7}"
        else:
            deltas = (f"{row.qr_nodes - ref[2]:>+7}{row.ro_nodes - ref[3]:>+7}"
                      f"{row.ir_nodes - ref[4]:>+7}")
        lines.append(
            f"{row.benchmark:<12}{row.n_inputs:>4}{row.n_outputs:>5}"
            f"{row.qr_nodes:>8}{row.ro_nodes:>8}{row.ir_nodes:>8}{deltas}")
    return "\n".join(lines) + "\n"


def stats_csv(rows: list[StatsRow]) -> str:
    lines = ["benchmark,inputs,outputs,qr_nodes,ro_nodes,ir_nodes,ref_qr,ref_ro,ref_ir"]
    for row in rows:
        ref = row.reference
        ref_cols = f"{ref[2]},{ref[3]},{ref[4]}" if ref else ",,"
        lines.append(
            f"{row.benchmark},{row.n_inputs},{row.n_outputs},"
            f"{row.qr_nodes},{row.ro_nodes},{row.ir_nodes},{ref_cols}")
    return "\n".join(lines) + "\n"


def stats_json(rows: list[StatsRow]) -> str:
    payload = []
    for row in rows:
        entry = {
            "benchmark": row.benchmark,
            "inputs": row.n_inputs,
            "outputs": row.n_outputs,
            "qr_nodes": row.qr_nodes,
            "ro_nodes": row.ro_nodes,
            "ir_nodes": row.ir_nodes,
        }
        if row.reference:
            entry["reference"] = {
                "qr_nodes": row.reference[2],
                "ro_nodes": row.reference[3],
                "ir_nodes": row.reference[4],
            }
        payload.append(entry)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# exhaustive verification


class CubeOracle:
    """Reference semantics, straight off the cube lists.

    Called with an assignment it gives the value there; :meth:`bits` gives
    the whole truth table as one int, in the layout of
    :func:`core.truth_bits`.
    """

    def __init__(self, onset, dcset, dc_value: int):
        self.onset = list(onset)
        self.dcset = list(dcset)
        self.dc_value = dc_value

    def __call__(self, assignment) -> int:
        if any(matches_cube(c, assignment) for c in self.onset):
            return 1
        if any(matches_cube(c, assignment) for c in self.dcset):
            return self.dc_value
        return 0

    def bits(self, n: int) -> int:
        """OR of the cubes, each an AND of literal masks."""
        masks = core.variable_masks(n)
        full = (1 << (1 << n)) - 1

        def cover(cubes) -> int:
            bits = 0
            for cube in cubes:
                term = full
                for c, mask in zip(cube, masks):
                    if c == "1":
                        term &= mask
                    elif c == "0":
                        term &= ~mask
                bits |= term
            return bits

        return cover(self.onset) | (cover(self.dcset) if self.dc_value else 0)


cube_oracle = CubeOracle


def _first_difference(n: int, got: int, want: int) -> tuple[int, ...]:
    """The lowest assignment on which two truth tables differ."""
    diff = got ^ want
    k = (diff & -diff).bit_length() - 1
    return tuple(k >> (n - 1 - i) & 1 for i in range(n))


def verify_function(n: int, oracle, ro: Diagram, qr: Diagram, ir: Diagram,
                    label: str = "f") -> list[str]:
    """Every check the three regimes of one function must pass.

    The semantic checks compare whole truth tables: each regime's
    :func:`core.truth_bits` against ``oracle.bits(n)``, then ir against qr,
    each failure naming the lowest assignment that differs.  Memory is a few
    2^n-bit ints plus at most 2^core.BLOCK_VARS bits (2 KiB) per node: a
    32k-node function at n = 20 verifies in about 4 s (2-vCPU host, under
    tracemalloc) with a 71 MiB peak.  The structural checks share one
    preorder walk per diagram.  Kept independent of how the diagrams were
    built so that deliberately broken diagrams can be fed in.
    """
    problems = []
    want = oracle.bits(n)
    tables = {}
    for name, d in (("ro", ro), ("qr", qr), ("ir", ir)):
        if d.n != n:
            raise ValueError(f"{label}/{name} has {d.n} variables, expected {n}")
        tables[name] = core.truth_bits(d)
        if tables[name] != want:
            problems.append(
                f"{label}/{name}: wrong value on {_first_difference(n, tables[name], want)}")
    if tables["ir"] != tables["qr"]:
        problems.append(
            f"{label}: regimes disagree on {_first_difference(n, tables['ir'], tables['qr'])}")
    ir_internal = core.dfs_preorder(ir, include_terminals=False)
    if not _is_index_resilient(ir.store, ir_internal):
        problems.append(f"{label}/ir: not index-resilient")
    if not _is_ir_reduced(ir.store, ir_internal):
        problems.append(f"{label}/ir: removable chain or mergeable pair left")
    qr_internal = core.dfs_preorder(qr, include_terminals=False)
    if not _is_index_resilient(qr.store, qr_internal):
        problems.append(f"{label}/qr: not index-resilient")
    counts = (count_nodes(ro), len(ir_internal), len(qr_internal))
    if not counts[0] <= counts[1] <= counts[2]:
        problems.append(f"{label}: size sandwich violated ro/ir/qr = {counts}")
    return problems


def verify_pla(pla, dc_value: int = 0, max_n: int = 20) -> list[str]:
    """Exhaustively verify every output column of a PLA."""
    if pla.n_inputs > max_n:
        raise ValueError(
            f"{pla.n_inputs} inputs exceed the exhaustive-check limit {max_n}")
    problems = []
    for j in range(pla.n_outputs):
        ro, qr, ir = build_output(pla, j, dc_value)
        oracle = cube_oracle(pla.onset(j), pla.dcset(j), dc_value)
        problems.extend(
            verify_function(pla.n_inputs, oracle, ro, qr, ir, label=f"out{j}"))
    return problems


# ---------------------------------------------------------------------------
# index-fault campaigns


@dataclass
class RecoveryStats:
    trials: int
    recovered: int
    seed: int

    @property
    def all_recovered(self) -> bool:
        return self.recovered == self.trials


def index_ut_campaign(d: Diagram, trials: int, seed: int,
                      bucket_count: int = 256) -> RecoveryStats:
    """Corrupt one index per trial on a table-backed diagram and recover it."""
    table = build_unique_table(d, bucket_count)
    internal = core.dfs_preorder(d, include_terminals=False)
    rng = random.Random(seed)
    overlay = FaultOverlay(d.store)
    recovered = 0
    done = 0
    if internal:
        for _ in range(trials):
            u = rng.choice(internal)
            truth = d.store.node(u).index
            inject(d, overlay, u, INDEX, rng)
            if reconstruct_index_ut(d, table, u, overlay) == truth:
                recovered += 1
            overlay.restore()
            done += 1
    return RecoveryStats(done, recovered, seed)


def index_ir_campaign(d: Diagram, trials: int, faults: int, seed: int) -> RecoveryStats:
    """Corrupt several indices per trial on a resilient diagram; repair all.

    A trial counts as recovered when every corrupted node ends up with its
    true index and no flags remain.
    """
    internal = core.dfs_preorder(d, include_terminals=False)
    rng = random.Random(seed)
    overlay = FaultOverlay(d.store)
    recovered = 0
    done = 0
    if internal:
        per_trial = min(faults, len(internal))
        for _ in range(trials):
            victims = rng.sample(internal, per_trial)
            truth = {u: d.store.node(u).index for u in victims}
            for u in victims:
                inject(d, overlay, u, INDEX, rng)
            for u in victims:
                if overlay.is_corrupt(u, INDEX):
                    index_reconstruct(d, overlay, u)
            ok = (len(overlay) == 0
                  and all(d.store.node(u).index == truth[u] for u in victims))
            if ok:
                recovered += 1
            else:
                overlay.restore()
                for u, value in truth.items():
                    d.store.node(u).index = value
            done += 1
    return RecoveryStats(done, recovered, seed)
