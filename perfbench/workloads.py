"""The four workloads: seeded inputs, a repeatable round of steps, checks.

``setup()`` builds everything a workload needs from the seed.  ``round()``
lists ``(kind, fn)`` steps.  ``fn()`` is the timed part: it calls into the
package through the tracer, in the order the CLI path does, and returns a
``finish`` callable that runs untimed, checks the outputs (returning a list
of problems) and, in a traced run, reads counters from outside.  Kind
``PREP`` marks timed work that is not an op: the per-campaign set-up the CLI
repeats for every campaign.  Every round does the same work, because each
round re-creates its random streams from the seed.

The default shapes in ``SPECS`` are the benchmark; tests pass smaller ones.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from types import SimpleNamespace

import checks
from corpus import PlaClass, bundled, generate, single_cube_pla
from resilient_obdd import bench, core, edges, faults, indexres, ops, pla, quasi, resilient

PREP = "prep"
ORACLE_MAX_N = 13  # full truth-table checks up to here, sampled checks above
EDGE_BUCKETS = (256, 1024, 2048)  # the CLI's default edge-mode bucket counts
UT_BUCKETS = 256  # the bucket count index-ut campaigns use

# Why these shapes.  ``shapes.py`` prints the per-output ro/ir/qr node
# counts each class gives next to ``bench.REFERENCE_COUNTS``, the LGSynth93
# files the package's stats command knows: per output, their reduced
# diagrams run from 4 to 328 nodes, with a median of 23 and a third quartile
# of 57.  Every class below has its median reduced size inside that range.
#
# Random functions of one shape still differ in cost by 15-35% (standard
# deviation over mean), so the figures of a run move with the seed by about
# that much over the square root of the number of functions behind them.
# Two rules keep that below a few percent.  Where the op cost does not
# follow the width (building, the pipeline), the classes are shaped to cost
# about the same, so that the median and the tail percentile are order
# statistics of one population of a few hundred ops, never of a boundary
# between classes of different cost; and the ops are small, near the
# reference median, so that a round holds many of them and still lasts one
# to two seconds, which gives a run ten to thirty rounds to take the fastest
# runs of each step from (see ``run.best_of``).  Where the cost is set by the width
# (exhaustive verification, 2**n assignments), the seed barely moves it and
# the classes step in width.
SPECS = {
    # 224 outputs a round (b12 80, b16 72, b20 72), reduced sizes about 32,
    # 44 and 31, each output 2-3 ms: from_cubes dominates.  The deep file is
    # the known RecursionError at n = 1200; its ops count as failed, so they
    # must stay in.
    "corpus-build": {
        "classes": [
            PlaClass("b12", 12, 4, 8, 0.5, 0.5, 0.1, 20),
            PlaClass("b16", 16, 4, 8, 0.65, 0.5, 0.1, 18),
            PlaClass("b20", 20, 4, 6, 0.7, 0.5, 0.1, 18),
        ],
        "bundled": True,
        "deep": (1200, 3),  # one file, three single-cube outputs
    },
    # Cost doubles with each input (about 50, 100 and 210 ms); reduced sizes
    # 55 to 75.  15 ops a round with the negative control, about 2 s: of the
    # 45 latency samples the median falls inside v11 (samples 10-27) and the
    # tail (p75, sample 34) inside v12 (28-45), not on an edge between them.
    # n = 13 (0.45 s an op) would make a round too long for a run to hold
    # enough of them.
    "verify-exhaustive": {
        "classes": [
            PlaClass("v10", 10, 2, 16, 0.4, 0.5, 0.1, 1),
            PlaClass("v11", 11, 2, 16, 0.4, 0.5, 0.1, 3),
            PlaClass("v12", 12, 2, 16, 0.4, 0.5, 0.1, 3),
        ],
    },
    # 48 diagrams, two thirds near the reference median (about 43 nodes), so
    # that the median trial falls inside f16s, and one third at its upper end
    # (about 300).  Only there do node ids pass 255: FNV-1a never sends two
    # keys that differ in one byte to the same bucket of a power-of-two
    # table, so 256 buckets give collisions there and 1024 or 2048 none.
    # 40 trials per diagram and round.
    "fault-campaign": {
        "classes": [
            PlaClass("f16s", 16, 2, 8, 0.6, 0.5, 0.1, 16),
            PlaClass("f16l", 16, 2, 24, 0.65, 0.5, 0.1, 8),
        ],
        "trials": {"index-ut": 8, "index-ir": 8, "edge": 8},  # edge: per bucket count
        "ir_faults": 3,
    },
    # 240 pairs, every pair of a file's four outputs, reduced sizes about 20
    # (the reference median), each pair 3-5 ms for both operations and
    # routes; two ON cubes of eight per output, so that the outputs of a
    # file differ, and more dashes in the wider classes, so that all three
    # cost about the same.
    "table-free-pipeline": {
        "classes": [
            PlaClass("p16", 16, 4, 8, 0.4, 0.25, 0.125, 14),
            PlaClass("p18", 18, 4, 8, 0.5, 0.25, 0.125, 13),
            PlaClass("p20", 20, 4, 8, 0.5, 0.25, 0.125, 13),
        ],
        "operand_faults": 2,  # flagged indices per operand per operation
        "memo_fault_rate": 0.05,
    },
}


def output_count(text: str) -> int:
    return int(re.search(r"^\.o\s+(\d+)", text, re.M).group(1))


def interleave(groups):
    """Round-robin over groups, so that drift in host speed during a round
    touches every class alike."""
    out, k = [], 0
    while any(k < len(g) for g in groups):
        out += [g[k] for g in groups if k < len(g)]
        k += 1
    return out


def semantic_problems(n, onset, dcset, diagrams: dict, rng) -> list[str]:
    """Each diagram against the cube semantics: every assignment up to
    ``ORACLE_MAX_N`` inputs, sampled assignments above."""
    if n <= ORACLE_MAX_N:
        want = checks.function_bits(n, onset, dcset, 0)
        return [f"{name}: truth table differs from the cubes"
                for name, d in diagrams.items() if checks.diagram_bits(d) != want]
    for a in checks.sample_assignments(n, onset, rng):
        want = checks.cube_value(onset, dcset, 0, a)
        for name, d in diagrams.items():
            if checks.evaluate(d, a) != want:
                return [f"{name}: wrong value on a sampled assignment"]
    return []


class Workload:
    name = ""

    def __init__(self, seed: int, tracer, spec=None):
        self.seed = seed
        self.tracer = tracer
        self.spec = spec if spec is not None else SPECS[self.name]
        self.outcomes: Counter = Counter()
        self.tables_seen: set = set()

    def corpus(self):
        """(name, text) of every generated file; the tag keeps workloads apart."""
        return generate(self.spec["classes"], self.seed, self.name)

    def parsed_corpus(self):
        """(class name, parsed PLA) for every generated file."""
        return [(name.rsplit("_", 1)[0], pla.parse_pla(text, name))
                for name, text in self.corpus()]

    def record_table(self, key, table, store, ids):
        """Bucket occupancy of one unique table, via its public bucket_index."""
        t = self.tracer
        if not t.enabled or table is None or key in self.tables_seen:
            return
        self.tables_seen.add(key)
        buckets = Counter()
        for u in ids:
            node = store.node(u)
            buckets[node.index, table.bucket_index(node.lo, node.hi)] += 1
        if buckets:
            t.peak("core.unique_table.max_bucket", max(buckets.values()))
            t.add("table.entries", sum(buckets.values()))
            t.add("table.nonempty", len(buckets))


class CorpusBuild(Workload):
    """``stats``: parse each PLA, build every output in all three regimes."""

    name = "corpus-build"

    def setup(self):
        files = [(name.rsplit("_", 1)[0], name, text)
                 for name, text in self.corpus()]
        if self.spec.get("bundled"):
            files += [("bundled", name, text) for name, text in bundled()]
        if self.spec.get("deep"):
            n, outputs = self.spec["deep"]
            rng = random.Random(f"{self.seed}|deep")
            files.append(("deep", "deep_0", single_cube_pla(n, outputs, rng, "deep_0")))
        groups: dict[str, list] = {}
        for kind, name, text in files:
            groups.setdefault(kind, []).append((kind, name, text))
        self.files = interleave(list(groups.values()))
        self.parsed = {}
        self.passed = {}  # (file, output) -> shapes of diagrams that passed every check

    def round(self):
        return [(kind, self.build_op(name, text, j))
                for kind, name, text in self.files for j in range(output_count(text))]

    def build_op(self, name, text, j):
        def fn():
            if j == 0:
                self.parsed[name] = self.tracer.call("pla.parse_pla", pla.parse_pla, text, name)
            p = self.parsed[name]
            onset, dcset = p.onset(j), p.dcset(j)
            ro = self.tracer.call("core.from_cubes", core.from_cubes, p.n_inputs, onset, dcset, 0)
            qr = self.tracer.call("quasi.build_qr", quasi.build_qr, ro)
            ir = self.tracer.call("indexres.ir_reduce", indexres.ir_reduce, qr)
            sizes = (core.count_nodes(ro), core.count_nodes(ir), core.count_nodes(qr))
            return lambda: self.check(p, name, j, onset, dcset, ro, qr, ir, sizes)
        return fn

    def check(self, p, name, j, onset, dcset, ro, qr, ir, sizes):
        shapes = tuple(map(checks.shape, (ro, ir, qr)))
        own = tuple(len(s) - 1 for s in shapes)  # reachable internal nodes
        t = self.tracer
        if j == 0:
            t.add("pla.cubes", len(p.cubes))
        t.add("core.from_cubes.nodes_allocated", len(ro.store))
        t.add("quasi.build_qr.nodes_allocated", len(qr.store))
        t.add("indexres.ir_reduce.nodes_removed", own[2] - own[1])
        for regime, count in zip(("ro", "ir", "qr"), own):
            self.outcomes[name, regime] += count
        self.record_table((name, j, "ro"), ro.store.table, ro.store, ro.store.ids())
        self.record_table((name, j, "qr"), qr.store.table, qr.store, qr.store.ids())
        problems = []
        if own != sizes:
            problems.append(f"count_nodes gave ro/ir/qr {sizes}, reachable {own}")
        if not own[0] <= own[1] <= own[2]:
            problems.append(f"size order ro <= ir <= qr violated: {own}")
        # Diagrams isomorphic to ones that passed in an earlier round have the
        # same function and form; only the first round pays for the rest.
        if self.passed.get((name, j)) == shapes:
            return [f"{name}[{j}]: {m}" for m in problems]
        if not indexres.is_index_resilient(ir) or not indexres.is_ir_reduced(ir):
            problems.append("ir is not index-resilient and reduced")
        if not indexres.is_index_resilient(qr):
            problems.append("qr is not index-resilient")
        rng = random.Random(f"{self.seed}|{name}|{j}")
        problems += semantic_problems(p.n_inputs, onset, dcset,
                                      {"ro": ro, "qr": qr, "ir": ir}, rng)
        if not problems:
            self.passed[name, j] = shapes
        return [f"{name}[{j}]: {m}" for m in problems]


class VerifyExhaustive(Workload):
    """``verify``: one ``bench.verify_function`` call per output column.

    One op per round is a negative control: a diagram that differs from its
    cubes on one assignment must be reported.
    """

    name = "verify-exhaustive"

    def setup(self):
        groups: dict[str, list] = {}
        for kind, p in self.parsed_corpus():
            for j in range(p.n_outputs):
                ro, qr, ir = bench.build_output(p, j, 0)
                groups.setdefault(kind, []).append(
                    (kind, f"{p.name}[{j}]", p.n_inputs, p.onset(j), p.dcset(j), (ro, qr, ir)))
        self.outputs = interleave(list(groups.values()))
        self.verdicts = {}
        self.negative = self.wrong_variant(self.outputs[0])

    def wrong_variant(self, output):
        """The output with its ir regime built for one extra ON minterm."""
        _, label, n, onset, dcset, (ro, qr, _) = output
        bits = checks.function_bits(n, onset, dcset, 0)
        zeros = [k for k in range(1 << n) if not bits >> k & 1]
        k = random.Random(f"{self.seed}|negative").choice(zeros)
        minterm = format(k, f"0{n}b")  # assignment k, variable 0 first
        wrong = indexres.ir_reduce(quasi.build_qr(core.from_cubes(n, onset + [minterm], dcset)))
        return ("negative", label + "!", n, onset, dcset, (ro, qr, wrong))

    def round(self):
        steps = [(out[0], self.verify_op(out)) for out in self.outputs]
        steps.insert(len(steps) // 2, ("negative", self.verify_op(self.negative)))
        return steps

    def verify_op(self, output):
        kind, label, n, onset, dcset, (ro, qr, ir) = output

        def fn():
            oracle = bench.cube_oracle(onset, dcset, 0)
            found = self.tracer.call("bench.verify_function", bench.verify_function,
                              n, oracle, ro, qr, ir, label)
            return lambda: self.check(output, found)
        return fn

    def check(self, output, found):
        kind, label, n, onset, dcset, (ro, qr, ir) = output
        self.tracer.add("bench.verify_function.assignments", 1 << n)
        if label not in self.verdicts:
            self.verdicts[label] = semantic_problems(
                n, onset, dcset, {"ro": ro, "qr": qr, "ir": ir}, random.Random(label))
        wrong = self.verdicts[label]
        if kind == "negative":
            if not wrong:
                return [f"{label}: negative control diagram is not wrong"]
            return [] if found else [f"{label}: verify_function accepted a wrong diagram"]
        if wrong:
            return [f"{label}: built diagram wrong: {wrong[0]}"]
        return [f"{label}: verify_function reported {found[0]}"] if found else []


class FaultCampaign(Workload):
    """``inject-recover`` in all three modes, one op per fault trial."""

    name = "fault-campaign"

    def setup(self):
        self.diagrams = []
        for _, p in self.parsed_corpus():
            for j in range(p.n_outputs):
                ro, _, ir = bench.build_output(p, j, 0)
                if not core.is_terminal(ro.root):  # the CLI runs no trials on constants
                    self.diagrams.append((f"{p.name}[{j}]", ro, ir))
        self.contexts = {}
        self.parents = {}

    def round(self):
        trials = self.spec["trials"]
        steps = []
        for k in range(len(self.diagrams)):
            steps.append((PREP, self.prep(k)))
            for t in range(max(trials.values())):
                if t < trials["index-ut"]:
                    steps.append(("index-ut", self.ut_trial(k)))
                if t < trials["index-ir"]:
                    steps.append(("index-ir", self.ir_trial(k)))
                if t < trials["edge"]:
                    steps += [("edge", self.edge_trial(k, size)) for size in EDGE_BUCKETS]
        return steps

    def prep(self, k):
        def fn():
            # what the CLI builds per campaign, with its random streams
            _, ro, ir = self.diagrams[k]
            vector = self.tracer.call("edges.build_node_vector", edges.build_node_vector, ro)
            c = SimpleNamespace(
                ut_internal=core.dfs_preorder(ro, include_terminals=False),
                ut_table=self.tracer.call("faults.build_unique_table", faults.build_unique_table,
                                   ro, UT_BUCKETS),
                ir_internal=core.dfs_preorder(ir, include_terminals=False),
                vector=vector,
                edge_internal=[u for u in vector.order if not core.is_terminal(u)],
                edge_tables={size: self.tracer.call("faults.build_unique_table",
                                             faults.build_unique_table, ro, size)
                             for size in EDGE_BUCKETS},
                rng_ut=random.Random(self.seed),
                rng_ir=random.Random(self.seed),
                rng_edge={size: random.Random(f"{self.seed}|{size}") for size in EDGE_BUCKETS},
                overlay=faults.FaultOverlay(ro.store),
                overlay_ir=faults.FaultOverlay(ir.store),
            )
            self.contexts = {k: c}  # the CLI drops a campaign's tables when it ends
            return lambda: self.prep_counts(k, c)
        return fn

    def prep_counts(self, k, c):
        _, ro, _ = self.diagrams[k]
        for size, table in [(UT_BUCKETS, c.ut_table), *c.edge_tables.items()]:
            self.record_table((k, size, table is c.ut_table), table, ro.store, c.ut_internal)
        return []

    def ut_trial(self, k):
        def fn():
            label, d, _ = self.diagrams[k]
            c = self.contexts[k]
            u = c.rng_ut.choice(c.ut_internal)
            before = d.store.node(u).triple()
            try:
                self.tracer.call("faults.inject", faults.inject,
                                 d, c.overlay, u, faults.INDEX, c.rng_ut)
                got = self.tracer.call("faults.reconstruct_index_ut", faults.reconstruct_index_ut,
                                d, c.ut_table, u, c.overlay)
            finally:
                c.overlay.restore()
            return lambda: self.check_ut(k, u, before, got)
        return fn

    def check_ut(self, k, u, before, got):
        label, d, _ = self.diagrams[k]
        if self.tracer.enabled:
            if k not in self.parents:
                self.parents[k] = faults.parent_map(d)
            self.tracer.add("ut.width", faults.node_range(d, u, parents=self.parents[k]).size)
            self.tracer.add("ut.trials")
        ok = got == before[0]
        self.outcomes[label, "index-ut"] += ok
        problems = [] if ok else [f"{label}: index-ut recovered {got} for index {before[0]}"]
        if d.store.node(u).triple() != before:
            problems.append(f"{label}: node {u} changed after restore")
        return problems

    def ir_trial(self, k):
        def fn():
            label, _, d = self.diagrams[k]
            c = self.contexts[k]
            overlay = c.overlay_ir
            victims = c.rng_ir.sample(c.ir_internal,
                                      min(self.spec["ir_faults"], len(c.ir_internal)))
            before = {u: d.store.node(u).triple() for u in victims}
            calls = overlay.reconstruct_calls
            try:
                for u in victims:
                    self.tracer.call("faults.inject", faults.inject,
                                     d, overlay, u, faults.INDEX, c.rng_ir)
                for u in victims:
                    if overlay.is_corrupt(u, faults.INDEX):
                        self.tracer.call("resilient.index_reconstruct", resilient.index_reconstruct,
                                  d, overlay, u)
                recovered = len(overlay) == 0 and all(
                    d.store.node(u).index == before[u][0] for u in victims)
            finally:
                overlay.restore()
                for u, (index, _, _) in before.items():
                    d.store.node(u).index = index
            calls = overlay.reconstruct_calls - calls
            return lambda: self.check_ir(k, before, recovered, calls)
        return fn

    def check_ir(self, k, before, recovered, calls):
        label, _, d = self.diagrams[k]
        self.tracer.add("resilient.index_reconstruct.calls", calls)
        self.outcomes[label, "index-ir"] += recovered
        problems = [] if recovered else [f"{label}: index-ir trial not recovered"]
        if any(d.store.node(u).triple() != t for u, t in before.items()):
            problems.append(f"{label}: index-ir trial left the diagram changed")
        return problems

    def edge_trial(self, k, size):
        def fn():
            label, d, _ = self.diagrams[k]
            c = self.contexts[k]
            rng = c.rng_edge[size]
            u = rng.choice(c.edge_internal)
            edge = rng.choice((0, 1))
            component = faults.LO if edge == 0 else faults.HI
            before = d.store.node(u).triple()
            try:
                self.tracer.call("faults.inject", faults.inject, d, c.overlay, u, component, rng)
                fast = self.tracer.call("edges.reconstruct_edge", edges.reconstruct_edge,
                                 d, c.edge_tables[size], c.vector, u, edge)
                try:
                    strict = self.tracer.call("edges.reconstruct_edge", edges.reconstruct_edge,
                                       d, c.edge_tables[size], c.vector, u, edge, True)
                except edges.AmbiguousEdgeError:
                    strict = None
            finally:
                c.overlay.restore()
            return lambda: self.check_edge(k, size, u, edge, before, fast, strict)
        return fn

    def check_edge(self, k, size, u, edge, before, fast, strict):
        label, d, _ = self.diagrams[k]
        c = self.contexts[k]
        true_child = before[1 + edge]
        if self.tracer.enabled:
            candidates = edges.candidate_set(c.vector, u, edges.child_bound(c.vector, d, u, edge))
            self.tracer.add("edge.candidates", len(candidates))
            self.tracer.add("edge.probes_to_first",
                            candidates.index(fast) + 1 if fast in candidates else 0)
        self.outcomes["edge.trials"] += 1
        self.outcomes["edge.fast_correct"] += fast == true_child
        self.outcomes["edge.ambiguous"] += strict is None
        self.outcomes[label, "edge", size, "successes"] += fast == true_child
        self.outcomes[label, "edge", size, "ambiguous"] += strict is None
        problems = []
        if strict is not None and strict != true_child:
            problems.append(f"{label}: strict edge recovery answered {strict}, "
                            f"true child {true_child}")
        if d.store.node(u).triple() != before:
            problems.append(f"{label}: node {u} changed after restore")
        return problems


class TableFreePipeline(Workload):
    """Fault-tolerant Apply and table-free reduction against the consed route.

    One op is one pair of outputs of one file combined under XOR and then
    AND, each by both routes; every pair of a file's outputs is an op.
    """

    name = "table-free-pipeline"

    def setup(self):
        groups: dict[str, list] = {}
        for kind, p in self.parsed_corpus():
            outs = [(p.onset(j), p.dcset(j), *bench.build_output(p, j, 0))
                    for j in range(p.n_outputs)]
            internal = [checks.reachable(out[4]) for out in outs]
            groups.setdefault(kind, []).extend(
                (kind, f"{p.name}[{j},{k}]", outs[j], outs[k], [internal[j], internal[k]])
                for j, k in itertools.combinations(range(p.n_outputs), 2))
        self.pairs = interleave(list(groups.values()))
        self.passed = {}  # (file, operation) -> shape of a result that passed

    def round(self):
        return [(pair[0], self.pipeline_op(pair)) for pair in self.pairs]

    def pipeline_op(self, pair):
        def fn():
            results = [(op, self.combine(pair, op)) for op in (ops.XOR, ops.AND)]
            return lambda: [m for op, result in results for m in self.check(pair, op, *result)]
        return fn

    def combine(self, pair, op):
        """Both routes for one operation, with operand and memo faults."""
        kind, name, f, g, internal = pair
        fr, fi, gr, gi = f[2], f[4], g[2], g[4]
        rng = random.Random(f"{self.seed}|{name}|{op.name}")
        overlays = (faults.FaultOverlay(fi.store), faults.FaultOverlay(gi.store))
        victims = [(d, ov, u) for d, ov, ids in zip((fi, gi), overlays, internal)
                   for u in rng.sample(ids, min(self.spec["operand_faults"], len(ids)))]
        truth = [(d, u, d.store.node(u).index) for d, _, u in victims]
        try:
            for d, ov, u in victims:
                self.tracer.call("faults.inject", faults.inject, d, ov, u, faults.INDEX, rng)
            memo = ops.MemoTable(fault_rng=rng, fault_rate=self.spec["memo_fault_rate"])
            raw = self.tracer.call("resilient.resilient_apply", resilient.resilient_apply,
                            op, fi, gi, overlays, memo)
            padded = self.tracer.call("quasi.pad_chains", quasi.pad_chains, raw)
            merged = self.tracer.call("quasi.merge_quadratic", quasi.merge_quadratic, padded)
            table_free = self.tracer.call("indexres.ir_reduce", indexres.ir_reduce, merged)
            apply_memo = ops.MemoTable()
            combined = self.tracer.call("ops.apply", ops.apply, op, fr, gr, apply_memo)
            qr = self.tracer.call("quasi.build_qr", quasi.build_qr, combined)
            consed = self.tracer.call("indexres.ir_reduce", indexres.ir_reduce, qr)
            left = sum(len(ov) for ov in overlays)
            repaired = all(d.store.node(u).index == index for d, u, index in truth)
        finally:
            for ov in overlays:
                ov.restore()
            for d, u, index in truth:
                d.store.node(u).index = index
        stages = (memo, apply_memo, overlays, padded, merged, table_free, combined, qr, consed)
        return stages, left, repaired

    def check(self, pair, op, stages, left, repaired):
        kind, name, f, g, _ = pair
        memo, apply_memo, overlays, padded, merged, table_free, combined, qr, consed = stages
        t = self.tracer
        if t.enabled:
            size = {key: len(checks.reachable(d)) for key, d in
                    (("padded", padded), ("merged", merged), ("table_free", table_free),
                     ("qr", qr), ("consed", consed))}
            t.add("quasi.pad_chains.nodes_allocated", len(padded.store))
            t.add("merge.input", size["padded"])
            t.add("merge.kept", len(merged.store))
            t.add("quasi.build_qr.nodes_allocated", len(qr.store))
            t.add("indexres.ir_reduce.nodes_removed",
                  size["merged"] - size["table_free"] + size["qr"] - size["consed"])
            t.add("apply.hits", apply_memo.hits)
            t.add("apply.lookups", apply_memo.hits + apply_memo.misses)
            t.add("resilient.resilient_apply.memo_lost_hits", memo.lost_hits)
            t.add("resilient.index_reconstruct.calls", sum(ov.reconstruct_calls for ov in overlays))
            self.record_table((name, op.name, "apply"), combined.store.table,
                              combined.store, combined.store.ids())
            self.record_table((name, op.name, "qr"), qr.store.table, qr.store, qr.store.ids())
        problems = []
        if left:
            problems.append(f"{left} operand index flags left after resilient_apply")
        if not repaired:
            problems.append("resilient_apply wrote a wrong operand index")
        if not checks.isomorphic(table_free, consed):
            problems.append("table-free and hash-consed routes are not isomorphic")
        # A result isomorphic to one that passed in an earlier round computes
        # the same function; only the first round pays for the sampling.
        shape = checks.shape(table_free)
        if problems or self.passed.get((name, op.name)) != shape:
            rng = random.Random(f"{self.seed}|{name}|{op.name}|check")
            for a in checks.sample_assignments(f[2].n, f[0] + g[0], rng, 16):
                want = op(checks.cube_value(f[0], f[1], 0, a),
                          checks.cube_value(g[0], g[1], 0, a))
                if checks.evaluate(table_free, a) != want:
                    problems.append("table-free result wrong on a sampled assignment")
                    break
            if not problems:
                self.passed[name, op.name] = shape
        return [f"{name} {op.name}: {m}" for m in problems]


WORKLOADS = {w.name: w for w in (CorpusBuild, VerifyExhaustive, FaultCampaign,
                                  TableFreePipeline)}


def wrap(tracer):
    """The traced run's rebindings, for counts made inside other modules."""
    tracer.wrap(core, "fnv1a_pair")
    tracer.wrap(core, "evaluate")
    tracer.wrap(faults, "parent_map", span=True)
