"""Seeded, single-threaded benchmark of the resilient_obdd package.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-build --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``corpus-build``,
``verify-exhaustive``, ``fault-campaign`` and ``table-free-pipeline``.  The
package is imported from ``src/`` next to this directory; nothing is
installed.

A run sets up ``SETUP_REPS`` times, reports the median and keeps the last
set-up, then repeats the workload's round, at least ``BEST_OF`` times, until
the timed part reaches ``--seconds``, always finishing a round so that every
run has the same mix of ops.  Only the package calls are timed; each op's
outputs are checked between ops, off the clock.  With ``--trace 0`` it
reports the end-to-end metrics, taken from each step's ``BEST_OF`` fastest
runs (see :func:`best_of`).  With ``--trace 1`` it runs one untraced round
for calibration, then whole traced rounds until ``--seconds``, and reports
the per-layer metrics per round: self time of each layer's spans and counts
read from outside.  The spans go to ``perfbench/out/``.  Every time either
reports is scaled to a host of fixed speed, measured by a reference loop
timed alongside the package (see :func:`host_factor`).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it,
starting with ``report``, carries what that object has no room for: the
figures that can read 0 (``fail_rate``, the edge recovery rates) or that
only restate the run length (``run_s``), the causes of failures, the tail
percentile, the sample counts and the unscaled times.  Exit status: 0 when
every output check passed and no op raised anything but the deep class's
known RecursionError, 1 otherwise, 2 when the package sources are missing or
the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("corpus-build", "verify-exhaustive", "fault-campaign", "table-free-pipeline")
SETUP_REPS = 3
BEST_OF = 3
KNOWN_ERRORS = {"deep: RecursionError"}  # ROADMAP item 3; counted as failed ops
TAIL_PERCENTILES = (99.0, 90.0, 75.0, 50.0)
REFERENCE_ITEMS = 10_000  # keys reference_work() conses
REFERENCE_S = 0.003  # reported times are scaled to a reference_work() of this
REFERENCES_PER_ROUND = 12  # reference samples spread evenly over a round
LAYER_SPANS = (
    "pla.parse_pla", "core.from_cubes", "bench.verify_function", "quasi.build_qr",
    "quasi.pad_chains", "quasi.merge_quadratic", "indexres.ir_reduce", "ops.apply",
    "resilient.resilient_apply", "resilient.index_reconstruct",
    "faults.reconstruct_index_ut", "faults.parent_map", "faults.build_unique_table",
    "faults.inject", "edges.build_node_vector", "edges.reconstruct_edge",
)
PER_ROUND_COUNTS = (
    "pla.cubes", "core.from_cubes.nodes_allocated", "core.fnv1a_pair.calls",
    "core.evaluate.calls", "bench.verify_function.assignments",
    "quasi.build_qr.nodes_allocated", "quasi.pad_chains.nodes_allocated",
    "indexres.ir_reduce.nodes_removed", "resilient.resilient_apply.memo_lost_hits",
    "resilient.index_reconstruct.calls",
)


class Tally:
    """Outcome of the steps run so far."""

    def __init__(self):
        self.timed = 0.0
        self.times: dict[int, list[float]] = defaultdict(list)  # by position in the round
        self.returned: set[int] = set()  # positions of ops that returned
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter = Counter()
        self.errors: Counter = Counter()
        self.problems: list[str] = []
        self.reference: dict[int, list[float]] = defaultdict(list)  # by position


def run_step(position: int, kind: str, fn, tracer, tally: Tally, prep: str):
    """Time one step, then check its outputs off the clock.

    The cyclic garbage collector is off while the step is timed, as in
    ``timeit``: its pauses scan every object the benchmark itself keeps,
    so they would time the harness more than the package.  Reference
    counting still frees the step's objects on the clock; the collector
    catches up during the checks.
    """
    is_op = kind != prep
    tracer.op_id += 1
    tracer.recording = tracer.enabled
    gc.disable()
    start = perf_counter()
    try:
        finish = tracer.call(f"op.{kind}" if is_op else kind, fn)
    except Exception as exc:  # a failed op is counted, the run goes on
        finish, error = None, exc
    elapsed = perf_counter() - start
    gc.enable()
    tracer.recording = False
    tally.timed += elapsed
    tally.times[position].append(elapsed)
    if is_op:
        tally.attempted += 1
        tally.kinds[kind] += 1
    if finish is None:
        tally.errors[f"{kind}: {type(error).__name__}"] += 1
        tally.failed += is_op
        return
    if is_op:
        tally.returned.add(position)
    try:
        problems = finish()
    except Exception as exc:  # a check that cannot run is a failed op
        tally.errors[f"{kind} check: {type(exc).__name__}"] += 1
        tally.failed += is_op
        return
    if problems:
        tally.failed += is_op
        tally.problems += problems


def run_rounds(workload, tracer, tally, seconds: float, prep: str,
               min_rounds: int = 1) -> int:
    """Whole rounds, at least ``min_rounds``, until this call's timed part
    reaches ``seconds``; returns the number of rounds."""
    rounds, begin = 0, tally.timed
    while rounds < min_rounds or tally.timed - begin < seconds:
        steps = workload.round()
        stride = max(1, len(steps) // REFERENCES_PER_ROUND)
        for position, (kind, fn) in enumerate(steps):
            if position % stride == 0:
                tally.reference[position].append(time_reference())
            run_step(position, kind, fn, tracer, tally, prep)
        rounds += 1
    return rounds


def reference_work(items: int = REFERENCE_ITEMS) -> int:
    """Fixed work that uses the interpreter as the package does: small
    tuple keys hash-consed into a growing dict.  No package code runs."""
    table: dict = {}
    for i in range(items):
        key = (i * 7919 % 1021, i % 509, i & 255)
        if table.get(key) is None:
            table[key] = len(table)
    return len(table)


def time_reference() -> float:
    """Seconds one ``reference_work()`` takes, timed as a step is."""
    gc.disable()
    start = perf_counter()
    reference_work()
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def host_factor(tally: Tally) -> float:
    """``REFERENCE_S`` over the run's fast reference time.

    The shared host's speed drifts by up to 1.8x over minutes, far longer
    than the fast spells :func:`best_of` picks from, so a whole run can be
    slow.  ``reference_work()`` is timed at ``REFERENCES_PER_ROUND``
    positions spread over every round, in the same process and the same
    spells as the package, and its fast time is taken the way a step's is:
    the mean of the ``BEST_OF`` fastest samples at each position, averaged
    over the positions.  It slows with the package: over 8-second windows of
    corpus-build, raw ops/s ranged 246-424 while ops/s times the reference
    time stayed within 1.16-1.34.  Every reported time is multiplied by this
    factor (every rate divided by it), giving the figure for a host on which
    ``reference_work()`` takes ``REFERENCE_S``, about its time on a 2-vCPU
    shared host in a fast spell.  No package code runs in the reference, so
    a change to the package moves the scaled figures as much as the raw
    ones, which the ``report`` line also prints.
    """
    fast = [statistics.fmean(sorted(times)[:BEST_OF]) for times in tally.reference.values()]
    return REFERENCE_S / statistics.fmean(fast)


def best_of(tally: Tally) -> tuple[float, list[float]]:
    """(ops per second, op latencies) over the ``BEST_OF`` fastest runs of
    each step of the round.

    Within a second the host's speed swings by up to half, so one timing of
    a step says little.  Every step runs once a round, some ten to thirty
    times a run, and its fastest runs fall in the fast moments every run
    meets; pooled figures would follow the share of the run that happened
    to be slow.  Slow spells of a whole run are left to :func:`host_factor`.
    The throughput counts every timed step, set-up steps and ops that raise
    included.  A run of ``BEST_OF`` rounds or more gives ``BEST_OF`` samples
    per returned op, the same count on every run.
    """
    best = {position: sorted(times)[:BEST_OF] for position, times in tally.times.items()}
    samples = [t for position in sorted(tally.returned) for t in best[position]]
    return ratio(len(samples), sum(map(sum, best.values()))), samples


def run_traced(workload, tracer, tally, seconds: float, prep: str, wrap):
    """One untraced calibration round, then whole traced rounds.

    Returns (traced rounds, untraced seconds per round, traced seconds).
    """
    tracer.enabled = False
    run_rounds(workload, tracer, tally, 0.0, prep)
    calibration = tally.timed
    tracer.enabled = True
    wrap(tracer)
    try:
        rounds = run_rounds(workload, tracer, tally, seconds, prep)
    finally:
        tracer.unwrap()
    return rounds, calibration, tally.timed - calibration


def tail(latencies: list[float]):
    """(percentile, value, samples beyond): the highest percentile in
    ``TAIL_PERCENTILES`` with at least ten samples beyond it (the maximum
    when there is none)."""
    ordered = sorted(latencies) or [0.0]
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def edge_rates(outcomes) -> dict:
    """Fast-mode successes and strict-mode refusals per edge trial."""
    trials = outcomes["edge.trials"]
    return {"edge_success_rate": (ratio(outcomes["edge.fast_correct"], trials), "ratio"),
            "edge_ambiguous_rate": (ratio(outcomes["edge.ambiguous"], trials), "ratio")}


def per_layer_metrics(workload, tracer, rounds: int, calibration: float, traced: float,
                      factor: float):
    """Per round: each layer's self time, scaled by ``factor`` (see
    :func:`host_factor`), and the counts."""
    counts, outcomes = tracer.counts, workload.outcomes
    self_times = tracer.self_times()
    metrics = {f"{name}.s": (self_times.get(name, 0.0) * factor / rounds, "s")
               for name in LAYER_SPANS}
    metrics.update({name: (counts[name] / rounds, "count") for name in PER_ROUND_COUNTS})
    edge_trials = outcomes["edge.trials"]
    metrics.update({
        "core.unique_table.max_bucket": (tracer.maxima["core.unique_table.max_bucket"], "count"),
        "core.unique_table.mean_nonempty_bucket":
            (ratio(counts["table.entries"], counts["table.nonempty"]), "count"),
        "quasi.merge_quadratic.kept_ratio": (ratio(counts["merge.kept"], counts["merge.input"]),
                                             "ratio"),
        "ops.apply.memo_hit_ratio": (ratio(counts["apply.hits"], counts["apply.lookups"]), "ratio"),
        "faults.reconstruct_index_ut.range_width_mean":
            (ratio(counts["ut.width"], counts["ut.trials"]), "count"),
        "edges.reconstruct_edge.candidates_mean":
            (ratio(counts["edge.candidates"], edge_trials), "count"),
        "edges.reconstruct_edge.probes_to_first_mean":
            (ratio(counts["edge.probes_to_first"], edge_trials), "count"),
        **edge_rates(outcomes),
        "trace.overhead_ratio": (ratio(traced / rounds, calibration) - 1.0, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "resilient_obdd" / "__init__.py").is_file():
        print(f"error: package sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import workloads  # imports resilient_obdd; timed as part of set-up
    import_s = perf_counter() - start
    from tracing import Tracer

    tracer = Tracer(bool(args.trace))
    # A set-up lasts up to a few seconds and meets the host's slow and fast
    # spells alike, so it is scaled by the host's typical speed around it,
    # the median of reference samples taken before and after each set-up.
    setup_times = []
    setup_references = [time_reference() for _ in range(BEST_OF)]
    for _ in range(SETUP_REPS):
        workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
        start = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - start)
        setup_references += [time_reference() for _ in range(BEST_OF)]
    setup_s = import_s + statistics.median(setup_times)
    setup_factor = REFERENCE_S / statistics.median(setup_references)
    # Freeze the set-up's objects so that full collections in the timed part
    # scan what the ops allocate, not the retained inputs, whose size would
    # otherwise set the cost of every such pause.
    gc.collect()
    gc.freeze()

    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "import_s": import_s, "setup_reps_s": setup_times}
    if args.trace:
        rounds, calibration, traced = run_traced(workload, tracer, tally, args.seconds,
                                                 workloads.PREP, workloads.wrap)
        metrics = per_layer_metrics(workload, tracer, rounds, calibration, traced,
                                    host_factor(tally))
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "rounds": rounds})
        report.update(calibration_round_s=calibration, traced_s=traced, spans=len(tracer.spans),
                      trace_file=str(trace_path.relative_to(HERE.parent)))
    else:
        rounds = run_rounds(workload, tracer, tally, args.seconds, workloads.PREP, BEST_OF)
        ops_per_s, samples = best_of(tally)
        percentile, tail_s, beyond = tail(samples)
        p50_s = statistics.median(samples) if samples else 0.0  # 0 when no op returns
        factor = host_factor(tally)
        metrics = {
            "setup_s": (setup_s * setup_factor, "s"),
            "ops_per_s": (ops_per_s / factor, "1/s"),
            "op_p50_ms": (p50_s * factor * 1000, "ms"),
            "op_tail_ms": (tail_s * factor * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        report.update(best_of=BEST_OF, op_samples=len(samples), op_tail_percentile=percentile,
                      op_tail_beyond=beyond, host_factor=factor, setup_factor=setup_factor,
                      reference_positions=len(tally.reference),
                      unscaled={"setup_s": setup_s, "ops_per_s": ops_per_s,
                                "op_p50_ms": p50_s * 1000, "op_tail_ms": tail_s * 1000})
    # end-to-end figures that can read 0 or only measure the run length, so
    # they stay out of the result object
    more = {"run_s": (tally.timed, "s"),
            "fail_rate": (ratio(tally.failed, tally.attempted), "ratio")}
    if workload.outcomes["edge.trials"]:
        more.update(edge_rates(workload.outcomes))
    report.update(rounds=rounds, ops_by_kind=dict(tally.kinds), errors=dict(tally.errors),
                  problems=tally.problems[:5],
                  more_metrics={k: {"value": v, "unit": u} for k, (v, u) in more.items()})
    if "deep" in tally.kinds:
        report["deep_share"] = tally.kinds["deep"] / tally.attempted
    print("report " + json.dumps(report, sort_keys=True))
    # any exception other than the deep class's known crash is a defect
    correct = not tally.problems and set(tally.errors) <= KNOWN_ERRORS
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
