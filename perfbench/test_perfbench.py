"""Tests of the benchmark itself: schema, repeatable counts, agreement with
the CLI, and checks that catch what they are meant to catch.  No timing is
bounded.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import shapes  # noqa: E402
import workloads  # noqa: E402
from corpus import PlaClass  # noqa: E402
from resilient_obdd import bench, cli, core, quasi  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# n = 8 versions of every workload, small enough for a test
SMALL = {
    "corpus-build": {"classes": [PlaClass("b8", 8, 2, 10, 0.4, 0.5, 0.1, 2)],
                     "bundled": True, "deep": (1200, 2)},
    "verify-exhaustive": {"classes": [PlaClass("v8", 8, 2, 8, 0.4, 0.5, 0.1, 2)]},
    "fault-campaign": {"classes": [PlaClass("f8", 8, 2, 12, 0.4, 0.5, 0.1, 2)],
                       "trials": {"index-ut": 6, "index-ir": 5, "edge": 4}, "ir_faults": 3},
    "table-free-pipeline": {"classes": [PlaClass("p8", 8, 2, 8, 0.4, 0.5, 0.1, 2)],
                            "operand_faults": 2, "memo_fault_rate": 0.2},
}
SEED = 7


def small(name, trace=False):
    tracer = Tracer(trace)
    w = workloads.WORKLOADS[name](SEED, tracer, SMALL[name])
    w.setup()
    return w, tracer


def one_round(name):
    w, tracer = small(name)
    tally = run.Tally()
    run.run_rounds(w, tracer, tally, 0.0, workloads.PREP)
    return w, tally


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(SPEC)) < 64 * 1024


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric(trace, section):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-free-pipeline",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_missing_sources_fail_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(name):
    seen = []
    for _ in range(2):
        w, tracer = small(name, trace=True)
        tally = run.Tally()
        rounds, _, _ = run.run_traced(w, tracer, tally, 0.0, workloads.PREP, workloads.wrap)
        assert rounds == 1
        metrics = run.per_layer_metrics(w, tracer, rounds, 1.0, 1.0, 1.0)
        counts = {k: v for k, (v, unit) in metrics.items() if unit != "s"}
        counts.pop("trace.overhead_ratio")
        seen.append((counts, dict(w.outcomes), tally.attempted, tally.failed))
        assert core.fnv1a_pair.__module__ == "resilient_obdd.core"  # unwrapped again
    assert seen[0] == seen[1]
    assert not tally.problems


def test_an_op_that_raises_makes_the_run_incorrect(monkeypatch, capsys):
    def broken(d):
        raise ValueError("broken layer")

    monkeypatch.setattr(quasi, "pad_chains", broken)
    code = run.main(["--workload", "table-free-pipeline", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_only_the_deep_class_fails():
    w, tally = one_round("corpus-build")
    assert not tally.problems
    assert tally.kinds["deep"] == 2
    assert set(tally.errors) <= {"deep: RecursionError"}
    assert tally.failed == sum(tally.errors.values())


def test_stats_totals_match_the_cli(tmp_path):
    w, tally = one_round("corpus-build")
    paths = []
    for kind, name, text in w.files:
        if kind != "deep":  # the CLI cannot build these either
            paths.append(tmp_path / f"{name}.pla")
            paths[-1].write_text(text)
    target = tmp_path / "stats.json"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["stats", *map(str, paths), "--json", str(target)]) == 0
    rows = json.loads(target.read_text())
    assert len(rows) == len(paths)
    for row in rows:
        for regime in ("ro", "ir", "qr"):
            assert row[f"{regime}_nodes"] == w.outcomes[row["benchmark"], regime]


@pytest.mark.parametrize("mode", ["index-ut", "index-ir", "edge"])
def test_campaign_counts_match_the_cli(tmp_path, mode):
    w, tally = one_round("fault-campaign")
    assert not tally.problems and tally.failed == 0
    trials = SMALL["fault-campaign"]["trials"][mode]
    for name, text in w.corpus():
        path = tmp_path / f"{name}.pla"
        path.write_text(text)
        target = tmp_path / f"{name}.csv"
        argv = ["inject-recover", str(path), "--mode", mode, "--trials", str(trials),
                "--seed", str(SEED), "--csv", str(target), "--faults", "3"]
        with redirect_stdout(io.StringIO()):
            cli.main(argv)
        for row in csv.DictReader(target.read_text().splitlines()):
            label = f"{name}[{row['output_idx']}]"
            if mode == "edge":
                size = int(row["table_size"])
                assert int(row["successes"]) == w.outcomes[label, "edge", size, "successes"]
                assert int(row["ambiguous"]) == w.outcomes[label, "edge", size, "ambiguous"]
            else:
                assert int(row["recovered"]) == w.outcomes[label, mode]


def test_pipeline_and_verify_rounds_pass():
    for name in ("verify-exhaustive", "table-free-pipeline"):
        w, tally = one_round(name)
        assert tally.attempted == len(w.round()) >= 2
        assert tally.failed == 0 and not tally.problems


def test_negative_control_catches_a_verify_that_stops_checking(monkeypatch):
    monkeypatch.setattr(bench, "verify_function", lambda *args, **kwargs: [])
    _, tally = one_round("verify-exhaustive")
    assert tally.failed == 1
    assert "accepted a wrong diagram" in tally.problems[0]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_class_sizes_lie_in_the_reference_range(name):
    ro = shapes.reference_sizes()["ro"]
    for cls, per_regime in shapes.class_sizes(name, SEED).items():
        assert ro[0] <= statistics.median(per_regime["ro"]) <= ro[-1], cls


def test_oracles_agree_with_the_package():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 7)
        bits = [rng.randint(0, 1) for _ in range(1 << n)]
        d = core.from_truth_table(n, bits)
        assert checks.diagram_bits(d) == sum(b << k for k, b in enumerate(bits))
        assert len(checks.reachable(d)) == core.count_nodes(d)
        assert checks.isomorphic(d, core.reduce_robdd(d))
        assert checks.isomorphic(d, core.negate(d)) == core.isomorphic(d, core.negate(d))
        assert checks.shape(d) == checks.shape(core.reduce_robdd(d))
        assert (checks.shape(d) == checks.shape(core.negate(d))) == checks.isomorphic(
            d, core.negate(d))
    onset = ["1-0", "011"]
    want = [checks.cube_value(onset, [], 0, a) for a in core.assignments(3)]
    assert checks.function_bits(3, onset, [], 0) == sum(b << k for k, b in enumerate(want))
