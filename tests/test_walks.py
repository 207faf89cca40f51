"""Walks deeper than the interpreter's recursion limit, what building leaves
for the garbage collector, and a guard against recursive functions."""

import ast
import gc
import io
import itertools
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import resilient_obdd as ro
from resilient_obdd.cli import main
from resilient_obdd.core import rebuild

SRC = Path(ro.__file__).resolve().parent
N = 1200  # above the default recursion limit of 1000


def random_cube(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01-") for _ in range(n))


def satisfying(rng: random.Random, cube: str) -> list[int]:
    return [rng.randint(0, 1) if c == "-" else int(c) for c in cube]


def test_full_width_cube_builds():
    d = ro.from_cubes(N, ["1" * N])
    assert ro.count_nodes(d) == N
    assert ro.evaluate(d, [1] * N) == 1
    assert ro.evaluate(d, [1] * (N - 1) + [0]) == 0


def test_wide_random_cubes_through_every_stage():
    rng = random.Random(N)
    cubes = [random_cube(rng, N) for _ in range(2)]
    f, g = (ro.from_cubes(N, [c]) for c in cubes)
    literals = sum(c != "-" for c in cubes[0])
    assert ro.count_nodes(f) == literals
    assert ro.export_dot(f).count(" -> ") == 2 * literals

    qr = ro.build_qr(f)
    ir = ro.ir_reduce(qr)
    assert ro.is_ir_reduced(ir)
    assert literals <= ro.count_nodes(ir) <= ro.count_nodes(qr)

    either = ro.apply(ro.OR, f, g)
    table_free = ro.reduction_procedure(
        ro.resilient_apply(ro.OR, ir, ro.ir_reduce(ro.build_qr(g))))
    assert ro.isomorphic(table_free, ro.ir_reduce(ro.build_qr(either)))
    samples = [satisfying(rng, c) for c in cubes]
    samples += [[rng.randint(0, 1) for _ in range(N)] for _ in range(8)]
    for a in samples:
        want = int(any(ro.matches_cube(c, a) for c in cubes))
        assert ro.evaluate(either, a) == ro.evaluate(table_free, a) == want

    vector = ro.build_node_vector(qr)
    assert vector.subgraph[qr.root] == len(vector) == ro.count_nodes(qr) + 2


def test_rebuild_refuses_a_key_that_is_its_own_descendant():
    calls = itertools.count()

    def split(k):
        assert next(calls) < 100_000, "the cycle went unnoticed"
        return k, (k + 1) % 3, (k + 1) % 3

    with pytest.raises(ro.ContractError, match="its own descendant"):
        rebuild(0, lambda k: None, split, lambda *parts: 0, {})


def test_cli_stats_on_a_wide_pla(tmp_path):
    rng = random.Random(7)
    cubes = [random_cube(rng, N) for _ in range(2)]
    path = tmp_path / "deep.pla"
    path.write_text(f".i {N}\n.o 2\n{cubes[0]} 10\n{cubes[1]} 01\n.e\n")
    with redirect_stdout(io.StringIO()) as out:
        assert main(["stats", str(path)]) == 0
    ro_nodes = sum(c != "-" for c in cubes[0]) + sum(c != "-" for c in cubes[1])
    assert out.getvalue().splitlines()[1].split()[4] == str(ro_nodes)  # the ro column


def test_builds_leave_no_reference_cycles():
    rng = random.Random(11)
    onsets = [[random_cube(rng, 14) for _ in range(5)] for _ in range(2)]
    gc.collect()
    gc.disable()  # keep any cycle for the count below
    try:
        f, g = (ro.from_cubes(14, onset) for onset in onsets)
        results = [ro.build_qr(f), ro.apply(ro.XOR, f, g)]
        del f, g, results
        assert gc.collect() == 0
    finally:
        gc.enable()


def self_calls(source: str):
    """(function, line) for every call of a function by its own name."""
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if isinstance(callee, ast.Name):
                name = callee.id
            elif isinstance(callee, ast.Attribute) and getattr(callee.value, "id", None) == "self":
                name = callee.attr
            else:
                continue
            if name == fn.name:
                yield fn.name, call.lineno


def test_self_call_guard_sees_recursion():
    source = ("def walk(u):\n    return walk(u - 1)\n"
              "class A:\n    def f(self):\n        return self.f()\n")
    assert list(self_calls(source)) == [("walk", 2), ("f", 5)]


def test_no_function_in_the_package_calls_itself():
    found = [(path.name, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in self_calls(path.read_text())]
    assert found == []
