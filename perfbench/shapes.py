"""Node counts of the generated corpus next to the LGSynth93 reference.

Run from the repository root:

    python3 perfbench/shapes.py [--seed 1]

For every workload and class in ``workloads.SPECS`` it builds each output in
the three regimes and prints min / median / max of the reachable node
counts, after the same figures per output of ``bench.REFERENCE_COUNTS``
(totals divided by the number of outputs).  Only the benchmark's own
shapes are printed; the bundled ``plas/`` and the deep class are left out.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from resilient_obdd import bench, pla  # noqa: E402
from tracing import Tracer  # noqa: E402

REGIMES = ("ro", "ir", "qr")
# REFERENCE_COUNTS rows are (inputs, outputs, qr, ro, ir)
REFERENCE_COLUMN = {"qr": 2, "ro": 3, "ir": 4}


def reference_sizes() -> dict[str, list[float]]:
    """Per-output mean node count of each reference file, per regime."""
    rows = bench.REFERENCE_COUNTS.values()
    return {r: sorted(row[REFERENCE_COLUMN[r]] / row[1] for row in rows) for r in REGIMES}


def class_sizes(name: str, seed: int) -> dict[str, dict[str, list[int]]]:
    """Class name -> regime -> node count of every generated output."""
    sizes: dict[str, dict[str, list[int]]] = {}
    for file_name, text in workloads.WORKLOADS[name](seed, Tracer(False)).corpus():
        p = pla.parse_pla(text, file_name)
        per_regime = sizes.setdefault(file_name.rsplit("_", 1)[0], {r: [] for r in REGIMES})
        for j in range(p.n_outputs):
            ro, qr, ir = bench.build_output(p, j, 0)
            for regime, d in zip(REGIMES, (ro, ir, qr)):
                per_regime[regime].append(len(checks.reachable(d)))
    return sizes


def summary(values) -> str:
    return f"{min(values):7.1f} {statistics.median(values):7.1f} {max(values):7.1f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    header = "".join(f"  {r + ' min/med/max':>23}" for r in REGIMES)
    print(f"{'':28}{header}")
    ref = reference_sizes()
    print(f"{'LGSynth93 reference':28}" + "".join(f"  {summary(ref[r])}" for r in REGIMES))
    for name in workloads.SPECS:
        for cls, per_regime in class_sizes(name, args.seed).items():
            print(f"{name + ' ' + cls:28}"
                  + "".join(f"  {summary(per_regime[r])}" for r in REGIMES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
