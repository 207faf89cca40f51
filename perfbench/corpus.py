"""Seeded synthetic PLA corpus.

A corpus is a list of ``(name, text)`` pairs in PLA format: input cubes over
``{0,1,-}`` and output columns over ``{0,1,~}``.  Each :class:`PlaClass`
fixes the shape of its files (width, outputs, cubes, don't-care density);
the seed fixes their contents.  The program under test only ever receives
the generated text, which goes through ``pla.parse_pla`` like any file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BUNDLED = Path(__file__).resolve().parent.parent / "plas"


@dataclass(frozen=True)
class PlaClass:
    """Shape of one class of generated PLA files."""

    name: str
    n: int          # input variables
    outputs: int    # output columns
    cubes: int      # cube rows
    dash: float     # share of '-' in each cube
    on: float       # share of '1' in output columns
    dc: float       # share of '~' in output columns
    files: int      # files of this class per corpus


def generate_pla(cls: PlaClass, rng: random.Random, name: str) -> str:
    """One PLA file of the given class.

    Each cube gets exactly ``round(dash * n)`` dashes, and each output column
    exactly ``round(on * cubes)`` ON rows (at least one) and
    ``round(dc * cubes)`` don't-care rows, so functions of one class differ
    in which literals and cubes they hold, not in how many.  A cube with few
    literals would otherwise make some seeds' diagrams much larger than
    others'.
    """
    dashes = min(round(cls.dash * cls.n), cls.n - 1)  # an all-dash cube is constant
    rows = []
    for _ in range(cls.cubes):
        row = [rng.choice("01") for _ in range(cls.n)]
        for i in rng.sample(range(cls.n), dashes):
            row[i] = "-"
        rows.append(row)
    columns = []
    n_on = max(1, round(cls.on * cls.cubes))
    n_dc = min(round(cls.dc * cls.cubes), cls.cubes - n_on)
    for _ in range(cls.outputs):
        picked = rng.sample(range(cls.cubes), n_on + n_dc)
        column = ["0"] * cls.cubes
        for k, row in enumerate(picked):
            column[row] = "1" if k < n_on else "~"
        columns.append(column)
    lines = [f"# {name}: seeded class {cls.name}", f".i {cls.n}", f".o {cls.outputs}",
             f".p {cls.cubes}"]
    lines += ["".join(row) + " " + "".join(col[r] for col in columns)
              for r, row in enumerate(rows)]
    lines.append(".e")
    return "\n".join(lines) + "\n"


def single_cube_pla(n: int, outputs: int, rng: random.Random, name: str) -> str:
    """``outputs`` columns whose ON-sets are one full-width cube each."""
    lines = [f"# {name}: one cube per output", f".i {n}", f".o {outputs}",
             f".p {outputs}"]
    for j in range(outputs):
        ins = "".join(rng.choice("01-") for _ in range(n))
        lines.append(f"{ins} {'0' * j}1{'0' * (outputs - j - 1)}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


def generate(classes, seed: int, tag: str = "") -> list[tuple[str, str]]:
    """Every file of every class, in class order; same seed, same text."""
    corpus = []
    for cls in classes:
        rng = random.Random(f"{seed}|{tag}|{cls.name}")
        for k in range(cls.files):
            name = f"{cls.name}_{k}"
            corpus.append((name, generate_pla(cls, rng, name)))
    return corpus


def bundled() -> list[tuple[str, str]]:
    """The PLA files shipped with the repository, sorted by name."""
    return [(p.stem, p.read_text()) for p in sorted(BUNDLED.glob("*.pla"))]
