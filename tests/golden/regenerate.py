"""Write the golden reports that ``tests/test_golden.py`` compares against.

    OPENBLAS_NUM_THREADS=1 python tests/golden/regenerate.py [OUT_DIR]

OUT_DIR defaults to this script's directory.  It receives:

- ``default/``: the nine CSVs and ``summary.json`` of ``run_all`` on the
  default ladder N = 8 ... 1024;
- ``deep/``: the CSVs of every study on N = 8 ... 16384 but the gap
  study's raw-ladder table ``gap_demo.csv``;
- ``env.json``: the numpy version, the BLAS library and the machine the
  reports were written with.

It prints every report whose bytes it changed, with the report's largest
relative move.
"""

from __future__ import annotations

import json
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np

from maniafem.experiments import (
    STUDIES, ExperimentConfig, run_all, run_min_convergence, run_study, write_csv)

DEEP_LADDER = tuple(2**k for k in range(3, 15))
SETS = ("default", "deep")
NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|-?inf")


def reports(root: Path) -> dict[str, bytes]:
    """The bytes of every report under ``root``, by its path within it."""
    return {f"{name}/{p.name}": p.read_bytes()
            for name in SETS if (root / name).is_dir() for p in (root / name).iterdir()}


def largest_move(old: bytes, new: bytes) -> str:
    """The largest relative change between the numbers of two reports."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if len(a) != len(b) or NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return "layout or text differs"
    worst = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            rel = abs(x - y) / max(abs(x), abs(y))
            worst = max(worst, math.inf if math.isnan(rel) else rel)
    return f"largest relative move {worst:.3g}"


def moved(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per report in both sets whose bytes differ, with its move."""
    return [f"{name}: {largest_move(old[name], new[name])}"
            for name in sorted(old.keys() & new.keys()) if old[name] != new[name]]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "machine": platform.machine()}


def main(out: Path):
    before = reports(out)
    run_all(ExperimentConfig(output_dir=str(out / "default")))
    deep = ExperimentConfig(mesh_sizes=DEEP_LADDER, output_dir=str(out / "deep"))
    for spec in STUDIES:
        if spec.name != "gap_demo":
            run_study(spec, deep)
    # the gap study's two tables of its clamped ladder, without the deep raw ladder
    study = run_min_convergence(deep)
    write_csv(out / "deep" / "min_convergence.csv", study.columns, study.rows)
    write_csv(out / "deep" / "recovery_gap.csv", ("h", "value"),
              [(h, energy) for h, _, energy, _ in study.rows])
    (out / "env.json").write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")
    for line in moved(before, reports(out)):
        print(line)


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent)
