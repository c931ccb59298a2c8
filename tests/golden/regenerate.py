"""Write the golden reports that ``tests/test_golden.py`` compares against.

    OPENBLAS_NUM_THREADS=1 python tests/golden/regenerate.py [OUT_DIR]

OUT_DIR defaults to this script's directory.  It receives:

- ``default/``: the nine CSVs and ``summary.json`` of ``run_all`` on the
  default ladder N = 8 ... 1024;
- ``deep/``: the CSVs of every study but the gap demo on N = 8 ... 16384;
- ``env.json``: the numpy version, the BLAS library and the machine the
  reports were written with.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from maniafem.experiments import STUDIES, ExperimentConfig, run_all, run_study

DEEP_LADDER = tuple(2**k for k in range(3, 15))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "machine": platform.machine()}


def main(out: Path):
    run_all(ExperimentConfig(output_dir=str(out / "default")))
    deep = ExperimentConfig(mesh_sizes=DEEP_LADDER, output_dir=str(out / "deep"))
    for spec in STUDIES:
        if spec.name != "gap_demo":
            run_study(spec, deep)
    (out / "env.json").write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent)
