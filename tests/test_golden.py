"""Reports are byte-identical to the checked-in golden files.

``tests/golden/regenerate.py`` writes the default-ladder reports of
``run_all`` and the deep-ladder study CSVs into a temporary directory, once
with one BLAS thread and once with two (each in its own process, since the
thread count is fixed when numpy loads BLAS), and every file must equal its
golden copy byte for byte.  Another numpy, BLAS build or machine may round
differently, so when ``env.json`` does not match the recorded environment
the test skips and names the field that differs; within the recorded
environment any moved byte fails.  A change that moves bits reruns
``regenerate.py``, which prints the moved files.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.regenerate import moved, reports

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def regenerate(out: Path, threads: int):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"), str(out)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def moved_files(got: Path) -> list[str]:
    old, new = reports(GOLDEN), reports(got)
    assert new.keys() == old.keys()
    return moved(old, new)


@pytest.mark.parametrize("threads", [1, 2])
def test_reports_match_the_golden_files(tmp_path, threads):
    regenerate(tmp_path, threads)
    recorded = json.loads((GOLDEN / "env.json").read_text())
    here = json.loads((tmp_path / "env.json").read_text())
    differs = [f"{key}: golden {recorded.get(key)!r}, here {here.get(key)!r}"
               for key in sorted(set(recorded) | set(here)) if recorded.get(key) != here.get(key)]
    if differs:
        pytest.skip("golden files were written in another environment: " + "; ".join(differs))
    moved = moved_files(tmp_path)
    for line in moved:
        print(line)
    assert not moved, "reports moved against tests/golden:\n" + "\n".join(moved)
