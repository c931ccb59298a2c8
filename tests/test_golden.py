"""Reports are byte-identical to the checked-in golden files.

``tests/golden/regenerate.py`` writes the default-ladder reports of
``run_all`` and the deep-ladder study CSVs into a temporary directory, once
with one BLAS thread and once with two (each in its own process, since the
thread count is fixed when numpy loads BLAS), and every file must equal its
golden copy byte for byte.  Another numpy, BLAS build or machine may round
differently, so when ``env.json`` does not match the recorded environment
the test skips and names the field that differs; within the recorded
environment any moved byte fails.  A change that moves bits reruns
``regenerate.py`` and lists the moved files.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SETS = ("default", "deep")
NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|-?inf")


def regenerate(out: Path, threads: int):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"), str(out)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def report_files(root: Path) -> list[str]:
    return sorted(f"{name}/{p.name}" for name in SETS for p in (root / name).iterdir())


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


def moved_files(got: Path) -> list[str]:
    names = report_files(GOLDEN)
    assert report_files(got) == names
    moved = []
    for name in names:
        old, new = (GOLDEN / name).read_bytes(), (got / name).read_bytes()
        if old != new:
            moved.append(f"{name}: {largest_move(old, new)}")
    return moved


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
