"""Reports do not depend on the BLAS thread count.

The thread count is fixed when numpy loads BLAS, so each count needs its own
process: the same script runs once with one thread and once with two, and
both must print the same bits.  On a one-CPU host BLAS may run one thread
either way; the test then shows no fault but still runs.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Every reduction whose length grows with N, each on more than 1e4 entries:
# the clamped energy and its derivatives, the study quadrature on both
# paths, and a short raw solve (the descent's slope g.p).
CHILD = """
import hashlib
import numpy as np
from maniafem.functionals import clamp_level, energy_clamped, fe_objective
from maniafem.mesh import Mesh1D, interpolate
from maniafem.optimize import SolveConfig, initial_values, minimize_from
from maniafem.quadrature import StudyGrid, gauss_rule, graded_grid, integrate_cells
from maniafem.studies import interp_error

def digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()

root = lambda x: np.power(x, 1.0 / 3.0)
mesh = Mesh1D(16384)
f = interpolate(mesh, root)
print(repr(energy_clamped(f, 0.035)))
_, derivatives = fe_objective(mesh, clamp_level(mesh, 0.035))
print([digest(a) for a in derivatives(f.nodal_values[1:-1])])
print(repr(interp_error(1.0 / 3.0, StudyGrid(Mesh1D(2048)), 1.1)))
print(repr(integrate_cells(gauss_rule(8), root, graded_grid(Mesh1D(2048)))))
res = minimize_from(mesh, initial_values(mesh, "interp_root"), SolveConfig(max_iters=3))
print(repr(res.energy), res.iters, digest(res.minimizer.nodal_values))
"""


def run_child(threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_are_bitwise_equal_under_one_and_two_blas_threads():
    one, two = run_child(1), run_child(2)
    assert one.count("\n") == 5
    assert one == two
