"""The raw ladder's one start reaches the minimum the other starts reach.

``solve_ladder`` solves each raw mesh once, from the linear ramp.  These
tests solve every mesh of the default ladder from two other starts, the
interpolant of x^(1/3) and the prolongated previous reported minimum, and
the coarse meshes from seeded random monotone starts too.
None may end more than 4 ulps below the reported minimum: that is the
clamped ladder's tie rule, under which two solves of one minimum count as
equal.  Each must be a certified local minimum, and all end on the same
nodal values within 1e-10 (measured: 1.4e-11 for the two fixed starts and
9.0e-11 for the random ones).
"""

import numpy as np
import pytest

from maniafem import experiments as ex
from maniafem.mesh import Mesh1D
from maniafem.optimize import initial_values, minimize_from, prolongate

# N = 4 gives the prolongated start on N = 8
SIZES = (4,) + ex.DEFAULT_MESH_SIZES
NODAL_TOL = 1e-10
RANDOM_SIZES = (8, 16, 32)
RANDOM_STARTS = 40


@pytest.fixture(scope="module")
def reported():
    return dict(zip(SIZES, ex.solve_ladder(SIZES)))


def assert_same_minimum(result, kept):
    assert result.reason == "grad_tol"
    assert result.min_pivot > 0.0
    assert result.energy >= kept.energy - 4 * np.spacing(kept.energy)
    gap = np.max(np.abs(result.minimizer.nodal_values - kept.minimizer.nodal_values))
    assert gap <= NODAL_TOL


@pytest.mark.parametrize("n", ex.DEFAULT_MESH_SIZES)
def test_root_and_prolongated_starts_find_no_lower_minimum(reported, n):
    kept = reported[n]
    mesh = kept.minimizer.mesh
    starts = {
        "interp_root": initial_values(mesh, "interp_root"),
        "prolongated": prolongate(reported[n // 2].minimizer, mesh).nodal_values,
    }
    for name, start in starts.items():
        try:
            assert_same_minimum(minimize_from(mesh, start), kept)
        except AssertionError as exc:
            raise AssertionError(f"{name} start at N={n}") from exc


@pytest.mark.parametrize("n", RANDOM_SIZES)
def test_random_monotone_starts_find_no_lower_minimum(reported, n):
    rng = np.random.default_rng(n)
    mesh = Mesh1D(n)
    for k in range(RANDOM_STARTS):
        start = np.concatenate(([0.0], np.sort(rng.random(n - 1)), [1.0]))
        try:
            assert_same_minimum(minimize_from(mesh, start), reported[n])
        except AssertionError as exc:
            raise AssertionError(f"random start {k} at N={n}") from exc
