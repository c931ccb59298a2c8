"""Ladders on which the method must fail, and its verdicts with them.

The theorem asks for alpha < min((1+s)/6, s/5).  At alpha = 1/2 the clamped
interpolant energy of x^(1/3), C h^(3 - 6 alpha), no longer decays, and the
clamped ladder ends on the raw minimizer: the gap returns.  ``solve_ladder``
accepts any alpha > 0, so these tests call it directly.
"""

import numpy as np
import pytest

from maniafem import experiments as ex
from maniafem.errors import ConsistencyError

# measured: the clamped and raw minima differ by at most 5 ulps of the raw one
SAME_MINIMUM_ULPS = 5


def test_gap_returns_at_alpha_one_half():
    raw = ex.solve_ladder(ex.DEFAULT_MESH_SIZES)
    clamped = ex.solve_ladder(ex.DEFAULT_MESH_SIZES, alpha=0.5)
    for r, c in zip(raw, clamped, strict=True):
        assert c.reason == "grad_tol"
        assert abs(c.energy - r.energy) <= SAME_MINIMUM_ULPS * np.spacing(r.energy)
    # rounding alone puts some clamped minima a few ulps above the raw ones,
    # and the verdict's consistency check names the first of them
    with pytest.raises(ConsistencyError, match="exceeds raw minimum"):
        ex.gap_passes(raw, clamped)
    # without those ulps the check holds, and the predicate itself fails:
    # the finest clamped minimum is not below the raw floor
    lowest = [min(r, c, key=lambda result: result.energy) for r, c in zip(raw, clamped)]
    assert not ex.gap_passes(raw, lowest)
