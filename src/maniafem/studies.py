"""Rate studies: interpolation errors, recovery-sequence terms, order fits.

The recovery sequence for the clamped energy is the nodal interpolant, and
its energy error splits into three pieces:

  value term   int chi((I_h v)')^6 [ ((I_h v)^3 - x)^2 - (v^3 - x)^2 ] dx
  slope term   int | chi((I_h v)')^6 - chi(v')^6 | (v^3 - x)^2 dx
  remainder    int chi(v')^6 (v^3 - x)^2 dx  <=  J(v)

The first two decay like h^(1+s-6a) and h^(s-5a) for profiles v whose
derivative has fractional smoothness s in L^p; the studies here measure
those orders by log-log regression over a mesh ladder.

Every integral runs on a ``StudyGrid`` built once per mesh: each term is an
integrand ``(x, k)`` of one block of elements ``k`` with one row of points
``x`` per element, so finite element values, slopes and clamp factors are
computed once per element and broadcast to their row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StudyError
from .functionals import clamp_level, energy_clamped
from .mesh import FeFunction, Mesh1D, interpolate
from .quadrature import StudyGrid
# not called here; kept so perfbench/tracer.py can wrap these attributes
from .quadrature import graded_grid, integrate_cells  # noqa: F401
from .fractional import norm_wkp  # noqa: F401

__all__ = [
    "RateStudy",
    "make_rate_study",
    "power_fn",
    "fe_error",
    "interp_error",
    "value_mismatch_term",
    "slope_mismatch_term",
    "recovery_gap",
]

CONVERGED_FLOOR = 1e-14
TAIL_DROP = 2  # coarsest meshes excluded from asymptotic fits


@dataclass(frozen=True)
class RateStudy:
    """One measured quantity over a mesh ladder plus its fitted order.

    ``rows`` holds (h, value, *extras) per mesh; the fit uses the first two
    columns on the ladder tail (the two coarsest meshes are dropped whenever
    at least five meshes are present).
    """

    target: str
    mesh_sizes: tuple[int, ...]
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    fitted_order: float
    fit_r2: float

    def __post_init__(self):
        if list(self.mesh_sizes) != sorted(set(self.mesh_sizes)):
            raise ValueError(f"mesh sizes must be strictly increasing: {self.mesh_sizes}")
        if len(self.rows) != len(self.mesh_sizes):
            raise ValueError(
                f"{len(self.rows)} rows for {len(self.mesh_sizes)} mesh sizes")
        if not (np.isnan(self.fit_r2) or 0.0 <= self.fit_r2 <= 1.0):
            raise ValueError(f"fit_r2 must lie in [0, 1], got {self.fit_r2}")


def fit_order(rows) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(h), with its r^2.

    Rows with value below 1e-14 are treated as converged to zero and
    dropped; at least three usable rows are required.
    """
    usable = [(h, v) for h, v, *_ in rows if v >= CONVERGED_FLOOR]
    if len(usable) < 3:
        raise StudyError(
            f"order fit needs at least 3 rows with positive values, got {len(usable)}"
        )
    log_h = np.log([h for h, _ in usable])
    log_v = np.log([v for _, v in usable])
    coeffs, residuals, *_ = np.polyfit(log_h, log_v, 1, full=True)
    ss_res = float(residuals[0]) if residuals.size else 0.0
    ss_tot = float(np.sum((log_v - log_v.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(coeffs[0]), float(min(max(r2, 0.0), 1.0))


def ladder_tail(rows):
    """The rows an asymptotic verdict looks at: all but the TAIL_DROP
    coarsest, once at least five meshes are present."""
    return rows[TAIL_DROP:] if len(rows) >= 5 else rows


def make_rate_study(target, mesh_sizes, columns, rows) -> RateStudy:
    """Assemble a RateStudy, fitting |value| on the ladder tail."""
    fit_rows = [(h, abs(v)) for h, v, *_ in ladder_tail(rows)]
    try:
        order, r2 = fit_order(fit_rows)
    except StudyError:
        order, r2 = float("nan"), 0.0
    return RateStudy(
        target=target,
        mesh_sizes=tuple(int(n) for n in mesh_sizes),
        columns=tuple(columns),
        rows=tuple(tuple(row) for row in rows),
        fitted_order=order,
        fit_r2=r2,
    )


def power_fn(q: float):
    """(x^q, q x^(q-1)) as a vectorized profile/derivative pair."""

    def fn(x):
        return np.power(x, q)

    def dfn(x):
        return q * np.power(x, q - 1.0)

    return fn, dfn


def _fe_at(f: FeFunction, x: np.ndarray, k: slice) -> np.ndarray:
    """``f`` at the points ``x`` of its elements ``k``, one row per element, as
    s_k (x - x_k) + v_k: ``np.interp``'s formula, so equal to ``f.evaluate``
    bitwise wherever the node spacing is h exactly (power-of-two N) and
    within a few ulps otherwise."""
    v = f.nodal_values[k.start:k.stop + 1]
    # f.slopes() on these elements only: all N slopes per block would cost O(N^2)
    return (x - f.mesh.nodes[k, None]) * (np.diff(v) / f.mesh.h)[:, None] + v[:-1, None]


def fe_error(fn, dfn, f: FeFunction, grid: StudyGrid, p: float) -> tuple[float, float]:
    """(||v - f||_{L^p}, ||v - f||_{W^{1,p}}) for v = ``fn`` with derivative
    ``dfn`` and a finite element function ``f`` on the grid's mesh,
    integrating |v - f|^p once."""
    if f.mesh.n_elements != grid.mesh.n_elements:
        raise ValueError("the function lives on another mesh")
    slopes = f.slopes()

    def abs_power(err):
        np.abs(err, out=err)
        err **= p
        return err

    value = grid.integrate(lambda x, k: abs_power(fn(x) - _fe_at(f, x, k)))
    slope = grid.integrate(lambda x, k: abs_power(dfn(x) - slopes[k, None]))
    return value ** (1.0 / p), (value + slope) ** (1.0 / p)


def interp_error(fn, dfn, grid: StudyGrid, p: float) -> tuple[float, float]:
    """(||v - I_h v||_{L^p}, ||v - I_h v||_{W^{1,p}}) on the grid's mesh."""
    return fe_error(fn, dfn, interpolate(grid.mesh, fn), grid, p)


def _density(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(v^3 - x)^2 for values ``v`` at the points ``x``, in a new array."""
    out = v ** 3
    out -= x
    out **= 2
    return out


def value_mismatch_term(fn, grid: StudyGrid, alpha: float) -> float:
    """Energy cost of swapping v for I_h v inside the density weight.

    Signed: the integrand is a difference of squares under the clamped
    slope factor of the interpolant, which is constant on each element.
    """
    clamp = clamp_level(grid.mesh, alpha)
    f_h = interpolate(grid.mesh, fn)
    weight = np.clip(f_h.slopes(), -clamp, clamp) ** 6

    def integrand(x, k):
        vals = _density(_fe_at(f_h, x, k), x)
        vals -= _density(fn(x), x)
        vals *= weight[k, None]
        return vals

    return grid.integrate(integrand)


def slope_mismatch_term(fn, dfn, grid: StudyGrid, alpha: float) -> float:
    """Energy cost of clamping the interpolant's slope instead of v'."""
    clamp = clamp_level(grid.mesh, alpha)
    weight = np.clip(interpolate(grid.mesh, fn).slopes(), -clamp, clamp) ** 6

    def integrand(x, k):
        vals = np.clip(dfn(x), -clamp, clamp) ** 6
        # |c_v - c_h| equals |c_h - c_v| bitwise: rounding is symmetric under negation
        vals -= weight[k, None]
        np.abs(vals, out=vals)
        vals *= _density(fn(x), x)
        return vals

    return grid.integrate(integrand)


def recovery_gap(fn, mesh: Mesh1D, alpha: float) -> float:
    """Clamped energy of the interpolant: the recovery gap of a v with J(v) = 0."""
    return energy_clamped(interpolate(mesh, fn), alpha)
