"""Rate studies: interpolation errors, recovery-sequence terms, order fits.

The recovery sequence for the clamped energy is the nodal interpolant, and
its energy error splits into three pieces:

  value term   int chi((I_h v)')^6 [ ((I_h v)^3 - x)^2 - (v^3 - x)^2 ] dx
  slope term   int | chi((I_h v)')^6 - chi(v')^6 | (v^3 - x)^2 dx
  remainder    int chi(v')^6 (v^3 - x)^2 dx  <=  J(v)

The first two decay like h^(1+s-6a) and h^(s-5a) for profiles v whose
derivative has fractional smoothness s in L^p; the studies here measure
those orders by log-log regression over a mesh ladder.

Every integral runs on a ``StudyGrid`` built once per mesh: the interpolant's
values, slopes and clamp factors are computed per element and broadcast to
the grid's points, and each integrand is formed in one array filled in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StudyError
from .functionals import (
    AdmissibleParams,
    CutoffParams,
    cutoff,
    energy_clamped,
)
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
    params: AdmissibleParams | None
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


def make_rate_study(target, params, mesh_sizes, columns, rows) -> RateStudy:
    """Assemble a RateStudy, fitting |value| on the ladder tail."""
    fit_rows = [(h, abs(v)) for h, v, *_ in ladder_tail(rows)]
    try:
        order, r2 = fit_order(fit_rows)
    except StudyError:
        order, r2 = float("nan"), 0.0
    return RateStudy(
        target=target,
        params=params,
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


def fe_error(fn, dfn, f: FeFunction, grid: StudyGrid, p: float) -> tuple[float, float]:
    """(||v - f||_{L^p}, ||v - f||_{W^{1,p}}) for v = ``fn`` with derivative
    ``dfn`` and a finite element function ``f`` on the grid's mesh,
    integrating |v - f|^p once."""
    err = grid.fe_values(f)
    np.subtract(fn(grid.points), err, out=err)
    np.abs(err, out=err)
    err **= p
    value = grid.integrate(err)
    grid.by_element(np.subtract, dfn(grid.points), f.slopes(), err)
    np.abs(err, out=err)
    err **= p
    return value ** (1.0 / p), (value + grid.integrate(err)) ** (1.0 / p)


def interp_error(fn, dfn, grid: StudyGrid, p: float) -> tuple[float, float]:
    """(||v - I_h v||_{L^p}, ||v - I_h v||_{W^{1,p}}) on the grid's mesh."""
    return fe_error(fn, dfn, interpolate(grid.mesh, fn), grid, p)


def _density(fn, grid: StudyGrid) -> np.ndarray:
    """(v^3 - x)^2 at the grid points, in a new array."""
    x = grid.points
    out = fn(x) ** 3
    out -= x
    out **= 2
    return out


def value_mismatch_term(fn, grid: StudyGrid, params: CutoffParams) -> float:
    """Energy cost of swapping v for I_h v inside the density weight.

    Signed: the integrand is a difference of squares under the clamped
    slope factor of the interpolant, which is constant on each element.
    """
    f_h = interpolate(grid.mesh, fn)
    vals = grid.fe_values(f_h)
    vals **= 3
    vals -= grid.points
    vals **= 2
    vals -= _density(fn, grid)
    return grid.integrate(
        grid.by_element(np.multiply, vals, cutoff(params, f_h.slopes()) ** 6, vals))


def slope_mismatch_term(fn, dfn, grid: StudyGrid, params: CutoffParams) -> float:
    """Energy cost of clamping the interpolant's slope instead of v'."""
    f_h = interpolate(grid.mesh, fn)
    vals = cutoff(params, dfn(grid.points)) ** 6
    # |c_v - c_h| equals |c_h - c_v| bitwise: rounding is symmetric under negation
    grid.by_element(np.subtract, vals, cutoff(params, f_h.slopes()) ** 6, vals)
    np.abs(vals, out=vals)
    vals *= _density(fn, grid)
    return grid.integrate(vals)


def recovery_gap(fn, mesh: Mesh1D, params: CutoffParams, reference: float) -> float:
    """Clamped energy of the interpolant minus the limit value J(v)."""
    return energy_clamped(interpolate(mesh, fn), params) - reference
