"""Gauss-Legendre rules and composite element-wise integration.

The default 4-point rule integrates polynomials up to degree 7 exactly.  On
each element the Mania density is c^6 (v^3 - x)^2 with c a constant slope and
v linear, i.e. a degree-6 polynomial in x, so every functional evaluation on
the finite element space is quadrature-exact and convergence studies measure
only the method's error.

Integrals of non-polynomial integrands (x^{1/3}-type profiles and their
interpolation errors) use an 8-point rule on a study grid that subdivides
every element and grades the first one geometrically toward x = 0, where the
derivative singularity concentrates all the error mass.  ``StudyGrid`` builds
that grid's points once per mesh in element order, so per-element data
(finite element slopes, clamp factors) reach the points by broadcasting
instead of a search per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError
from .mesh import Mesh1D

__all__ = [
    "QuadRule",
    "gauss_rule",
    "integrate_cells",
    "graded_grid",
    "StudyGrid",
]

MAX_POINTS = 32


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights on the reference interval [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray
    degree_exact: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def _legendre(m: int, x: np.ndarray):
    """P_m(x) and P_m'(x) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, m):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def _gauss_rule_cached(m: int) -> QuadRule:
    if m == 1:
        return QuadRule(np.zeros(1), np.full(1, 2.0), 1)
    # Newton iteration on P_m from the Chebyshev-like initial guess; the
    # roots are simple and well separated, so this converges to ~1e-16.
    k = np.arange(m)
    x = np.cos(np.pi * (4 * k + 3) / (4 * m + 2))
    for _ in range(100):
        p, dp = _legendre(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    # symmetrize so odd integrands cancel exactly
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return QuadRule(x, w, 2 * m - 1)


def gauss_rule(m: int) -> QuadRule:
    """The m-point Gauss-Legendre rule on [-1, 1]; exact through degree 2m-1."""
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= MAX_POINTS):
        raise ValueError(f"point count must be an integer in 1..{MAX_POINTS}, got {m!r}")
    return _gauss_rule_cached(int(m))


def _sample(g, x: np.ndarray) -> np.ndarray:
    flat = x.ravel()
    try:
        vals = np.asarray(g(flat), dtype=float)
        if vals.shape != flat.shape:
            raise TypeError
    except (TypeError, ValueError):  # non-vectorized callables
        vals = np.array([float(g(xi)) for xi in flat])
    _check_finite(vals)
    return vals.reshape(x.shape)


def _cell_points(rule: QuadRule, breakpoints):
    """(points, half-widths): the rule's points on each cell, one row per cell."""
    b = np.asarray(breakpoints, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise ValueError("breakpoints must be a 1-D array with at least two entries")
    half = np.diff(b)
    if not np.all(half > 0.0):
        raise ValueError("breakpoints must be strictly increasing")
    half *= 0.5
    mid = 0.5 * (b[1:] + b[:-1])
    return mid[:, None] + half[:, None] * rule.points[None, :], half


def _check_finite(vals: np.ndarray):
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand returned a non-finite value")


def integrate_cells(rule: QuadRule, g, breakpoints) -> float:
    """Composite quadrature over the cells between consecutive breakpoints.

    The breakpoints must be strictly increasing.  Summation order is fixed
    (left to right), so results are reproducible.
    """
    x, half = _cell_points(rule, breakpoints)
    vals = _sample(g, x)
    return float(np.dot(vals @ rule.weights, half))


def graded_grid(mesh: Mesh1D, refine: int = 8, levels: int = 20) -> np.ndarray:
    """Breakpoints for study quadrature: ``refine`` cells per element plus a
    geometric subdivision of the first element at h*2^-j, j = 1..levels.

    Every mesh node is a breakpoint bitwise, so kinks of piecewise-linear
    integrands never land inside a cell.
    """
    if refine < 1 or levels < 0:
        raise ValueError("refine must be >= 1 and levels >= 0")
    seg = np.linspace(mesh.nodes[:-1], mesh.nodes[1:], refine + 1, axis=1)
    geo = mesh.h * 0.5 ** np.arange(1, levels + 1)
    return np.unique(np.concatenate([seg.ravel(), geo]))


class StudyGrid:
    """``graded_grid(mesh)`` with the 8-point rule on every cell, built once.

    ``points`` holds the cells in the grid's order as one contiguous
    (cells, 8) array, bitwise the points ``integrate_cells`` forms.  The
    first ``head`` cells are the graded first element; elements 1..N-1 hold
    8 cells each, so their points form (N-1, 64) rows and a per-element
    array reaches them by broadcasting (``by_element``).  Integrals keep
    ``integrate_cells``' reduction, so both give the same bits.
    """

    def __init__(self, mesh: Mesh1D):
        rule = gauss_rule(8)
        self.mesh = mesh
        self.weights = rule.weights
        self.points, self.half = _cell_points(rule, graded_grid(mesh))
        self.points.setflags(write=False)
        self.head = self.half.size - 8 * (mesh.n_elements - 1)

    def by_element(self, op, a: np.ndarray, per_element, out: np.ndarray) -> np.ndarray:
        """``out = op(a, per_element[k])`` on the points of each element k.

        ``a`` and ``out`` are (cells, 8) arrays, ``out`` C-contiguous (it may
        be ``a``); ``per_element`` has one entry per element.
        """
        h, rows = self.head, (self.mesh.n_elements - 1, 64)
        op(a[:h], per_element[0], out=out[:h])
        op(a[h:].reshape(rows), per_element[1:, None], out=out[h:].reshape(rows))
        return out

    def fe_values(self, f) -> np.ndarray:
        """A finite element function of this mesh at the points, in a new array.

        Written as s_k (x - x_k) + v_k, ``np.interp``'s formula, so the
        values equal ``f.evaluate`` bitwise wherever the node spacing is h
        exactly (power-of-two N) and within a few ulps otherwise.
        """
        if f.mesh.n_elements != self.mesh.n_elements:
            raise ValueError("the function lives on another mesh")
        out = self.by_element(np.subtract, self.points, self.mesh.nodes[:-1],
                              np.empty_like(self.points))
        self.by_element(np.multiply, out, f.slopes(), out)
        return self.by_element(np.add, out, f.nodal_values[:-1], out)

    def integrate(self, vals: np.ndarray) -> float:
        """Quadrature of integrand values at the points."""
        _check_finite(vals)
        return float(np.dot(vals @ self.weights, self.half))
