"""Gauss-Legendre rules and composite element-wise integration.

The default 4-point rule integrates polynomials up to degree 7 exactly.  On
each element the Mania density is c^6 (v^3 - x)^2 with c a constant slope and
v linear, i.e. a degree-6 polynomial in x, so every functional evaluation on
the finite element space is quadrature-exact and convergence studies measure
only the method's error.

Integrals of non-polynomial integrands (x^{1/3}-type profiles and their
interpolation errors) use an 8-point rule on a study grid that subdivides
every element and grades the first one geometrically toward x = 0, where the
derivative singularity concentrates all the error mass.
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
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("integrand returned a non-finite value")
    return vals.reshape(x.shape)


def integrate_cells(rule: QuadRule, g, breakpoints) -> float:
    """Composite quadrature over the cells between consecutive breakpoints.

    The breakpoints must be strictly increasing.  Summation order is fixed
    (left to right), so results are reproducible.
    """
    b = np.asarray(breakpoints, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise ValueError("breakpoints must be a 1-D array with at least two entries")
    half = np.diff(b)
    if not np.all(half > 0.0):
        raise ValueError("breakpoints must be strictly increasing")
    half *= 0.5
    mid = 0.5 * (b[1:] + b[:-1])
    x = mid[:, None] + half[:, None] * rule.points[None, :]
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
