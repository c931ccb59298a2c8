"""Gauss-Legendre rules and composite element-wise integration.

The rules are numpy's ``leggauss``, loaded on first use (numpy.polynomial
takes about 5 ms to import) and symmetric bitwise, x_i = -x_{m-1-i} and
w_i = w_{m-1-i}, so the mirrored terms of an odd integrand cancel exactly.
The default 4-point rule is exact through degree 7, and on each element the
Mania density c^6 (v^3 - x)^2 (c a constant slope, v linear) has degree 6,
so every functional evaluation on the finite element space is
quadrature-exact and convergence studies measure only the method's error.

Integrals of non-polynomial integrands (x^{1/3}-type profiles and their
interpolation errors) use an 8-point rule on a study grid that subdivides
every element and grades the first one geometrically toward x = 0, where the
derivative singularity concentrates all the error mass.  ``StudyGrid`` keeps
that grid's cells once per mesh and hands their points to the integrand in
element order, one cache-sized block at a time with one row per element, so
per-element data (finite element slopes, clamp factors) reach the points by
plain broadcasting instead of a search per point, and no integrand is ever
formed on the whole grid at once.

Summation rule: no sum whose length grows with N goes through BLAS, whose
threaded dot products (above length 1e4) and position-dependent gemv rows
would tie it to the thread count and to where blocks are cut.  numpy's own
reductions (``np.einsum``, ``np.sum``, ``np.cumsum``) add in a fixed order.
Only the per-element products of fixed width 4 in ``functionals`` stay BLAS.
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

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=None)
def _gauss_rule_cached(m: int) -> QuadRule:
    return QuadRule(*np.polynomial.legendre.leggauss(m))


def gauss_rule(m: int) -> QuadRule:
    """The m-point Gauss-Legendre rule on [-1, 1]; exact through degree 2m-1."""
    if isinstance(m, bool) or not (isinstance(m, (int, np.integer)) and 1 <= m <= MAX_POINTS):
        raise ValueError(f"point count must be an integer in 1..{MAX_POINTS}, got {m!r}")
    return _gauss_rule_cached(int(m))


def _sample(g, x: np.ndarray) -> np.ndarray:
    """``g`` on the points ``x``, called once on them as a flat array."""
    vals = np.asarray(g(x.ravel()), dtype=float)
    if vals.shape != (x.size,):
        raise ValueError(f"integrand returned shape {vals.shape} for {x.size} points")
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

    The breakpoints must be strictly increasing.  ``g`` is called once, on
    all the points as one flat array, and must return one value per point.
    Summation order is fixed, so results are reproducible.
    """
    x, half = _cell_points(rule, breakpoints)
    vals = _sample(g, x)
    return float(np.einsum("i,i->", np.einsum("ij,j->i", vals, rule.weights), half))


# Study grid: cells per element, and the geometric levels grading element 0.
_CELLS_PER_ELEMENT = 8
_GRADED_LEVELS = 20


def graded_grid(mesh: Mesh1D) -> np.ndarray:
    """Breakpoints for study quadrature: 8 cells per element plus a geometric
    subdivision of the first element at h*2^-j, j = 1..20.

    Every mesh node is a breakpoint bitwise, so kinks of piecewise-linear
    integrands never land inside a cell.
    """
    seg = np.linspace(mesh.nodes[:-1], mesh.nodes[1:], _CELLS_PER_ELEMENT + 1, axis=1)
    geo = mesh.h * 0.5 ** np.arange(1, _GRADED_LEVELS + 1)
    return np.unique(np.concatenate([seg.ravel(), geo]))


# Elements per StudyGrid block: 256 KiB per temporary, inside a 2 MiB L2.
# 64-256 and 1024-8192 took 3-45 % longer on the study terms at N = 2^14, 2^16 (x86_64).
_STUDY_BLOCK = 512


class StudyGrid:
    """``graded_grid(mesh)`` with the 8-point rule on every cell, kept as the
    cells' midpoints ``mid`` and half-widths ``half`` only: the first ``head``
    cells are the graded element 0, elements 1..N-1 hold 8 cells each."""

    def __init__(self, mesh: Mesh1D):
        b = graded_grid(mesh)
        self.mesh, self.rule = mesh, gauss_rule(8)
        self.mid, self.half = 0.5 * (b[1:] + b[:-1]), np.diff(b) * 0.5
        self.head = self.half.size - _CELLS_PER_ELEMENT * (mesh.n_elements - 1)

    def integrate(self, integrand) -> float:
        """Quadrature of ``integrand(x, k)`` with ``integrate_cells``' per-cell
        sums and total, walked in blocks of elements: element 0 alone, then
        runs of ``_STUDY_BLOCK``.  ``k`` is the block's slice of elements and
        ``x`` its read-only points, one row per element (1 x 200 for the
        graded element 0, then 64 per row), so per-element data ``a`` reaches
        them as ``a[k, None]``; the integrand returns values shaped like ``x``."""
        n, head = self.mesh.n_elements, self.head
        sums = np.empty(self.half.size)
        bounds = [0, *range(1, n, _STUDY_BLOCK), n]
        for first, stop in zip(bounds, bounds[1:]):
            cells = slice(head + _CELLS_PER_ELEMENT * (first - 1) if first else 0,
                          head + _CELLS_PER_ELEMENT * (stop - 1))
            # _cell_points' formula (bitwise its points), point-major: 2x faster
            t = np.multiply.outer(self.rule.points, self.half[cells])
            t += self.mid[cells]
            x = np.ascontiguousarray(t.T).reshape(stop - first, -1)
            x.setflags(write=False)
            vals = integrand(x, slice(first, stop))
            _check_finite(vals)
            np.einsum("ij,j->i", vals.reshape(-1, 8), self.rule.weights, out=sums[cells])
        return float(np.einsum("i,i->", sums, self.half))
