"""Uniform 1-D meshes and conforming piecewise-linear finite element functions.

The finite element space used throughout is the set of continuous functions
on [0, 1] that are linear on every mesh interval and satisfy v(0) = 0,
v(1) = 1.  A function is represented by its nodal values, which for hat
basis functions coincide with the basis coefficients, so the optimizer's
variable vector is the function representation itself.  The boundary values
are part of that vector, so membership in the space is read from it
(``energy_clamped`` checks it) rather than carried alongside.  Functions are
interpolated through numpy-vectorized callables, called once on the nodes.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError

__all__ = ["Mesh1D", "FeFunction", "interpolate"]


def _element_index(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The k with nodes[k] <= x < nodes[k + 1] for each x of the 1-D array
    ``x`` in [0, 1], and n - 1 for x = 1, without range checks.

    floor(x n) is the exact answer for power-of-two n; otherwise the stored
    nodes (from linspace) can sit one ulp off k/n, and the guess is one
    element off at most, so one step each way against them corrects it.
    """
    n = nodes.size - 1
    k = np.minimum((x * n).astype(np.intp), n - 1)
    k -= nodes[k] > x
    k += nodes[k + 1] <= x
    # in place: a fresh index array per Monte-Carlo chunk slowed the oracle
    # by about a third (x86_64, numpy 2.4)
    np.minimum(k, n - 1, out=k)
    return k


def _check_unit_interval(arr: np.ndarray):
    # written so that NaN fails: every comparison with NaN is False
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("points must lie in [0, 1]")


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of [0, 1] into ``n_elements`` intervals of size h."""

    n_elements: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.n_elements
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_elements must be a positive integer, got {n!r}")
        nodes = np.linspace(0.0, 1.0, n + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "n_elements", int(n))
        object.__setattr__(self, "h", 1.0 / n)
        object.__setattr__(self, "nodes", nodes)

    def element_indices(self, y) -> np.ndarray:
        """Element index for each point of ``y`` (right-continuous at nodes).

        Elements are located against the stored nodes: interior node ties
        resolve to the element whose lower bound is the node, and y = 1 maps
        to the last element.
        """
        arr = np.asarray(y, dtype=float)
        _check_unit_interval(arr)
        return _element_index(self.nodes, arr.ravel()).reshape(arr.shape)


@dataclass(frozen=True)
class FeFunction:
    """Continuous piecewise-linear function as a nodal-value vector."""

    mesh: Mesh1D
    nodal_values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.nodal_values, dtype=float)
        if vals.shape != (self.mesh.n_elements + 1,):
            raise ValueError(
                f"expected {self.mesh.n_elements + 1} nodal values, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("nodal values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "nodal_values", vals)

    @classmethod
    def from_interior(cls, mesh: Mesh1D, interior) -> "FeFunction":
        """Build a boundary-pinned function from its interior nodal values."""
        interior = np.asarray(interior, dtype=float)
        vals = np.empty(mesh.n_elements + 1)
        vals[0], vals[-1] = 0.0, 1.0
        vals[1:-1] = interior
        return cls(mesh, vals)

    def evaluate(self, y):
        """Value at y (scalar or array), exact at mesh nodes.

        ``np.interp`` against the stored nodes returns fp[j] for x == xp[j]
        and fp[-1] for x = 1, so nodes reproduce their values bitwise; in
        between it evaluates fp[j] + slope (x - xp[j]), which agrees with
        the barycentric form to a few ulps of the element's values.  Its
        search starts from the previous point's element, so increasing
        points (``prolongate``'s fine nodes) cost a few ns each and
        unsorted ones a binary search.  It clamps points outside [0, 1]
        silently, hence the range check.
        """
        arr = np.asarray(y, dtype=float)
        _check_unit_interval(arr)
        out = np.interp(arr, self.mesh.nodes, self.nodal_values)
        return float(out) if np.isscalar(y) or getattr(y, "ndim", 1) == 0 else out

    def slopes(self) -> np.ndarray:
        """Per-element derivative values (v' is piecewise constant)."""
        return np.diff(self.nodal_values) / self.mesh.h

    def slope_at(self, y):
        """Derivative at y (scalar or array); right-continuous at nodes."""
        k = self.mesh.element_indices(np.asarray(y, dtype=float))
        out = self.slopes()[k]
        return float(out) if np.isscalar(y) or getattr(y, "ndim", 1) == 0 else out


def interpolate(mesh: Mesh1D, v: Callable) -> FeFunction:
    """Nodal interpolant of v: the piecewise-linear match at every node.

    ``v`` is called once on the array of nodes and must return one value
    per node; any other shape raises ``ValueError``.
    """
    return FeFunction(mesh, v(mesh.nodes))
