"""The Mania energy, its derivative-clamped variant, and their nodal derivatives.

The base functional is

    J(v) = int_0^1 v'(x)^6 (v(x)^3 - x)^2 dx,    v(0) = 0, v(1) = 1,

whose minimizer x^(1/3) has unbounded derivative at 0.  Minimizing J over
piecewise-linear finite elements fails (the Lavrentiev gap), so the clamped
variant replaces v' inside the first factor by

    clamp_h(t) = sgn(t) * min(|t|, h^(-alpha)),

which caps how fast the derivative factor can blow up on a mesh of size h
while leaving moderate slopes untouched.

Both energies are assembled element-wise by Gauss quadrature that is exact
for the degree-6 densities piecewise-linear functions produce, so no
quadrature error enters any convergence study.  One element kernel,
``fe_objective``, serves the solver: one pass computes the per-element
terms, from which an energy closure sums the energy and a derivatives
closure assembles both the gradient and the tridiagonal Hessian over the
interior nodal values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, RegimeError
from .mesh import FeFunction, Mesh1D
from .quadrature import gauss_rule

__all__ = [
    "AdmissibleParams",
    "fe_objective",
    "energy_clamped",
]

# (v^3 - x)^2 with v linear has degree 6; four points are exact to degree 7
DENSITY_RULE_SIZE = 4


@dataclass(frozen=True)
class AdmissibleParams:
    """Validated (s, p, alpha) triple inside every regime the theory needs.

    Violations are collected and reported together, each naming the failed
    inequality.
    """

    s: float
    p: float
    alpha: float

    def __post_init__(self):
        s, p, alpha = self.s, self.p, self.alpha
        fails = []
        if not 0.0 < s < 1.0 / 3.0:
            fails.append(f"0 < s < 1/3 violated: s = {s}")
        if not 1.0 <= p < 1.5:
            fails.append(f"1 <= p < 3/2 violated: p = {p}")
        if not s * p < 1.0:
            fails.append(f"sp < 1 violated: {s}*{p} = {s * p}")
        if not (2.0 / 3.0 + s) * p < 1.0:
            fails.append(f"(2/3+s)p < 1 violated: (2/3+{s})*{p} = {(2.0 / 3.0 + s) * p}")
        ceiling = min((1.0 + s) / 6.0, s / 5.0)
        if not 0.0 < alpha < ceiling:
            fails.append(
                f"alpha < min{{(1+s)/6, s/5}} violated: alpha = {alpha}, bound = {ceiling}"
            )
        if fails:
            raise RegimeError("; ".join(fails))


def clamp_level(mesh: Mesh1D, alpha: float) -> float:
    """The clamp h^(-alpha) for functions on ``mesh``, h its element size.

    Raises ValueError unless alpha > 0 (NaN included) and h < 1, i.e. the
    mesh has more than one element.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not mesh.h < 1.0:
        raise ValueError(f"the clamp needs h < 1, got a one-element mesh (h = {mesh.h})")
    return mesh.h ** -float(alpha)


def fe_objective(mesh: Mesh1D, clamp: float | None = None):
    """Energy and derivatives over interior nodal values, as closures.

    ``energy(v)`` is the energy; ``derivatives(v)`` is ``(g, diag, off)``:
    the gradient, and the main diagonal (length N - 1) and sub/super-diagonal
    (length N - 2) of the tridiagonal Hessian.  Boundary values are fixed at
    0 and 1.  The quadrature grid and basis samples are precomputed once per
    mesh, which matters inside descent loops.  ``clamp = None`` gives the raw
    energy; note ``clip`` equals the sign-preserving cutoff here because the
    density uses even powers only.

    Each element's energy P(d) S depends only on its endpoint values a, b
    through the slope d = (b - a)/h and S = int (v^3 - x)^2 dx, with
    P = c(d)^6.  With S_a = int 6 v^2 (v^3 - x) (1 - t) dx, S_b the same
    with t, and q = 18 v^4 + 12 v (v^3 - x), its derivatives are

        E_a = -P'/h S + P S_a,   E_b = P'/h S + P S_b,
        E_aa = P''/h^2 S - 2 P'/h S_a + P S_aa,   S_aa = int q (1 - t)^2 dx,
        E_ab = -P''/h^2 S + P'/h (S_a - S_b) + P S_ab,   S_ab = int q t (1 - t) dx,
        E_bb = P''/h^2 S + 2 P'/h S_b + P S_bb,   S_bb = int q t^2 dx.

    Every integrand has degree <= 6, so the 4-point rule is exact.  On a
    clamped element (|d| >= clamp) P is the constant clamp^6 and only the
    P S_. terms remain.
    """
    rule = gauss_rule(DENSITY_RULE_SIZE)
    n = mesh.n_elements
    t = 0.5 * (rule.points + 1.0)
    omt = 1.0 - t
    w = 0.5 * rule.weights
    w_pairs = np.column_stack([w * omt * omt, w * omt * t, w * t * t])
    h_vec = np.diff(mesh.nodes)
    x = mesh.nodes[:-1, None] + np.outer(h_vec, t)
    inv_h = 1.0 / mesh.h

    def terms(interior):
        """v at the rule's points, v^3 - x, S_k, the slopes d and the clamped slopes c."""
        full = np.empty(n + 1)
        full[0], full[-1] = 0.0, 1.0
        full[1:-1] = interior
        v = full[:-1, None] * omt + full[1:, None] * t
        diff = v * v * v - x
        s_k = ((diff * diff) @ w) * h_vec
        d = np.diff(full) * inv_h
        c = d if clamp is None else np.clip(d, -clamp, clamp)
        return v, diff, s_k, d, c

    def energy(interior) -> float:
        # overflow to inf is fine: the line search rejects non-finite trials
        with np.errstate(over="ignore", invalid="ignore"):
            *_, s_k, _, c = terms(interior)
            c2 = c * c
            return float(np.einsum("i,i->", c2 * c2 * c2, s_k))

    def derivatives(interior) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v, diff, s_k, d, c = terms(interior)
        dd = (6.0 * v * v) * diff
        s_a = ((dd * omt) @ w) * h_vec
        s_b = ((dd * t) @ w) * h_vec
        q = (6.0 * v) * (3.0 * v * v * v + 2.0 * diff)
        s_pairs = (q @ w_pairs) * h_vec[:, None]
        c2 = c * c
        c4 = c2 * c2
        # p0 = P, p1 = P'/h, p2 = P''/h^2
        p0 = c4 * c2
        p1 = (6.0 * inv_h) * c4 * c
        p2 = (30.0 * inv_h * inv_h) * c4
        if clamp is not None:
            active = np.abs(d) < clamp
            p1 = np.where(active, p1, 0.0)
            p2 = np.where(active, p2, 0.0)
        slope_term = p1 * s_k
        grad = np.empty(n + 1)
        grad[:-1] = -slope_term + p0 * s_a
        grad[-1] = 0.0
        grad[1:] += slope_term + p0 * s_b
        curv = p2 * s_k
        e_aa = curv - 2.0 * p1 * s_a + p0 * s_pairs[:, 0]
        e_ab = -curv + p1 * (s_a - s_b) + p0 * s_pairs[:, 1]
        e_bb = curv + 2.0 * p1 * s_b + p0 * s_pairs[:, 2]
        return grad[1:-1], e_bb[:-1] + e_aa[1:], e_ab[1:-1]

    return energy, derivatives


def energy_clamped(f: FeFunction, alpha: float) -> float:
    """The clamped energy: J with slopes clipped at h^(-alpha), h the mesh
    size of ``f``.

    Always in [0, J(f)]; equals J(f) when no slope exceeds the clamp.
    Raises ValueError unless f(0) = 0 and f(1) = 1 exactly.
    """
    v = f.nodal_values
    if not (v[0] == 0.0 and v[-1] == 1.0):
        raise ValueError(f"energy needs f(0) = 0 and f(1) = 1, got {v[0]} and {v[-1]}")
    energy, _ = fe_objective(f.mesh, clamp_level(f.mesh, alpha))
    value = energy(v[1:-1])
    if not np.isfinite(value):
        raise ConsistencyError(f"energy evaluated to a non-finite value: {value}")
    return value
