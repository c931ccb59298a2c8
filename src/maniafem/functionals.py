"""The Mania energy, its derivative-clamped variant, and nodal gradients.

The base functional is

    J(v) = int_0^1 v'(x)^6 (v(x)^3 - x)^2 dx,    v(0) = 0, v(1) = 1,

whose minimizer x^(1/3) has unbounded derivative at 0.  Minimizing J over
piecewise-linear finite elements fails (the Lavrentiev gap), so the clamped
variant replaces v' inside the first factor by

    clamp_h(t) = sgn(t) * min(|t|, h^(-alpha)),

which caps how fast the derivative factor can blow up on a mesh of size h
while leaving moderate slopes untouched.

Both energies and their nodal-value gradients are assembled element-wise by
Gauss quadrature that is exact for the degree-6 densities piecewise-linear
functions produce, so no quadrature error enters any convergence study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, RegimeError
from .mesh import FeFunction, Mesh1D
from .quadrature import QuadRule, gauss_rule

__all__ = [
    "CutoffParams",
    "AdmissibleParams",
    "cutoff",
    "fe_objective",
    "fe_hessian",
    "energy_mania",
    "energy_clamped",
    "gradient_clamped",
]

# (v^3 - x)^2 with v linear has degree 6; four points are exact to degree 7
DENSITY_RULE_SIZE = 4
NEG_ENERGY_TOL = -1e-14


@dataclass(frozen=True)
class CutoffParams:
    """Clamp level h^(-alpha) for the derivative cutoff.

    ``tied`` marks that h is meant to equal the mesh size of the functions
    the cutoff is applied to; the energy evaluators and solvers enforce that
    pairing through :meth:`check_mesh`.
    ``decoupled`` builds parameters free of it, for studies that evaluate
    the clamped density of non-mesh functions.
    """

    alpha: float
    h: float
    tied: bool = True
    clamp: float = field(init=False)

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"h must lie in (0, 1), got {self.h}")
        object.__setattr__(self, "clamp", self.h ** -self.alpha)

    def check_mesh(self, mesh: Mesh1D):
        """Raise ValueError if this level is tied to a different mesh size."""
        if self.tied and self.h != mesh.h:
            raise ValueError(
                f"cutoff level is tied to the mesh: params.h = {self.h} but mesh.h = {mesh.h}"
            )

    @classmethod
    def decoupled(cls, alpha: float, h: float) -> "CutoffParams":
        return cls(alpha, h, tied=False)


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


def cutoff(params: CutoffParams, t):
    """sgn(t) * min(|t|, clamp); odd, 1-Lipschitz, identity below the clamp."""
    t_arr = np.asarray(t, dtype=float)
    out = np.sign(t_arr) * np.minimum(np.abs(t_arr), params.clamp)
    return float(out) if out.ndim == 0 else out


def _check_energy(value: float) -> float:
    if not np.isfinite(value):
        raise ConsistencyError(f"energy evaluated to a non-finite value: {value}")
    if value < NEG_ENERGY_TOL:
        raise ConsistencyError(f"energy quadrature returned {value} < {NEG_ENERGY_TOL}")
    return max(value, 0.0)


def _element_grid(mesh: Mesh1D, rule: QuadRule | None):
    """Quadrature points per element and the interior-to-full assembler."""
    rule = rule or gauss_rule(DENSITY_RULE_SIZE)
    n = mesh.n_elements
    t = 0.5 * (rule.points + 1.0)
    omt = 1.0 - t
    w = 0.5 * rule.weights
    h_vec = np.diff(mesh.nodes)
    x = mesh.nodes[:-1, None] + np.outer(h_vec, t)

    def assemble(interior):
        full = np.empty(n + 1)
        full[0], full[-1] = 0.0, 1.0
        full[1:-1] = interior
        return full

    return n, t, omt, w, h_vec, x, assemble


def fe_objective(mesh: Mesh1D, clamp: float | None = None,
                 rule: QuadRule | None = None):
    """Energy and gradient over interior nodal values, as fused closures.

    Boundary values are fixed at 0 and 1.  The quadrature grid and basis
    samples are precomputed once per mesh, which matters inside descent
    loops.  ``clamp = None`` gives the raw energy; note ``clip`` equals the
    sign-preserving cutoff here because the density uses even powers only.

    Gradient assembly applies the chain rule per element: with d the element
    slope and S = int (v^3 - x)^2 dx, each element contributes
    6 c(d)^5 c'(d) (+-1/h) S to its endpoint values plus
    c(d)^6 int 6 v^2 (v^3 - x) phi dx, all of degree <= 6 and hence exact.
    """
    n, t, omt, w, h_vec, x, assemble = _element_grid(mesh, rule)
    inv_h = 1.0 / mesh.h

    def energy(interior) -> float:
        # overflow to inf is fine: the line search rejects non-finite trials
        with np.errstate(over="ignore", invalid="ignore"):
            full = assemble(interior)
            v = full[:-1, None] * omt + full[1:, None] * t
            dens = v * v * v - x
            dens *= dens
            s_k = (dens @ w) * h_vec
            d = np.diff(full) * inv_h
            if clamp is not None:
                d = np.clip(d, -clamp, clamp)
            d2 = d * d
            return float((d2 * d2 * d2) @ s_k)

    def gradient(interior) -> np.ndarray:
        full = assemble(interior)
        v = full[:-1, None] * omt + full[1:, None] * t
        v3 = v * v * v
        diff = v3 - x
        s_k = ((diff * diff) @ w) * h_vec
        dd = (6.0 * v * v) * diff
        ds_left = ((dd * omt) @ w) * h_vec
        ds_right = ((dd * t) @ w) * h_vec
        d = np.diff(full) * inv_h
        if clamp is None:
            c = d
            c2 = c * c
            c5 = c2 * c2 * c
            slope_term = (6.0 * inv_h) * c5 * s_k
        else:
            c = np.clip(d, -clamp, clamp)
            c2 = c * c
            c5 = c2 * c2 * c
            slope_term = np.where(np.abs(d) < clamp, (6.0 * inv_h) * c5 * s_k, 0.0)
        c6 = c5 * c
        grad = np.empty(n + 1)
        grad[:-1] = -slope_term + c6 * ds_left
        grad[-1] = 0.0
        grad[1:] += slope_term + c6 * ds_right
        return grad[1:-1]

    return energy, gradient


def fe_hessian(mesh: Mesh1D, clamp: float | None = None,
               rule: QuadRule | None = None):
    """Tridiagonal Hessian over interior nodal values, as a closure.

    The closure maps the interior values to ``(diag, off)``: the main
    diagonal (length N - 1) and the sub/super-diagonal (length N - 2).  Each
    element's energy P(d) S(a, b) depends only on its endpoint values a, b
    through the slope d = (b - a)/h and S = int (v^3 - x)^2 dx, so with
    q = 18 v^4 + 12 v (v^3 - x) its second derivatives are

        E_aa = P''/h^2 S - 2 P'/h S_a + P S_aa,   S_aa = int q (1 - t)^2 dx,
        E_ab = -P''/h^2 S + P'/h (S_a - S_b) + P S_ab,   S_ab = int q t (1 - t) dx,
        E_bb = P''/h^2 S + 2 P'/h S_b + P S_bb,   S_bb = int q t^2 dx,

    with P = c(d)^6.  Every integrand has degree <= 6, so the default rule is
    exact.  On a clamped element (|d| >= clamp) P is the constant clamp^6 and
    only the P S_.. terms remain, matching the flat branch of the gradient.
    """
    n, t, omt, w, h_vec, x, assemble = _element_grid(mesh, rule)
    inv_h = 1.0 / mesh.h
    w_pairs = np.column_stack([w * omt * omt, w * omt * t, w * t * t])

    def hessian(interior) -> tuple[np.ndarray, np.ndarray]:
        full = assemble(interior)
        v = full[:-1, None] * omt + full[1:, None] * t
        diff = v * v * v - x
        s_k = ((diff * diff) @ w) * h_vec
        dd = (6.0 * v * v) * diff
        s_a = ((dd * omt) @ w) * h_vec
        s_b = ((dd * t) @ w) * h_vec
        q = (6.0 * v) * (3.0 * v * v * v + 2.0 * diff)
        s_pairs = (q @ w_pairs) * h_vec[:, None]
        d = np.diff(full) * inv_h
        c = d if clamp is None else np.clip(d, -clamp, clamp)
        c2 = c * c
        c4 = c2 * c2
        p1 = (6.0 * inv_h) * c4 * c
        p2 = (30.0 * inv_h * inv_h) * c4
        if clamp is not None:
            active = np.abs(d) < clamp
            p1 = np.where(active, p1, 0.0)
            p2 = np.where(active, p2, 0.0)
        p0 = c4 * c2
        curv = p2 * s_k
        e_aa = curv - 2.0 * p1 * s_a + p0 * s_pairs[:, 0]
        e_ab = -curv + p1 * (s_a - s_b) + p0 * s_pairs[:, 1]
        e_bb = curv + 2.0 * p1 * s_b + p0 * s_pairs[:, 2]
        return e_bb[:-1] + e_aa[1:], e_ab[1:-1]

    return hessian


def _require_bc(f: FeFunction):
    if not f.bc_flag:
        raise ValueError("energy is defined on the boundary-pinned space: bc_flag required")


def energy_mania(f: FeFunction, rule: QuadRule | None = None) -> float:
    """J(f) assembled element-wise; exact with the default rule."""
    _require_bc(f)
    energy, _ = fe_objective(f.mesh, None, rule)
    return _check_energy(energy(f.nodal_values[1:-1]))


def energy_clamped(f: FeFunction, params: CutoffParams, rule: QuadRule | None = None) -> float:
    """The clamped energy: J with slopes passed through the cutoff.

    Always in [0, energy_mania(f)]; equals it when no slope exceeds the clamp.
    """
    _require_bc(f)
    params.check_mesh(f.mesh)
    energy, _ = fe_objective(f.mesh, params.clamp, rule)
    return _check_energy(energy(f.nodal_values[1:-1]))


def gradient_clamped(f: FeFunction, params: CutoffParams,
                     rule: QuadRule | None = None) -> np.ndarray:
    """Gradient of the clamped energy with respect to the interior nodal values."""
    _require_bc(f)
    params.check_mesh(f.mesh)
    _, grad = fe_objective(f.mesh, params.clamp, rule)
    return grad(f.nodal_values[1:-1])

