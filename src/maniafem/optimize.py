"""Newton solvers for the clamped and raw energies over interior nodal values.

Each element's energy depends only on its two endpoint values, so the
Hessian over the interior nodes is tridiagonal and a Newton step costs one
O(N) LDL^T factorization.  The energy and the derivatives come from the
one element kernel ``functionals.fe_objective``; each accepted point is
differentiated once, and that one pass yields the gradient, the Hessian
for the next step and, at the final point, the reported smallest
pivot.  The solver is modified Newton (Nocedal & Wright,
Numerical Optimization, sec. 3.4): where a pivot is not positive, a
Levenberg shift tau*K is added and grown until the factorization succeeds,
and the shift is warm-started from the previous iteration's tau/4.  K is
the P1 stiffness matrix tridiag(-1, 2, -1)/h, the scaling matrix of More's
Levenberg-Marquardt step (LNM 630, 1978): the step is a Levenberg step in
the H^1 metric, so the iteration count does not grow with N (Neuberger,
Sobolev Gradients, LNM 1670, 1997).  Armijo backtracking on the same
energy globalizes the step; where an unshifted step predicts less decrease
than one ulp of E, a rise of a few ulps is accepted (Hager & Zhang, SIAM J.
Optim. 16, 2005).  The clamped energy has kinks where an element slope
reaches the clamp, so there the first trial step is capped at the first
kink along the Newton direction.
Boundary values are pinned structurally: the iterate is the interior
vector.  The clamped ladder's mesh continuation, which seeds finer meshes
with prolongated coarse minimizers, lives in ``experiments``.

Every solve names why it stopped (``grad_tol``, ``max_iters`` or
``line_search``) and reports the smallest LDL^T pivot of the unshifted
Hessian at its final point; a positive pivot certifies a strict local
minimizer.  Non-convergence is reported, not raised; the gap demonstration
needs the reached energy either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import clamp_level, fe_objective
from .mesh import FeFunction, Mesh1D

__all__ = [
    "SolveConfig",
    "SolveResult",
    "minimize_from",
    "prolongate",
    "initial_values",
]

STOP_REASONS = ("grad_tol", "max_iters", "line_search")
# Armijo backtracking: sufficient-decrease constant, the factor each
# rejected trial step is shrunk by, and the trial step below which it gives
# up (a Newton step is 1).
_ARMIJO_C = 1e-4
_STEP_SHRINK = 0.5
_MIN_STEP = 1e-20
# Rounding allowance, in ulps of E, for an unshifted Newton step whose
# predicted decrease is below one ulp of E.
_ROUNDING_ULPS = 4.0
# A warm-started Levenberg shift tau K whose diagonal 2 tau/h is below this
# fraction of the Hessian's largest diagonal entry is dropped, so pure
# Newton steps resume.
_SHIFT_DROP = 1e-12
# Kinks nearer than this step are not caps: an element sitting within
# rounding of its clamp would otherwise pin every first trial near zero.
_KINK_FLOOR = 1e-3
# The capped step ends this far (relative) past the kink, so the element
# that reached its clamp lies on the side it was moving to, not on the
# kink itself where rounding would pick the branch.
_KINK_OVERSHOOT = 1e-9


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule of one solve: the max-norm gradient tolerance and the
    iteration budget.  The budget is a safety cap only: every default-ladder
    solve meets the tolerance within a few dozen iterations, and a solve
    that hits the cap says so in its stop reason."""

    grad_tol: float = 1e-9
    max_iters: int = 20_000

    def __post_init__(self):
        if not 0 < self.grad_tol < float("inf"):
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol!r}")
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {iters!r}")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    ``reason`` is one of ``STOP_REASONS``; ``min_pivot`` is the smallest
    LDL^T pivot of the unshifted Hessian at the returned point (positive
    means the Hessian is positive definite there).
    """

    minimizer: FeFunction
    energy: float
    grad_norm: float
    iters: int
    reason: str
    min_pivot: float

    @property
    def converged(self) -> bool:
        return self.reason == "grad_tol"


def initial_values(mesh: Mesh1D, kind: str) -> np.ndarray:
    """Full nodal vector for a named starting point.

    linear_ramp is the identity (the pseudo-minimizer basin of the raw
    energy); interp_root interpolates x^(1/3) (the favorable basin).
    """
    if kind == "interp_root":
        return mesh.nodes ** (1.0 / 3.0)
    if kind == "linear_ramp":
        return mesh.nodes.copy()
    raise ValueError(f"unknown initializer {kind!r}")


def prolongate(coarse: FeFunction, fine_mesh: Mesh1D) -> FeFunction:
    """Nodal interpolant of a coarse function on a nested finer mesh."""
    ratio, rem = divmod(fine_mesh.n_elements, coarse.mesh.n_elements)
    if rem != 0 or ratio < 1:
        raise ValueError(
            f"meshes are not nested: {fine_mesh.n_elements} elements over "
            f"{coarse.mesh.n_elements}"
        )
    vals = np.asarray(coarse.evaluate(fine_mesh.nodes), dtype=float)
    vals[::ratio] = coarse.nodal_values  # shared nodes reproduce bitwise
    return FeFunction(fine_mesh, vals)


def _ldl_solve(diag, off, rhs):
    """Solve the tridiagonal system with diagonal ``diag``, off-diagonal
    ``off`` and right-hand side ``rhs`` in one LDL^T sweep.

    Returns (x, smallest pivot) when every pivot is positive, and
    (None, the first pivot <= 0) otherwise, stopping there.  The forward
    loop forms each pivot p_k with the forward-substituted y_k and keeps
    y_k/p_k for the back substitution.
    """
    pivot, y = diag[0], rhs[0]
    if pivot <= 0.0:
        return None, pivot
    lowest = pivot
    zs, mults = [], []
    for a, b, r in zip(diag[1:], off, rhs[1:]):
        m = b / pivot
        zs.append(y / pivot)
        mults.append(m)
        pivot = a - m * b
        y = r - m * y
        if pivot < lowest:
            if pivot <= 0.0:
                return None, pivot
            lowest = pivot
    x = y / pivot
    xs = [x]
    for m, z in zip(reversed(mults), reversed(zs)):
        x = z - m * x
        xs.append(x)
    return np.array(xs[::-1]), lowest


def _newton_direction(diag, off, g, shift: float):
    """Direction -(H + shift K)^{-1} g for the tridiagonal H = (diag, off),
    and the shift it needed.

    K = tridiag(-1, 2, -1)/h is the P1 stiffness matrix on the interior
    nodes of the uniform mesh of [0, 1], so h = 1/(size + 1).  A shift whose
    diagonal 2 shift/h is below ``_SHIFT_DROP`` times the largest diagonal
    entry of H is dropped; while a pivot is <= 0 the shift grows fourfold.
    """
    inv_h = float(diag.size + 1)
    floor = _SHIFT_DROP * max(1.0, float(np.max(np.abs(diag)))) / (2.0 * inv_h)
    if shift < floor:
        shift = 0.0
    rhs = (-g).tolist()
    while True:
        k_off = shift * inv_h  # shift K = k_off * tridiag(-1, 2, -1)
        p, _ = _ldl_solve((diag + 2.0 * k_off).tolist(), (off - k_off).tolist(), rhs)
        if p is not None:
            return p, shift
        shift = max(4.0 * shift, floor)


def _descend(energy, derivatives, v0: np.ndarray, config: SolveConfig, max_step=None):
    """Shifted Newton with Armijo backtracking from interior values ``v0``.

    ``derivatives`` runs once per accepted point, the start included.
    ``max_step(v, p)``, when given, caps the first trial step along ``p``.
    Returns the final point, its energy and gradient norm, the iteration
    count, the stop reason and the smallest unshifted pivot there (the
    first non-positive one when the Hessian is not positive definite).
    """
    v = np.array(v0, dtype=float)
    e = energy(v)
    if not np.isfinite(e):
        raise FloatingPointError(f"starting energy is not finite: {e}")
    g, diag, off = derivatives(v)
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    iters = 0
    shift = 0.0
    stalled = False
    while iters < config.max_iters and gnorm > config.grad_tol:
        p, shift = _newton_direction(diag, off, g, shift / 4.0)
        slope = float(np.einsum("i,i->", g, p))
        if np.isfinite(slope) and slope < 0.0:
            # A pure Newton step that predicts less decrease than one ulp of
            # E may raise the computed E by a few ulps (Hager & Zhang's
            # approximate Armijo condition); exact Armijo would reject every
            # trial at the rounding floor.
            ulp = float(np.spacing(abs(e)))
            slack = _ROUNDING_ULPS * ulp if shift == 0.0 and -slope < ulp else 0.0
        else:
            p = -g
            slope = -float(np.einsum("i,i->", g, g))
            slack = 0.0
        trial = 1.0 if max_step is None else min(1.0, max_step(v, p))
        v_new = None
        while trial > _MIN_STEP:
            cand = v + trial * p
            e_cand = energy(cand)
            if np.isfinite(e_cand) and e_cand <= e + _ARMIJO_C * trial * slope + slack:
                v_new = cand
                break
            trial *= _STEP_SHRINK
        if v_new is None:
            stalled = True
            break
        v, e = v_new, e_cand
        g, diag, off = derivatives(v)
        gnorm = float(np.max(np.abs(g)))
        iters += 1
    if gnorm <= config.grad_tol:
        reason = "grad_tol"
    else:
        reason = "line_search" if stalled else "max_iters"
    min_pivot = float("inf")
    if v.size:
        _, min_pivot = _ldl_solve(diag.tolist(), off.tolist(), g.tolist())
    return v, e, gnorm, iters, reason, min_pivot


def _kink_step(mesh: Mesh1D, clamp: float):
    """First trial step along p: just past the smallest step
    a >= _KINK_FLOOR at which some element's slope reaches +-clamp,
    or inf when no element gets there."""
    inv_h = 1.0 / mesh.h

    def max_step(v, p):
        d = np.diff(np.concatenate(([0.0], v, [1.0]))) * inv_h
        dd = np.diff(np.concatenate(([0.0], p, [0.0]))) * inv_h
        moving = dd != 0.0
        d, dd = d[moving], dd[moving]
        steps = np.concatenate(((clamp - d) / dd, (-clamp - d) / dd))
        steps = steps[steps >= _KINK_FLOOR]
        return float(steps.min()) * (1.0 + _KINK_OVERSHOOT) if steps.size else float("inf")

    return max_step


def minimize_from(mesh: Mesh1D, start_values, config: SolveConfig | None = None,
                  alpha: float | None = None) -> SolveResult:
    """Single solve from given full nodal values; clamped at h^(-alpha) on
    ``mesh`` if ``alpha`` is given, raw otherwise.

    The starting boundary values are replaced by the pinned 0 and 1.
    """
    config = config or SolveConfig()
    clamp = None if alpha is None else clamp_level(mesh, alpha)
    energy, derivatives = fe_objective(mesh, clamp)
    max_step = None if clamp is None else _kink_step(mesh, clamp)
    start = np.asarray(start_values, dtype=float)[1:-1]
    v, e, gnorm, iters, reason, min_pivot = _descend(
        energy, derivatives, start, config, max_step)
    return SolveResult(
        minimizer=FeFunction.from_interior(mesh, v),
        energy=e,
        grad_norm=gnorm,
        iters=iters,
        reason=reason,
        min_pivot=min_pivot,
    )
