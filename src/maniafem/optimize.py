"""Newton solvers for the clamped and raw energies over interior nodal values.

Each element's energy depends only on its two endpoint values, so the
Hessian over the interior nodes is tridiagonal and a Newton step costs one
O(N) LDL^T factorization.  The solver is modified Newton (Nocedal & Wright,
Numerical Optimization, sec. 3.4): where a pivot is not positive, a
Levenberg shift tau*I is added and grown until the factorization succeeds,
and the shift is warm-started from the previous iteration's tau/4.  Armijo
backtracking on the same energy globalizes the step.  The clamped energy
has kinks where an element slope reaches the clamp, so there the first
trial step is capped at the first kink along the Newton direction.
Boundary values are pinned structurally: the iterate is the interior
vector.  Mesh continuation, which seeds finer meshes with prolongated
coarse minimizers, lives in ``experiments``.

Every solve names why it stopped (``grad_tol``, ``max_iters`` or
``line_search``) and reports the smallest LDL^T pivot of the unshifted
Hessian at its final point; a positive pivot certifies a strict local
minimizer.  Non-convergence is reported, not raised; the gap demonstration
needs the reached energy either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import CutoffParams, fe_hessian, fe_objective
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
# A warm-started Levenberg shift below this fraction of the Hessian's
# largest diagonal entry is dropped, so pure Newton steps resume.
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
    solve meets the tolerance within about 1.5k iterations, and a solve
    that hits the cap says so in its stop reason."""

    grad_tol: float = 1e-9
    max_iters: int = 20_000

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if not self.max_iters > 0:
            raise ValueError("max_iters must be positive")


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
    return FeFunction(fine_mesh, vals, bc_flag=coarse.bc_flag)


def _ldl(diag, off, shift: float = 0.0):
    """Pivots and multipliers of the LDL^T factorization of the tridiagonal
    matrix with diagonal ``diag + shift`` and off-diagonal ``off``.

    Stops after the first pivot <= 0, so the matrix is positive definite
    exactly when the last returned pivot is positive.
    """
    pivot = diag[0] + shift
    pivots, mults = [pivot], []
    for a, b in zip(diag[1:], off):
        if pivot <= 0.0:
            break
        m = b / pivot
        pivot = a + shift - m * b
        mults.append(m)
        pivots.append(pivot)
    return pivots, mults


def _ldl_solve(pivots, mults, rhs):
    """Solve L D L^T x = rhs for the factors from :func:`_ldl`."""
    y = rhs[0]
    ys = [y]
    for m, r in zip(mults, rhs[1:]):
        y = r - m * y
        ys.append(y)
    x = y / pivots[-1]
    xs = [x]
    for m, yk, pk in zip(reversed(mults), reversed(ys[:-1]), reversed(pivots[:-1])):
        x = yk / pk - m * x
        xs.append(x)
    return np.array(xs[::-1])


def _newton_direction(hess, v, g, shift: float):
    """Direction -(H + shift I)^{-1} g and the shift it needed.

    A shift below ``_SHIFT_DROP`` times the largest diagonal entry is
    dropped; while a pivot is <= 0 the shift grows fourfold.
    """
    diag, off = hess(v)
    floor = _SHIFT_DROP * max(1.0, float(np.max(np.abs(diag))))
    diag, off = diag.tolist(), off.tolist()
    if shift < floor:
        shift = 0.0
    while True:
        pivots, mults = _ldl(diag, off, shift)
        if pivots[-1] > 0.0:
            return _ldl_solve(pivots, mults, (-g).tolist()), shift
        shift = max(4.0 * shift, floor)


def _min_pivot(hess, v: np.ndarray) -> float:
    """Smallest unshifted LDL^T pivot at ``v`` (the first non-positive one
    when the Hessian is not positive definite)."""
    if v.size == 0:
        return float("inf")
    diag, off = hess(v)
    return float(min(_ldl(diag.tolist(), off.tolist())[0]))


def _descend(energy, grad, hess, v0: np.ndarray, config: SolveConfig, max_step=None):
    """Shifted Newton with Armijo backtracking from interior values ``v0``.

    ``max_step(v, p)``, when given, caps the first trial step along ``p``.
    Returns the final point, its energy and gradient norm, the iteration
    count, the stop reason and the smallest unshifted pivot.
    """
    v = np.array(v0, dtype=float)
    e = energy(v)
    if not np.isfinite(e):
        raise FloatingPointError(f"starting energy is not finite: {e}")
    g = grad(v)
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    iters = 0
    shift = 0.0
    stalled = False
    while iters < config.max_iters and gnorm > config.grad_tol:
        p, shift = _newton_direction(hess, v, g, shift / 4.0)
        slope = float(g @ p)
        if not (np.isfinite(slope) and slope < 0.0):
            p = -g
            slope = -float(g @ g)
        trial = 1.0 if max_step is None else min(1.0, max_step(v, p))
        v_new = None
        while trial > _MIN_STEP:
            cand = v + trial * p
            e_cand = energy(cand)
            if np.isfinite(e_cand) and e_cand <= e + _ARMIJO_C * trial * slope:
                v_new = cand
                break
            trial *= _STEP_SHRINK
        if v_new is None:
            stalled = True
            break
        v, e = v_new, e_cand
        g = grad(v)
        gnorm = float(np.max(np.abs(g)))
        iters += 1
    if gnorm <= config.grad_tol:
        reason = "grad_tol"
    else:
        reason = "line_search" if stalled else "max_iters"
    return v, e, gnorm, iters, reason, _min_pivot(hess, v)


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
                  params: CutoffParams | None = None) -> SolveResult:
    """Single solve from given full nodal values; clamped if params given.

    The starting boundary values are replaced by the pinned 0 and 1.
    """
    config = config or SolveConfig()
    clamp = None
    if params is not None:
        params.check_mesh(mesh)
        clamp = params.clamp
    energy, gradient = fe_objective(mesh, clamp)
    max_step = None if clamp is None else _kink_step(mesh, clamp)
    start = np.asarray(start_values, dtype=float)[1:-1]
    v, e, gnorm, iters, reason, min_pivot = _descend(
        energy, gradient, fe_hessian(mesh, clamp), start, config, max_step)
    return SolveResult(
        minimizer=FeFunction.from_interior(mesh, v),
        energy=e,
        grad_norm=gnorm,
        iters=iters,
        reason=reason,
        min_pivot=min_pivot,
    )
