"""Gagliardo seminorms and fractional Sobolev norms for piecewise data.

For a piecewise-constant g the seminorm

    [g]_{W^{s,p}}^p = int int |g(x) - g(y)|^p / |x - y|^{1 + sp} dx dy

reduces to a sum over element pairs of |c_i - c_j|^p times a kernel integral
K(I_i, I_j) that has a closed form: integrating t^{-(1+sp)} twice gives the
second antiderivative Phi(t) = -t^{1-sp} / (sp (1 - sp)), and for ordered
intervals (a,b), (c,d) with b <= c inclusion-exclusion over the corner gaps
yields

    K = [ (c-a)^{1-sp} + (d-b)^{1-sp} - (d-a)^{1-sp} - (c-b)^{1-sp} ] / (sp (1-sp)).

Phi(0) = 0, so adjacent elements (b = c), where the kernel is singular but
integrable for sp < 1, need no special casing.  On a uniform mesh K depends
only on the index gap, which keeps the O(N^2) pair sum cheap.

The closed form is cross-checked by two independent oracles: tensor Gauss
quadrature of the kernel on separated pairs, and a Monte-Carlo estimate of
the double integral that samples one coordinate and integrates the other
exactly (with the once-integrated kernel phi(t) = t^{-sp}/sp, not the closed
form).  For x in element k that inner integral is, element by element,
|c_k - c_j|^p (phi(d_near) - phi(d_far)) with d_i = |x - x_i|; adjacent
elements share a node, so the sum telescopes to sum_i W[k, i] d_i^{-sp} and
a sample costs n+1 powers.  A sample that lands exactly on node k takes
d_k := h, so the element ending there contributes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, RegimeError
from .mesh import FeFunction, Mesh1D
from .quadrature import gauss_rule, integrate_cells

__all__ = [
    "PiecewiseConstant",
    "SeminormResult",
    "interval_kernel",
    "gagliardo_pc",
    "seminorm_w1sp",
    "norm_wkp",
    "norm_w1sp_full",
    "gagliardo_oracle_mc",
]


@dataclass(frozen=True)
class PiecewiseConstant:
    """One value per mesh element; houses v' for piecewise-linear v."""

    mesh: Mesh1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.mesh.n_elements,):
            raise ValueError(
                f"expected {self.mesh.n_elements} element values, got {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def evaluate(self, y):
        return self.values[self.mesh.element_indices(np.asarray(y, dtype=float))]


@dataclass(frozen=True)
class SeminormResult:
    value: float
    s: float
    p: float
    method: str  # closed_form | quadrature | monte_carlo
    est_error: float

    def __post_init__(self):
        if self.value < 0 or self.est_error < 0:
            raise ConsistencyError("seminorm value and error estimate must be nonnegative")


def _check_regime(s: float, p: float):
    if not 0.0 < s < 1.0:
        raise RegimeError(f"0 < s < 1 violated: s = {s}")
    if not p >= 1.0:
        raise RegimeError(f"p >= 1 violated: p = {p}")
    if not s * p < 1.0:
        raise RegimeError(f"sp < 1 violated: {s}*{p} = {s * p}")


def interval_kernel(a: float, b: float, c: float, d: float, sp: float) -> float:
    """K(I_1, I_2) = int_a^b int_c^d |x-y|^(-(1+sp)) dy dx for a < b <= c < d."""
    if not sp < 1.0:
        raise RegimeError(f"sp < 1 violated: sp = {sp}")
    if not (a < b <= c < d):
        raise ValueError("intervals must be ordered: a < b <= c < d")
    e = 1.0 - sp
    val = ((c - a) ** e + (d - b) ** e - (d - a) ** e - (c - b) ** e) / (sp * e)
    if val < 0:
        raise ConsistencyError(f"kernel integral came out negative: {val}")
    return val


def gagliardo_pc(g: PiecewiseConstant, s: float, p: float) -> SeminormResult:
    """Closed-form Gagliardo seminorm of piecewise-constant data.

    O(N^2) over element pairs; fine at desk scale (N <= 4096).
    """
    _check_regime(s, p)
    sp = s * p
    vals = g.values
    n = g.mesh.n_elements
    h = g.mesh.h
    e = 1.0 - sp
    acc = 0.0
    # uniform mesh: the kernel depends only on the index gap m
    for m in range(1, n):
        k = (h**e / (sp * e)) * (2.0 * m**e - (m - 1.0) ** e - (m + 1.0) ** e)
        diff = np.abs(vals[m:] - vals[:-m])
        acc += 2.0 * k * float(np.sum(diff**p))
    if acc < 0:
        raise ConsistencyError(f"seminorm accumulation came out negative: {acc}")
    return SeminormResult(acc ** (1.0 / p), s, p, "closed_form", 0.0)


def seminorm_w1sp(f: FeFunction, s: float, p: float) -> SeminormResult:
    """[f]_{W^{1+s,p}}: the Gagliardo seminorm of the piecewise-constant f'."""
    return gagliardo_pc(PiecewiseConstant(f.mesh, f.slopes()), s, p)


def _lp_power_linear(values: np.ndarray, h: float, p: float) -> float:
    """int |v|^p dx for piecewise-linear v, via d/dx(v|v|^p) = (p+1)|v|^p v'.

    Nearly flat elements switch to the endpoint average: the antiderivative
    difference cancels catastrophically there, while the average is accurate
    to O((v1-v0)^2) relative.
    """
    v0, v1 = values[:-1], values[1:]
    b = v1 - v0
    flat = np.abs(b) <= 1e-8 * (np.abs(v0) + np.abs(v1))
    safe_b = np.where(flat, 1.0, b)
    sloped = (v1 * np.abs(v1) ** p - v0 * np.abs(v0) ** p) * h / ((p + 1.0) * safe_b)
    level = 0.5 * (np.abs(v0) ** p + np.abs(v1) ** p) * h
    return float(np.sum(np.where(flat, level, sloped)))


def norm_wkp(f, k: int, p: float, *, grid=None, derivative=None) -> float:
    """W^{k,p} norm for k in {0, 1}.

    Finite element functions use exact per-element antiderivatives; callables
    are integrated on a supplied study grid (with ``derivative`` required for
    k = 1).
    """
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    if not p >= 1.0:
        raise RegimeError(f"p >= 1 violated: p = {p}")
    if isinstance(f, FeFunction):
        total = _lp_power_linear(f.nodal_values, f.mesh.h, p)
        if k == 1:
            total += f.mesh.h * float(np.sum(np.abs(f.slopes()) ** p))
        return total ** (1.0 / p)
    if grid is None:
        raise ValueError("integrating a callable requires a study grid")
    rule = gauss_rule(8)
    total = integrate_cells(rule, lambda x: np.abs(f(x)) ** p, grid)
    if k == 1:
        if derivative is None:
            raise ValueError("k = 1 for a callable requires its derivative")
        total += integrate_cells(rule, lambda x: np.abs(derivative(x)) ** p, grid)
    return total ** (1.0 / p)


def norm_w1sp_full(f: FeFunction, s: float, p: float) -> float:
    """Full W^{1+s,p} norm: (||f||_{W^{1,p}}^p + [f]_{W^{1+s,p}}^p)^(1/p)."""
    return (norm_wkp(f, 1, p) ** p + seminorm_w1sp(f, s, p).value ** p) ** (1.0 / p)


# Samples per chunk.  The piecewise-constant path keeps its (n+1) x chunk
# temporaries near cache size, and its draws do not depend on the chunk; the
# callable path draws x and y chunk by chunk, so its chunk is part of its
# random stream.
_PC_CHUNK = 65_536
_CALLABLE_CHUNK = 500_000


def _mc_accumulate(rng, n_samples: int, sampler, chunk: int) -> tuple[float, float]:
    """Chunked mean and standard error of ``sampler(x)`` over uniform x."""
    total = 0.0
    total_sq = 0.0
    remaining = int(n_samples)
    while remaining > 0:
        size = min(remaining, chunk)
        f = sampler(rng.random(size))
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
        remaining -= size
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    return mean, float(np.sqrt(var / n_samples))


def _pc_inner_integral(g: PiecewiseConstant, sp: float, p: float):
    """x -> int_0^1 |g(x) - g(y)|^p |x - y|^(-(1+sp)) dy, exact, for x in [0, 1).

    For x in element k and d_i = |x - x_i|, element j > k contributes
    |c_k - c_j|^p (phi_j - phi_{j+1}) and element j < k contributes
    |c_k - c_j|^p (phi_{j+1} - phi_j), with phi_i = d_i^(-sp)/sp.  Collecting
    the terms of each node gives sum_i W[k, i] d_i^(-sp) with W[k, i] =
    +-(|c_k - c_i|^p - |c_k - c_{i-1}|^p)/sp (+ for i > k, - for i <= k;
    out-of-range and same-element numerators are 0): n+1 powers per sample.

    On a node hit (x == x_k bitwise) d_k := h makes phi_k = phi_{k-1}, so
    element k-1 contributes 0 instead of its divergent integral; at x = 0,
    W[0, 0] = 0 keeps the sum finite.
    """
    n, h, nodes = g.mesh.n_elements, g.mesh.h, g.mesh.nodes
    numer = np.abs(g.values[:, None] - g.values[None, :]) ** p
    jumps = np.diff(numer, axis=1, prepend=0.0, append=0.0)
    # stored as W^T, (n+1) x n, so each node's row runs contiguously over samples
    sign = np.where(np.arange(n + 1)[:, None] > np.arange(n), 1.0, -1.0)
    weights = sign * jumps.T / sp
    column = nodes[:, None]

    def inner(x):
        # floor(x n) is off by at most one from the stored nodes; correct it
        k = np.minimum((x * n).astype(np.intp), n - 1)
        k -= nodes[k] > x
        k += nodes[k + 1] <= x
        d = column - x
        np.abs(d, out=d)
        hit = np.flatnonzero(nodes[k] == x)
        d[k[hit], hit] = h
        np.power(d, -sp, out=d)
        return np.einsum("ij,ij->j", weights[:, k], d)

    return inner


def gagliardo_oracle_mc(g, s: float, p: float, n_samples: int,
                        seed: int = 0) -> SeminormResult:
    """Monte-Carlo estimate of the Gagliardo double integral.

    For piecewise-constant data x is sampled uniformly and the inner
    y-integral is carried out exactly with the once-integrated kernel
    antiderivative t^(-sp)/sp, telescoped over the nodes so a sample costs
    n+1 powers (see ``_pc_inner_integral``).  Same-element pairs drop out
    analytically (their numerator is zero), and a sample exactly on a node
    takes the element ending there as contributing nothing.  The exact inner
    integral is what keeps the estimator's variance finite (for 2sp < 1)
    despite the integrable kernel singularity at shared element boundaries --
    naive sampling of both coordinates is heavy-tailed there and its standard
    error estimate is unreliable.  This path shares no algebra with the
    twice-integrated closed form it is used to check.

    Arbitrary callables fall back to plain uniform sampling of both
    coordinates (no element structure to integrate over); expect noisy error
    estimates in that mode.

    ``est_error`` is the standard error of the mean, transported to the
    seminorm scale by the delta method.
    """
    _check_regime(s, p)
    if n_samples < 10_000:
        raise ValueError(f"need at least 1e4 samples, got {n_samples}")
    rng = np.random.default_rng(seed)
    sp = s * p

    if isinstance(g, PiecewiseConstant):
        sampler, chunk = _pc_inner_integral(g, sp, p), _PC_CHUNK
    else:
        exponent = 1.0 + sp

        def sampler(x):
            y = rng.random(x.size)
            num = np.abs(np.asarray(g(x), dtype=float)
                         - np.asarray(g(y), dtype=float)) ** p
            dist = np.abs(x - y)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(num == 0.0, 0.0, num / dist**exponent)

        chunk = _CALLABLE_CHUNK

    mean, se_mean = _mc_accumulate(rng, n_samples, sampler, chunk)
    if mean <= 0.0:
        return SeminormResult(0.0, s, p, "monte_carlo", 0.0)
    value = mean ** (1.0 / p)
    # delta method: d(m^(1/p))/dm = m^(1/p - 1)/p
    est = se_mean * mean ** (1.0 / p - 1.0) / p
    return SeminormResult(value, s, p, "monte_carlo", est)
