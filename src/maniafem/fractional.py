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
only on the index gap m, so the pair sum is a sum over gaps: O(N^2) for
general p, taken in cache-sized blocks of gaps, and for p = 2 an
autocorrelation that one FFT evaluates in O(N log N).

The closed form is cross-checked by two independent oracles: tensor Gauss
quadrature of the kernel on separated pairs, and a Monte-Carlo estimate of
the double integral that samples one coordinate and integrates the other
exactly (with the once-integrated kernel phi(t) = t^{-sp}/sp, not the closed
form).  The samples are stratified by element: element k owns an equal
share of them, each drawn as x = (k + u) h with u uniform in [0, 1).  That
inner integral is, element by element, |c_k - c_j|^p (phi(d_near) -
phi(d_far)) with d_i = |x - x_i| = h |i - k - u|; adjacent elements share a
node, so the sum telescopes to sum_i W[k, i] d_i^{-sp}, and a sample costs
n+1 powers |i - k - u|^{-sp} with element k's one row of weights (h^{-sp}
sits in the weights).  Each power is taken as exp(-sp ln d), within about
(2 + sp |ln d|) eps of the exact power: exp turns the roundings of ln and
of the product into relative errors.  A sample with u = 0 takes d_k := h,
so the element ending at node k contributes nothing.  Each chunk of 65 536
samples is evaluated in blocks of about 65 536/(n+1) samples, so the
(n+1) x block distances stay in cache.

The closed form's blocks of gaps and the oracle's chunks run on every core,
and their partial sums are added in a fixed order, so no value depends on
the number of cores.
"""

from __future__ import annotations

import bisect
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConsistencyError, EvaluationError, RegimeError
from .mesh import FeFunction, Mesh1D
from .quadrature import integrate_cells  # noqa: F401  (kept for perfbench/tracer.py)

__all__ = [
    "PiecewiseConstant",
    "SeminormResult",
    "gagliardo_pc",
    "seminorm_w1sp",
    "norm_wkp",
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
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("element values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SeminormResult:
    value: float
    s: float
    p: float
    method: str  # closed_form | monte_carlo
    est_error: float

    def __post_init__(self):
        # written so that NaN fails: every comparison with NaN is False
        if not (0.0 <= self.value < np.inf and 0.0 <= self.est_error < np.inf):
            raise ConsistencyError(
                "seminorm value and error estimate must be finite and nonnegative, "
                f"got {self.value} and {self.est_error}"
            )


def _check_regime(s: float, p: float, sp_bound: float = 1.0):
    if not 0.0 < s < 1.0:
        raise RegimeError(f"0 < s < 1 violated: s = {s}")
    if not p >= 1.0:
        raise RegimeError(f"p >= 1 violated: p = {p}")
    if not s * p < sp_bound:
        raise RegimeError(f"sp < {sp_bound:g} violated: {s}*{p} = {s * p}")


def gagliardo_pc(g: PiecewiseConstant, s: float, p: float) -> SeminormResult:
    """Closed-form Gagliardo seminorm of piecewise-constant data.

    [g]^p = sum_m 2 K_m S_m with S_m = sum_i |c_{i+m} - c_i|^p over index
    gaps m.  For general p, gaps m0...m0+r-1 with r = min(_PC_BLOCK // w, w)
    (at least 1) and w = N - m0 form one (r, w) block, three numpy calls per
    block; row j's first w - j entries sum to S_{m0+j}, bitwise as one pass
    per gap would.  The blocks run on every core (``_on_workers``), each S_m
    into its own slot: 0.45-0.7 s at N = 16384 for p = 1.1 on 2 cores,
    0.9-1.0 s on one (x86_64, numpy 2.4).  For p = 2, with c shifted
    by its median (constant data becomes exactly 0),
    S_m = (2T - P_m - Q_m) - 2 R_m, where T = sum c_i^2, P_m and Q_m are the
    sums of c_i^2 over the first and last m elements, and R_m =
    sum_i c_i c_{i+m} comes from one rfft/irfft pair of length 2N: about 3 ms
    at N = 16384.  Each S_m is clipped at 0.  Both branches weight the S_m
    with one array of K_m and one einsum (the summation rule in ``quadrature``).

    Rounding for p = 2: each S_m is off by at most about
    eps (log2(2N) + 2m) T (the FFT's normwise bound and two sequential
    prefix sums).  The median is within one standard deviation of the mean,
    so T <= 2 N var(c), and K_m >= N^-2 bounds [g]^2 below by T/N.  With
    sum_m K_m <= N^(sp-1) / (sp(1-sp)) and sum_m m K_m <= 1 / (sp(1-sp)),
    the relative error of [g] is at most about
    eps (N^sp log2(2N) + 2N) / (sp(1-sp)).
    """
    _check_regime(s, p)
    sp = s * p
    vals = g.values
    n = g.mesh.n_elements
    h = g.mesh.h
    e = 1.0 - sp

    if p == 2.0:  # sums[m - 1] = S_m in both branches
        c = vals - np.median(vals)
        sq = c * c
        spec = np.fft.rfft(c, 2 * n)
        r = np.fft.irfft(spec.real**2 + spec.imag**2, 2 * n)[1:n]
        ends = np.cumsum(sq)[:-1] + np.cumsum(sq[::-1])[:-1]
        sums = np.maximum(2.0 * np.sum(sq) - ends - 2.0 * r, 0.0)
    else:
        blocks, m0 = [], 1  # (first gap, rows) of every block
        while m0 < n:
            blocks.append((m0, max(1, min(_PC_BLOCK // (n - m0), n - m0))))
            m0 += blocks[-1][1]
        size = max((r * (n - m0) for m0, r in blocks), default=0)
        # row m is c_m...c_{m+n-1}, past the end c_{n-1}: what a row holds
        # beyond its gap, never summed, overflows only where a summed entry does
        windows = sliding_window_view(np.concatenate([vals, np.full(n, vals[-1])]), n)
        sums = np.zeros(n - 1)

        def work(_, items):  # one run of blocks, through its own buffer
            buf = np.empty(size)
            for m0, r in (blocks[b] for b in items):
                w = n - m0
                d = np.subtract(windows[m0:m0 + r, :w], vals[:w], out=buf[:r * w].reshape(r, w))
                np.abs(d, out=d)
                np.power(d, p, out=d)
                for j in range(r):
                    sums[m0 + j - 1] = d[j, :w - j].sum()

        if blocks:  # n = 1 has no gaps
            _on_workers(len(blocks), work)
    m = np.arange(1.0, n)
    k = (h**e / (sp * e)) * (2.0 * m**e - (m - 1.0) ** e - (m + 1.0) ** e)
    acc = 2.0 * float(np.einsum("i,i->", k, sums))
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


def norm_wkp(f: FeFunction, p: float) -> float:
    """W^{1,p} norm of a finite element function, from exact per-element
    antiderivatives.  Other profiles are integrated on a ``StudyGrid`` (see
    ``studies.fe_error``)."""
    if not 1.0 <= p < np.inf:
        raise RegimeError(f"1 <= p < inf violated: p = {p}")
    if not isinstance(f, FeFunction):
        raise TypeError(f"norm_wkp takes a FeFunction, got {type(f).__name__}")
    h, values, slopes = f.mesh.h, f.nodal_values, f.slopes()

    def total(v, d):
        return _lp_power_linear(v, h, p) + h * float(np.sum(np.abs(d) ** p))

    with np.errstate(over="ignore", invalid="ignore"):
        plain = total(values, slopes)
    if np.finfo(float).tiny <= plain < np.inf:
        return plain ** (1.0 / p)
    # |v|^p over- or underflowed (large p): factor out the largest magnitude
    scale = max(np.max(np.abs(values)), np.max(np.abs(slopes)))
    return float(scale * total(values / scale, slopes / scale) ** (1.0 / p)) if scale else 0.0


# Samples per chunk, the unit _mc_accumulate sums and hands to its workers;
# the draws do not depend on it.
_PC_CHUNK = 65_536
# Elements per (n+1) x block buffer of the piecewise-constant sampler, so the
# block is _PC_BLOCK // (n+1) samples and the buffer takes 512 KiB, inside a
# 2 MiB L2.  The L2 is per core, so this is a per-worker budget: each worker
# owns its block buffer and its 0.5 MiB chunk of draws.  A whole (n+1) x
# chunk array takes 4.7 MB at n = 8; blocks cut the 10^7-sample trials at
# n = 2...16 by 16-37 % (x86_64).  A block of closed-form gaps holds at most
# max(_PC_BLOCK, n - 1) elements, and each worker owns a buffer for one.
_PC_BLOCK = 65_536
# Workers per oracle or closed-form call (at most one per chunk or block of
# gaps): the CPUs this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _on_workers(n_items: int, work) -> None:
    """Call ``work(first, items)`` once per contiguous run of the items
    0...n_items-1, in min(_WORKERS, n_items) runs of about equal length: the
    first run in the calling thread, each other on a thread of its own.
    ``items`` yields the run's indices in order, and none after any run has
    failed; the first error is re-raised after the join."""
    errors = []

    def run(first, stop):
        try:
            work(first, (i for i in range(first, stop) if not errors))
        except BaseException as exc:  # re-raised by the caller after the join
            errors.append(exc)

    workers = min(_WORKERS, n_items)
    bounds = [n_items * w // workers for w in range(workers + 1)]
    threads = [threading.Thread(target=run, args=bounds[w:w + 2])
               for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(*bounds[:2])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _mc_accumulate(rng, n_samples: int, n_strata: int, sampler):
    """Per-stratum sample counts, sums and sums of squares of ``sampler(k, u)``.

    Stratum k owns the samples floor(k N/n) ... floor((k+1) N/n) - 1 of the
    N = ``n_samples``, and sample i takes the i-th uniform double u of
    ``rng``.  The samples run in chunks of _PC_CHUNK on up to _WORKERS
    threads; each chunk is cut at the stratum starts into runs that share
    one k.  Each worker takes a contiguous run of chunks and draws from a
    PCG64 copy of ``rng`` advanced past the earlier chunks (one 64-bit output
    per double), so every chunk gets the samples one thread would draw.  The
    workers share ``sampler``, which must be safe to call from any thread.
    A chunk is drawn into one reused buffer and evaluated over it in place:
    about 1 MiB per worker with the sampler's block buffer.  The per-chunk,
    per-stratum sums are added in chunk order after the join, so the result
    is bitwise the same for any number of workers.
    """
    n_samples = int(n_samples)  # PCG64.advance rejects numpy integers
    n_chunks = -(-n_samples // _PC_CHUNK)
    starts = [k * n_samples // n_strata for k in range(n_strata + 1)]
    parts = [None] * n_chunks
    state = rng.bit_generator.state

    def work(first, chunks):
        bits = np.random.PCG64()
        bits.state = state
        draw = np.random.Generator(bits.advance(first * _PC_CHUNK)).random
        buf = np.empty(min(n_samples, _PC_CHUNK))
        for chunk in chunks:
            lo = chunk * _PC_CHUNK
            u = draw(out=buf[:min(_PC_CHUNK, n_samples - lo)])
            k, part = bisect.bisect_right(starts, lo) - 1, []
            while starts[k] < lo + u.size:  # starts[n_strata] = n_samples
                run = u[max(starts[k] - lo, 0):starts[k + 1] - lo]
                f = sampler(k, run, out=run)
                total = float(np.sum(f))
                np.multiply(f, f, out=f)
                part.append((k, total, float(np.sum(f))))
                k += 1
            parts[chunk] = part

    _on_workers(n_chunks, work)
    # plain loops, in chunk order: sum() compensates floats on Python >= 3.12
    sums, squares = [0.0] * n_strata, [0.0] * n_strata
    for part in parts:
        for k, total, square in part:
            sums[k] += total
            squares[k] += square
    return np.diff(starts).astype(float), np.array(sums), np.array(squares)


def _pc_weights(c: np.ndarray, sp: float, p: float) -> np.ndarray:
    """W^T for ``_pc_inner_integral``: the (n+1) x n table with entry [i, k]
    +-(|c_i - c_k|^p - |c_{i-1} - c_k|^p)/sp (+ for i > k), built in place.

    The sampler reads its transpose, one row of W per element.  Row i starts
    as |c_i - c_k|^p (that equals |c_k - c_i|^p bitwise), and the rows are
    differenced from the bottom up, one at a time, so no second n x n table
    is ever allocated.
    """
    n = c.size
    w = np.empty((n + 1, n))
    numer = w[:n]
    np.subtract(c[:, None], c, out=numer)
    np.abs(numer, out=numer)
    numer **= p
    np.subtract(0.0, w[n - 1], out=w[n])
    for i in range(n - 1, 0, -1):
        w[i] -= w[i - 1]
    np.negative(w, out=w, where=np.arange(n + 1)[:, None] <= np.arange(n))
    w /= sp
    return w


def _pc_inner_integral(g: PiecewiseConstant, sp: float, p: float):
    """(k, u) -> int_0^1 |g(x) - g(y)|^p |x - y|^(-(1+sp)) dy, exact, at
    x = (k + u) h in element k, for a 1-D array of u in [0, 1).

    With d_i = |x - x_i| = h |i - k - u|, element j > k contributes
    |c_k - c_j|^p (phi_j - phi_{j+1}) and element j < k contributes
    |c_k - c_j|^p (phi_{j+1} - phi_j), with phi_i = d_i^(-sp)/sp.  Collecting
    the terms of each node gives sum_i W[k, i] h^(-sp) |i - k - u|^(-sp) with
    W[k, i] = +-(|c_k - c_i|^p - |c_k - c_{i-1}|^p)/sp (+ for i > k, - for
    i <= k; out-of-range and same-element numerators are 0): n+1 terms per
    sample, all with element k's row of weights.  The distances are
    (k - i) + u for i <= k and (i - k) - u for i > k, bitwise |i - k - u|
    with no abs pass, and each power is exp(-sp ln d) in three in-place
    calls, about a third cheaper than ``np.power`` (x86_64, numpy 2.4), each
    term within (2 + sp |ln d|) eps of ``np.power``'s.  u is evaluated in
    blocks of _PC_BLOCK // (n+1) samples through one distance buffer per
    call, so threads may share the sampler and its one weight table.  The
    values go to ``out``, which may be u itself: each block is written after
    it is read.  The closure never refers to itself, so the weight table is
    freed by reference counting once the caller drops it.

    On a node hit (u == 0) d_k := h makes phi_k = phi_{k-1}, so element k-1
    contributes 0 instead of its divergent integral; at x = 0,
    W[0, 0] = 0 keeps the sum finite.
    """
    n = g.mesh.n_elements
    w = _pc_weights(g.values, sp, p)
    w *= g.mesh.h ** -sp
    rows = w.T  # a view: the weights stay the one (n + 1) x n table
    nodes = np.arange(n + 1.0)
    block = max(_PC_BLOCK // (n + 1), 3)

    def fill(k, u, out):
        below, above = (k - nodes[:k + 1])[:, None], (nodes[k + 1:] - k)[:, None]
        dist = np.empty((n + 1) * min(block, u.size))
        n_blocks = -(-u.size // block)
        for b in range(n_blocks):
            # equal blocks, none narrower than 2 since block >= 3
            lo, hi = u.size * b // n_blocks, u.size * (b + 1) // n_blocks
            ub = u[lo:hi]
            d = dist[:(n + 1) * (hi - lo)].reshape(n + 1, -1)
            # |i - k - u| with no abs pass: fl(a - u) = -fl(|a| + u) for integer a <= 0
            np.add(below, ub, out=d[:k + 1])
            np.subtract(above, ub, out=d[k + 1:])
            d[k, np.flatnonzero(ub == 0.0)] = 1.0
            np.log(d, out=d)
            np.multiply(d, -sp, out=d)
            np.exp(d, out=d)
            # written last, so out may be u itself
            np.einsum("i,ij->j", rows[k], d, out=out[lo:hi])

    def inner(k, u, out):
        if u.size == 1:
            # einsum sums a lone column in another order; a repeated column
            # keeps every value independent of how the samples are split
            pair = np.repeat(u, 2)
            fill(k, pair, pair)
            out[0] = pair[0]
        else:
            fill(k, u, out)
        return out

    return inner


def gagliardo_oracle_mc(g: PiecewiseConstant, s: float, p: float, n_samples: int,
                        seed: int = 0) -> SeminormResult:
    """Monte-Carlo estimate of the Gagliardo double integral of
    piecewise-constant data.

    The samples are stratified by element: element k takes the samples
    floor(k N/n) ... floor((k+1) N/n) - 1 of the N = ``n_samples``, and
    sample i sits at x = (k + u) h, with u the i-th double of
    ``default_rng(seed)``.  The inner y-integral is carried out exactly with
    the once-integrated kernel antiderivative t^(-sp)/sp, telescoped over
    the nodes so a sample costs n+1 powers, each taken as exp(-sp ln d)
    with a relative rounding error of about (2 + sp |ln d|) eps (see
    ``_pc_inner_integral``).
    Same-element pairs drop out analytically (their numerator is zero), and
    a sample with u = 0 takes the element ending at its node as contributing
    nothing.  The exact inner integral avoids the heavy tail of sampling
    both coordinates, yet grows like d^(-sp) near a node: the samples have
    finite variance only if 2sp < 1, else RegimeError (the closed form takes
    sp < 1).  This path shares no algebra with the twice-integrated closed
    form it is used to check.

    Samples are summed in chunks of 65 536, evaluated in cache-sized blocks
    and spread over every core (see ``_mc_accumulate``); neither changes any
    sample or sum.  ``n_samples`` must be an integer (1e6 raises), at least
    1e4 and at least two per element.

    The estimate is the stratified mean sum_k S_k / (n m_k) over the
    elements' sample sums S_k and counts m_k.  Its standard error is
    sqrt(sum_k v_k / m_k) / n, with v_k the unbiased variance of element
    k's samples.  The elements' equal shares of the samples (to within one)
    make its variance at most the plain mean's (Owen, *Monte Carlo theory,
    methods and examples*, 2013, ch. 8).  ``est_error`` is that
    standard error, transported to the seminorm scale by the delta method.
    """
    _check_regime(s, p, 0.5)  # 2sp < 1
    if not isinstance(g, PiecewiseConstant):
        raise TypeError(f"gagliardo_oracle_mc takes a PiecewiseConstant, got {type(g).__name__}")
    if not isinstance(n_samples, (int, np.integer)):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 10_000:
        raise ValueError(f"need at least 1e4 samples, got {n_samples}")
    n = g.mesh.n_elements
    if n_samples < 2 * n:
        raise ValueError(
            f"need at least two samples per element, got {n_samples} for {n} elements")
    rng = np.random.default_rng(seed)
    counts, sums, squares = _mc_accumulate(rng, n_samples, n, _pc_inner_integral(g, s * p, p))
    means = sums / counts
    var = np.maximum(squares / counts - means * means, 0.0) * counts / (counts - 1.0)
    mean = float(np.sum(means)) / n
    se_mean = float(np.sqrt(np.sum(var / counts))) / n
    if mean <= 0.0:
        return SeminormResult(0.0, s, p, "monte_carlo", 0.0)
    value = mean ** (1.0 / p)
    # delta method: d(m^(1/p))/dm = m^(1/p - 1)/p
    est = se_mean * mean ** (1.0 / p - 1.0) / p
    return SeminormResult(value, s, p, "monte_carlo", est)
