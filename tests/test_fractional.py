"""Fractional seminorm tests.

The closed-form pair kernel is validated against two quadrature oracles that
share none of its algebra: plain tensor Gauss on separated interval pairs,
and a geometrically graded tensor rule on adjacent pairs where the kernel is
singular but integrable.
"""

import functools
import gc
import math
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from helpers import interval_kernel
from maniafem import fractional
from maniafem.errors import ConsistencyError, EvaluationError, RegimeError
from maniafem.fractional import (
    PiecewiseConstant,
    SeminormResult,
    gagliardo_oracle_mc,
    gagliardo_pc,
    norm_wkp,
    seminorm_w1sp,
)
from maniafem.mesh import FeFunction, Mesh1D, interpolate
from maniafem.quadrature import StudyGrid, gauss_rule, graded_grid, integrate_cells
from maniafem.studies import _fe_at


def tensor_kernel_quad(a, b, c, d, sp, m=8):
    """Tensor-product Gauss quadrature of the raw kernel over two intervals."""
    rule = gauss_rule(m)
    xs = 0.5 * (a + b) + 0.5 * (b - a) * rule.points
    ys = 0.5 * (c + d) + 0.5 * (d - c) * rule.points
    wx = 0.5 * (b - a) * rule.weights
    wy = 0.5 * (d - c) * rule.weights
    vals = np.abs(xs[:, None] - ys[None, :]) ** (-(1.0 + sp))
    return float(wx @ vals @ wy)


def graded_tensor_kernel_quad(a, b, c, d, sp, m=8):
    """Adjacent-pair oracle: grade both intervals toward the shared point b = c.

    The innermost cell pair touches the corner singularity; its Gauss error
    is O(1) relative on a contribution of order (2^-levels)^(1-sp), so deep
    grading buries it.  Levels are capped so cell widths stay far above the
    spacing of doubles near the corner.
    """
    assert b == c
    eps = np.finfo(float).eps

    def grade(width):
        levels = min(48, int(np.log2(width / (1000.0 * eps * max(1.0, abs(b))))))
        return 0.5 ** np.arange(levels + 1)

    left = np.unique(np.concatenate([[a], b - (b - a) * grade(b - a), [b]]))
    right = np.unique(np.concatenate([[c], c + (d - c) * grade(d - c), [d]]))
    total = 0.0
    for la, lb in zip(left[:-1], left[1:]):
        for ra, rb in zip(right[:-1], right[1:]):
            total += tensor_kernel_quad(la, lb, ra, rb, sp, m)
    return total


def per_element_inner_integral(g, sp, p):
    """Reference inner integral: two powers per element, one element at a time.

    The element containing x (right-continuous at nodes) has a zero
    numerator; an element whose near edge sits exactly at x is masked to 0.
    x is located by bisection over the stored nodes, so a point one ulp
    below a node stays in the element its distances put it in.
    """
    lower = g.mesh.nodes[:-1][None, :]
    upper = g.mesh.nodes[1:][None, :]
    numer_table = np.abs(g.values[:, None] - g.values[None, :]) ** p
    width = float(g.mesh.h)

    def inner(x):
        numer = numer_table[np.searchsorted(g.mesh.nodes, x, "right") - 1]
        xc = x[:, None]
        near = np.maximum(lower - xc, xc - upper)
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = np.where(near > 0.0, (near**-sp - (near + width) ** -sp) / sp, 0.0)
        return np.einsum("ij,ij->i", numer, kappa)

    return inner


def local_inner_integral(g, sp, p):
    """The reference above at x = (k + u) h, read from (k, u) alone.

    Element j's near edge is (j - k) - u element widths above x for j > k
    and (k - j - 1) + u below it for j < k, and the kernel integral is
    h^(-sp) times its value in those units.  So no x is ever rounded, and no
    distance underflows: u = 1 - 2^-53 stays in element k, however large k
    is, and the smallest u > 0 keeps its huge but finite value.
    """
    n, width = g.mesh.n_elements, float(g.mesh.h)
    numer_table = np.abs(g.values[:, None] - g.values[None, :]) ** p
    j = np.arange(n)[None, :]

    def inner(k, u):
        k, u = np.broadcast_arrays(np.asarray(k), np.asarray(u, dtype=float))
        kc, uc = k[:, None], u[:, None]
        near = np.where(j > kc, (j - kc) - uc, (kc - j - 1) + uc)
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = np.where(near > 0.0, (near**-sp - (near + 1.0) ** -sp) / sp, 0.0)
        return width**-sp * np.einsum("ij,ij->i", numer_table[k], kappa)

    return inner


def strata_starts(n_samples, n):
    """First sample of each element's run, and the end: floor(k N / n)."""
    return np.array([k * n_samples // n for k in range(n + 1)])


# u = 0 is a node hit; the largest u below 1 and the smallest above 0 sit one
# ulp from a node at either end of the element
EDGE_U = np.array([0.0, 1.0 - 2.0**-53, 2.0**-53, np.nextafter(0.0, 1.0), 0.5])


class TestIntervalKernel:
    @pytest.mark.parametrize("sp", [0.1, 0.22, 0.5, 0.8])
    def test_matches_tensor_gauss_on_nonadjacent_element_pairs(self, sp):
        # width <= separation for mesh elements with an index gap >= 2, which
        # is the geometry the plain m = 8 tensor rule resolves to 1e-10
        for n in (4, 8):
            mesh = Mesh1D(n)
            for i in range(n):
                for j in range(i + 2, n):
                    closed = interval_kernel(
                        mesh.nodes[i], mesh.nodes[i + 1],
                        mesh.nodes[j], mesh.nodes[j + 1], sp)
                    quad = tensor_kernel_quad(
                        mesh.nodes[i], mesh.nodes[i + 1],
                        mesh.nodes[j], mesh.nodes[j + 1], sp)
                    assert closed == pytest.approx(quad, rel=1e-10)

    @pytest.mark.parametrize("sp", [0.22, 0.5])
    def test_matches_tensor_gauss_on_random_separated_pairs(self, sp):
        rng = np.random.default_rng(8)
        done = 0
        while done < 10:
            pts = np.sort(rng.uniform(0, 1, 4))
            a, b, c, d = pts
            if c - b < max(b - a, d - c):  # keep widths below the separation
                continue
            done += 1
            closed = interval_kernel(a, b, c, d, sp)
            quad = tensor_kernel_quad(a, b, c, d, sp, m=16)
            assert closed == pytest.approx(quad, rel=1e-10)

    @pytest.mark.parametrize("sp", [0.22, 0.25, 0.5])
    def test_matches_graded_quadrature_on_adjacent_pairs(self, sp):
        for (a, b, d) in [(0.0, 0.5, 1.0), (0.25, 0.5, 0.75), (0.1, 0.4, 0.45)]:
            closed = interval_kernel(a, b, b, d, sp)
            quad = graded_tensor_kernel_quad(a, b, b, d, sp)
            assert closed == pytest.approx(quad, rel=1e-6)

    def test_validation(self):
        with pytest.raises(RegimeError):
            interval_kernel(0.0, 0.5, 0.5, 1.0, 1.2)
        with pytest.raises(ValueError):
            interval_kernel(0.5, 0.2, 0.6, 1.0, 0.3)


def fft_rounding_bound(n, sp):
    """The a-priori relative error bound of the p = 2 path (gagliardo_pc)."""
    eps = np.finfo(float).eps
    return eps * (n**sp * np.log2(2 * n) + 2 * n) / (sp * (1 - sp))


def per_gap_reference(vals, h, s):
    """[g]_{W^{s,2}}: one einsum sum of squares per index gap, no FFT."""
    sp, n = 2.0 * s, vals.size
    e = 1.0 - sp
    acc = 0.0
    for m in range(1, n):
        k = (h**e / (sp * e)) * (2.0 * m**e - (m - 1.0) ** e - (m + 1.0) ** e)
        diff = vals[m:] - vals[:-m]
        acc += 2.0 * k * float(np.einsum("i,i->", diff, diff))
    return acc**0.5


def per_gap_loop(g, s, p, power=False):
    """[g]_{W^{s,p}} by the loop the gap blocks replaced: one O(N) pass per
    gap into a reused buffer, each power as exp(p ln |diff|) (or by
    ``np.power``), then gagliardo_pc's kernel array and einsum."""
    sp, n, h, vals = s * p, g.mesh.n_elements, g.mesh.h, g.values
    e = 1.0 - sp
    sums = np.zeros(n - 1)
    buf = np.empty(n - 1)
    for m in range(1, n):
        diff = np.subtract(vals[m:], vals[:-m], out=buf[: n - m])
        np.abs(diff, out=diff)
        if power:
            np.power(diff, p, out=diff)
        else:
            with np.errstate(divide="ignore"):
                np.log(diff, out=diff)
            np.multiply(diff, p, out=diff)
            np.exp(diff, out=diff)
        sums[m - 1] = np.sum(diff)
    m = np.arange(1.0, n)
    k = (h**e / (sp * e)) * (2.0 * m**e - (m - 1.0) ** e - (m + 1.0) ** e)
    return (2.0 * float(np.einsum("i,i->", k, sums))) ** (1.0 / p)


@functools.lru_cache(maxsize=None)
def pair_kernel_table(n, sp):
    """interval_kernel for every ordered element pair i < j, row by row."""
    nodes = Mesh1D(n).nodes
    return np.array([interval_kernel(nodes[i], nodes[i + 1], nodes[j], nodes[j + 1], sp)
                     for i in range(n) for j in range(i + 1, n)])


class TestGagliardoClosedForm:
    def test_constant_data_has_zero_seminorm(self):
        # exactly 0, not rounding-level: the p = 2 path shifts by a value
        # (the median) that constant data reproduces exactly
        for n in (1, 2, 3, 8, 100, 4096):
            for value in (3.7, 0.1, -2.2, 1e6 + 0.3):
                g = PiecewiseConstant(Mesh1D(n), np.full(n, value))
                for s, p in ((0.2, 1.1), (0.4, 2.0)):
                    result = gagliardo_pc(g, s, p)
                    assert result.value == 0.0
                    assert result.method == "closed_form"
                    assert result.est_error == 0.0

    @pytest.mark.parametrize("n", [3, 100, 1000, 4096])
    def test_near_constant_data_never_raises(self, n):
        # the p = 2 path's S_m are sums of squares computed by cancellation;
        # clipping keeps rounding from turning the accumulation negative
        vals = 1.0 + 1e-8 * np.random.default_rng(n).standard_normal(n)
        g = PiecewiseConstant(Mesh1D(n), vals)
        assert gagliardo_pc(g, 0.2, 1.1).value > 0.0
        for s in (0.2, 0.4, 0.45):
            assert gagliardo_pc(g, s, 2.0).value == pytest.approx(
                per_gap_reference(vals, g.mesh.h, s), rel=fft_rounding_bound(n, 2 * s), abs=0.0)

    @pytest.mark.parametrize("n", [64, 1024])
    def test_hilbert_fft_matches_pair_kernel_sum(self, n):
        # the a-priori bound from the docstring, against an independent
        # per-pair kernel evaluation summed in one pairwise np.sum
        rng = np.random.default_rng(40 + n)
        x = np.arange(n, dtype=float)
        data = {
            "random": rng.uniform(-1, 1, n),
            "ramp": x,
            "near_constant": 1.0 + 1e-8 * rng.standard_normal(n),
            "offset_sine": 1e6 + np.sin(0.1 * x),
        }
        i, j = np.triu_indices(n, k=1)
        for s in (0.2, 0.4):
            kernels = pair_kernel_table(n, 2.0 * s)
            for name, vals in data.items():
                exact = np.sum(2.0 * kernels * (vals[i] - vals[j]) ** 2) ** 0.5
                value = gagliardo_pc(PiecewiseConstant(Mesh1D(n), vals), s, 2.0).value
                assert value == pytest.approx(
                    exact, rel=fft_rounding_bound(n, 2.0 * s), abs=0.0), name

    def test_hilbert_fft_on_root_slopes_matches_per_gap_sum(self):
        # the inverse study's input at N = 4096: the first slope is ~500x
        # the median, and a shift by vals[0] instead misses 1e-12 here
        f = interpolate(Mesh1D(4096), lambda x: x ** (1 / 3))
        g = PiecewiseConstant(f.mesh, f.slopes())
        for s in (0.2, 0.4, 0.45):
            value = gagliardo_pc(g, s, 2.0).value
            assert value == pytest.approx(
                per_gap_reference(g.values, f.mesh.h, s), rel=1e-12, abs=0.0)
            assert gagliardo_pc(g, s, 2.0).value == value

    def test_matches_pairwise_kernel_sum(self):
        # the uniform-gap shortcut must equal the explicit pair double sum
        rng = np.random.default_rng(9)
        for n in (2, 3, 8):
            mesh = Mesh1D(n)
            vals = rng.uniform(-1, 1, n)
            g = PiecewiseConstant(mesh, vals)
            for s, p in ((0.2, 1.1), (0.25, 1.0), (0.4, 2.0)):
                acc = 0.0
                for i in range(n):
                    for j in range(i + 1, n):
                        k = interval_kernel(
                            mesh.nodes[i], mesh.nodes[i + 1],
                            mesh.nodes[j], mesh.nodes[j + 1], s * p)
                        acc += 2.0 * abs(vals[i] - vals[j]) ** p * k
                assert gagliardo_pc(g, s, p).value == pytest.approx(
                    acc ** (1 / p), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    def test_hilbert_sum_of_squares_matches_pair_double_loop(self, n):
        # p = 2 takes its own path (one einsum per gap); s = 0.4 is the
        # inverse study's Hilbert variant
        rng = np.random.default_rng(30 + n)
        mesh = Mesh1D(n)
        vals = rng.uniform(-1, 1, n)
        for s in (0.2, 0.4, 0.45):
            acc = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    k = interval_kernel(
                        mesh.nodes[i], mesh.nodes[i + 1],
                        mesh.nodes[j], mesh.nodes[j + 1], 2.0 * s)
                    acc += 2.0 * (vals[i] - vals[j]) ** 2 * k
            value = gagliardo_pc(PiecewiseConstant(mesh, vals), s, 2.0).value
            assert value == pytest.approx(acc ** 0.5, rel=1e-13, abs=0.0)

    def test_general_p_path_is_pinned_bitwise(self):
        # abs -> power -> sum per gap, in place, then one K_m array and one
        # einsum: the inverse study's input, pinned to the last bit
        f = interpolate(Mesh1D(1024), lambda x: x ** (1 / 3))
        g = PiecewiseConstant(f.mesh, f.slopes())
        assert gagliardo_pc(g, 0.2, 1.1).value == 9.799187601478023

    def test_gap_blocks_and_worker_count_change_no_bit(self, monkeypatch):
        # blocks of one gap (1), of a few short rows (7) and the default;
        # more workers than cores, switching often: a lost or misplaced row
        # sum would show as a second value.  n = 1 has no gaps at all
        blocks = (1, 7, fractional._PC_BLOCK)
        rng = np.random.default_rng(23)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for n in (1, 2, 3, 5, 17, 1024):
                mesh = Mesh1D(n)
                slopes = interpolate(mesh, lambda x: x ** (1 / 3)).slopes()
                for vals in (rng.uniform(-1, 1, n), slopes):
                    g = PiecewiseConstant(mesh, vals)
                    results = set()
                    for block in blocks:
                        for workers in (1, 2, 3, 5):
                            monkeypatch.setattr(fractional, "_PC_BLOCK", block)
                            monkeypatch.setattr(fractional, "_WORKERS", workers)
                            results.add(gagliardo_pc(g, 0.2, 1.1).value)
                    assert results == {per_gap_loop(g, 0.2, 1.1)}, n
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 1024])
    def test_log_domain_powers_match_np_power(self, monkeypatch, n):
        # zero differences (repeated values) take ln 0 = -inf inside the
        # workers, which must neither warn nor give anything but exp(-inf) = 0
        monkeypatch.setattr(fractional, "_WORKERS", 2)
        rng = np.random.default_rng(39 + n)
        mesh = Mesh1D(n)
        p, eps = 1.1, np.finfo(float).eps
        data = {
            "random": rng.uniform(-1, 1, n),
            "root_slopes": interpolate(mesh, lambda x: x ** (1 / 3)).slopes(),
            "repeated": np.repeat(rng.uniform(-1, 1, n), 2)[:n],
        }
        for name, vals in data.items():
            g = PiecewiseConstant(mesh, vals)
            gaps = np.abs(vals[:, None] - vals)
            log_max = float(np.max(np.abs(np.log(gaps[gaps > 0])), initial=0.0))
            # an ulp each in ln, times p, exp and np.power: (2 + 2p |ln D|) eps per term and sum
            bound = (2.0 + 2.0 * p * log_max) * eps
            assert gagliardo_pc(g, 0.2, p).value == pytest.approx(
                per_gap_loop(g, 0.2, p, power=True), rel=bound, abs=0.0), name

    def test_a_stalled_worker_holds_back_no_other(self, monkeypatch):
        # the thread takes the first block and waits until the calling thread
        # is done: that thread must then have run every other block
        monkeypatch.setattr(fractional, "_WORKERS", 2)
        monkeypatch.setattr(fractional, "_PC_BLOCK", 4096)
        g = PiecewiseConstant(Mesh1D(1024), np.random.default_rng(11).uniform(-1, 1, 1024))
        expected = gagliardo_pc(g, 0.2, 1.1).value
        on_workers = fractional._on_workers
        taken, caller_done = threading.Event(), threading.Event()
        sizes, stalled, ran = [], [], []

        def stalling(n_items, work):
            def run(items):
                if threading.current_thread() is threading.main_thread():
                    assert taken.wait(30)
                    work(i for i in items if not ran.append(i))
                    caller_done.set()
                else:
                    stalled.append(next(items))
                    taken.set()
                    assert caller_done.wait(30)
                    work(iter(stalled))
            sizes.append(n_items)
            on_workers(n_items, run)

        monkeypatch.setattr(fractional, "_on_workers", stalling)
        assert gagliardo_pc(g, 0.2, 1.1).value == expected
        assert sizes[0] > 2
        assert stalled == [0]
        assert ran == list(range(1, sizes[0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_gap_differences_raise(self, monkeypatch, workers):
        # N = 1024 spans several blocks, so two workers start a thread; a
        # worker thread does not inherit the caller's np.errstate, so the
        # guard is SeminormResult's finiteness check
        monkeypatch.setattr(fractional, "_WORKERS", workers)
        g = PiecewiseConstant(Mesh1D(1024), np.resize([1e308, -1e308], 1024))
        with pytest.raises(ConsistencyError, match="finite"):
            gagliardo_pc(g, 0.2, 1.1)

    def test_two_element_jump_matches_monte_carlo(self):
        g = PiecewiseConstant(Mesh1D(2), [1.0, 0.0])
        closed = gagliardo_pc(g, 0.25, 1.0)
        mc = gagliardo_oracle_mc(g, 0.25, 1.0, 10**6, seed=17)
        assert abs(closed.value - mc.value) <= 3.0 * mc.est_error

    def test_homogeneity(self):
        rng = np.random.default_rng(10)
        g = PiecewiseConstant(Mesh1D(4), rng.uniform(-1, 1, 4))
        base = gagliardo_pc(g, 0.2, 1.1).value
        for lam in (0.0, 0.5, 3.0):
            scaled = PiecewiseConstant(g.mesh, lam * g.values)
            assert gagliardo_pc(scaled, 0.2, 1.1).value == pytest.approx(
                lam * base, rel=1e-12, abs=1e-15)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(11)
        g = PiecewiseConstant(Mesh1D(6), rng.uniform(-1, 1, 6))
        flipped = PiecewiseConstant(g.mesh, g.values[::-1])
        assert gagliardo_pc(g, 0.2, 1.1).value == pytest.approx(
            gagliardo_pc(flipped, 0.2, 1.1).value, rel=1e-12)

    def test_subadditivity(self):
        rng = np.random.default_rng(12)
        mesh = Mesh1D(8)
        for _ in range(20):
            u = PiecewiseConstant(mesh, rng.uniform(-1, 1, 8))
            v = PiecewiseConstant(mesh, rng.uniform(-1, 1, 8))
            both = PiecewiseConstant(mesh, u.values + v.values)
            lhs = gagliardo_pc(both, 0.2, 1.1).value
            rhs = gagliardo_pc(u, 0.2, 1.1).value + gagliardo_pc(v, 0.2, 1.1).value
            assert lhs <= rhs * (1 + 1e-10)

    def test_regime_rejections(self):
        g = PiecewiseConstant(Mesh1D(2), [0.0, 1.0])
        with pytest.raises(RegimeError):
            gagliardo_pc(g, 0.6, 2.0)  # sp >= 1
        with pytest.raises(RegimeError):
            gagliardo_pc(g, 1.2, 0.5)
        with pytest.raises(RegimeError, match="p >= 1 violated"):
            gagliardo_pc(g, 0.2, 0.9)


class TestSeminormW1sp:
    def test_identity_has_constant_slope(self):
        f = interpolate(Mesh1D(8), lambda x: x)
        assert seminorm_w1sp(f, 0.2, 1.1).value == 0.0

    def test_delegates_to_slope_data(self):
        f = FeFunction(Mesh1D(2), [0.0, 0.5, 0.5])
        direct = gagliardo_pc(PiecewiseConstant(f.mesh, f.slopes()), 0.25, 1.0)
        assert seminorm_w1sp(f, 0.25, 1.0).value == direct.value

    def test_grows_as_mesh_refines_for_singular_profile(self):
        values = []
        for n in (8, 32, 128, 512):
            f = interpolate(Mesh1D(n), lambda x: x ** (1 / 3))
            values.append(seminorm_w1sp(f, 0.2, 1.1).value)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestNormWkp:
    def test_identity_w12_norm(self):
        # ||x||_2^2 + ||1||_2^2 = 1/3 + 1
        f = FeFunction(Mesh1D(1), [0.0, 1.0])
        assert norm_wkp(f, 2.0) == pytest.approx(np.sqrt(4 / 3), rel=1e-14)

    def test_zero_function(self):
        f = FeFunction(Mesh1D(4), np.zeros(5))
        assert norm_wkp(f, 1.3) == 0.0

    def test_root_l1_norm_via_graded_quadrature(self):
        grid = StudyGrid(Mesh1D(16))
        value = grid.integrate(lambda x, k: np.abs(x ** (1 / 3)))
        assert value == pytest.approx(0.75, rel=1e-10)

    def test_fe_closed_form_matches_quadrature_positive_data(self):
        # positive nodal values keep |v|^p smooth, so plain graded quadrature
        # is itself exact and any disagreement indicts the closed form
        rng = np.random.default_rng(13)
        for n in (3, 8):
            mesh = Mesh1D(n)
            f = FeFunction(mesh, rng.uniform(0.1, 1.1, n + 1))
            grid = StudyGrid(mesh)
            slopes = f.slopes()
            for p in (1.0, 1.1, 2.0, 2.7):
                closed = norm_wkp(f, p)
                quad = (grid.integrate(lambda x, k: np.abs(_fe_at(f, x, k)) ** p)
                        + grid.integrate(lambda x, k: np.abs(
                            np.broadcast_to(slopes[k, None], x.shape)) ** p)
                        ) ** (1.0 / p)
                assert closed == pytest.approx(quad, rel=1e-12)

    def test_fe_closed_form_handles_sign_crossings(self):
        # for p in {1, 2} a crossing-aligned grid integrates |v|^p exactly,
        # which pins down the closed form's sign handling
        rng = np.random.default_rng(19)
        rule = gauss_rule(8)
        for n in (3, 8):
            mesh = Mesh1D(n)
            f = FeFunction(mesh, rng.uniform(-1, 1, n + 1))
            v0, v1 = f.nodal_values[:-1], f.nodal_values[1:]
            cross = v0 * v1 < 0
            zeros = mesh.nodes[:-1][cross] + mesh.h * v0[cross] / (v0[cross] - v1[cross])
            grid = np.unique(np.concatenate([graded_grid(mesh), zeros]))
            for p in (1.0, 2.0):
                closed = norm_wkp(f, p)
                quad = (integrate_cells(rule, lambda x: np.abs(f.evaluate(x)) ** p, grid)
                        + integrate_cells(rule, lambda x: np.abs(f.slope_at(x)) ** p, grid)
                        ) ** (1.0 / p)
                assert closed == pytest.approx(quad, rel=1e-12)

    def test_validation(self):
        f = FeFunction(Mesh1D(2), [0.0, 0.5, 1.0])
        with pytest.raises(RegimeError):
            norm_wkp(f, 0.5)
        # other profiles are integrated on a StudyGrid, not here
        with pytest.raises(TypeError, match="FeFunction"):
            norm_wkp(lambda x: x, 1.1)
        with pytest.raises(TypeError, match="FeFunction"):
            norm_wkp(f.evaluate, 1.1)

    def test_infinite_p_is_rejected(self):
        # p = inf used to return total ** (1 / inf) = 1.0 for every function
        root = interpolate(Mesh1D(8), lambda x: np.power(x, 1 / 3))
        for f in (root, FeFunction(Mesh1D(2), [0.0, 3.0, 1.0])):
            for p in (np.inf, float("inf"), np.nan):
                with pytest.raises(RegimeError, match="1 <= p < inf violated"):
                    norm_wkp(f, p)
            assert np.isfinite(norm_wkp(f, 40.0)) and norm_wkp(f, 40.0) > 1.0


    @pytest.mark.parametrize("nodal, p", [
        ([0, 3, 1], 400), ([0, 3, 1], 1000), ([0, 2**-10, 2**-10], 200)])
    def test_large_finite_p_neither_overflows_nor_underflows(self, nodal, p):
        # |v|^p and |v'|^p used to be formed before the 1/p root: at p = 400
        # the slopes 6 and -4 overflowed to inf, and at p = 200 the slope
        # 2^-9 underflowed to a zero norm.  The reference integrates the two
        # linear pieces exactly in rationals (integer p, dyadic data)
        f = FeFunction(Mesh1D(2), nodal)
        h = Fraction(1, 2)
        v = [Fraction(x) for x in nodal]
        total = Fraction(0)
        for v0, v1 in zip(v, v[1:]):
            total += h * ((v1 ** (p + 1) - v0 ** (p + 1)) / ((p + 1) * (v1 - v0))
                          if v1 != v0 else v0 ** p)
            total += h * abs((v1 - v0) / h) ** p
        expected = math.exp((math.log(total.numerator) - math.log(total.denominator)) / p)
        assert norm_wkp(f, float(p)) == pytest.approx(expected, rel=1e-13)


class TestMonteCarloOracle:
    def test_constant_data(self):
        g = PiecewiseConstant(Mesh1D(4), np.full(4, 2.0))
        result = gagliardo_oracle_mc(g, 0.2, 1.1, 10**5, seed=1)
        assert result.value == 0.0 and result.est_error == 0.0

    def test_sample_floor(self):
        g = PiecewiseConstant(Mesh1D(2), [0.0, 1.0])
        with pytest.raises(ValueError):
            gagliardo_oracle_mc(g, 0.2, 1.1, 5000)

    def test_non_integral_sample_count_is_rejected(self):
        # 10000.9 used to draw 10 000 samples and divide their sum by 10000.9
        g = PiecewiseConstant(Mesh1D(2), [0.0, 1.0])
        for bad in (10_000.9, 1e5, "10000"):
            with pytest.raises(ValueError, match="integer"):
                gagliardo_oracle_mc(g, 0.2, 1.1, bad, seed=1)
        assert (gagliardo_oracle_mc(g, 0.2, 1.1, np.int64(10_000), seed=1)
                == gagliardo_oracle_mc(g, 0.2, 1.1, 10_000, seed=1))

    def test_infinite_variance_regime_is_rejected(self):
        # the inner integral grows like d^(-sp) at a node, so the samples
        # have finite variance only for 2sp < 1; at (0.4, 2.0) the reported
        # standard error came with |z| up to 8.4 over 200 seeds
        g = PiecewiseConstant(Mesh1D(2), [1.0, 0.0])
        for s, p in ((0.4, 2.0), (0.25, 2.0), (0.5, 1.0), (0.45, 1.2)):
            with pytest.raises(RegimeError, match="sp < 0.5 violated"):
                gagliardo_oracle_mc(g, s, p, 10**4)
            assert gagliardo_pc(g, s, p).value > 0.0  # the closed form takes sp < 1
        assert gagliardo_oracle_mc(g, 0.24, 2.0, 10**4).value > 0.0

    def test_error_scales_like_root_n(self):
        g = PiecewiseConstant(Mesh1D(2), [1.0, 0.0])
        small = gagliardo_oracle_mc(g, 0.25, 1.0, 10**5, seed=3).est_error
        large = gagliardo_oracle_mc(g, 0.25, 1.0, 4 * 10**5, seed=3).est_error
        assert 1.6 <= small / large <= 2.5

    @pytest.mark.parametrize("values, n_samples, seed, pinned", [
        ([0.3, -1.0, 0.8, 0.1, -0.4], 3 * fractional._PC_CHUNK + 7, 8,
         (4.337571387853205, 0.0055110267355389046)),
        (np.linspace(-1, 1, 16) ** 3, 10**6, 9, (2.020017217054483, 0.0005009255735049122)),
        ([0.3, -1.0, 0.8, 0.1], 3 * fractional._PC_CHUNK + 7, 8,
         (4.230451372926395, 0.005853105805638992)),
    ])
    def test_pc_path_is_pinned_bitwise(self, values, n_samples, seed, pinned):
        # recorded from the element-stratified sampler with the log-domain
        # kernel exp(-sp ln d), before any later change to it: every sample,
        # and so every sum, must stay as it was.  n = 5 cuts its chunks at
        # strata starts that are not multiples of the chunk; 10^6 samples at
        # n = 16 end in a short chunk
        g = PiecewiseConstant(Mesh1D(len(values)), values)
        mc = gagliardo_oracle_mc(g, 0.2, 1.1, n_samples, seed=seed)
        assert (mc.value, mc.est_error) == pinned

    # one chunk holding every element; chunks cut inside elements and
    # elements cut inside chunks, the last chunk short
    @pytest.mark.parametrize("n, n_samples", [(3, 10_000), (7, 3 * fractional._PC_CHUNK + 7)])
    def test_each_element_gets_its_samples(self, n, n_samples):
        rng = np.random.default_rng(80 + n)
        g = PiecewiseConstant(Mesh1D(n), rng.uniform(-1, 1, n))
        sp, p = 0.22, 1.1
        counts, sums, squares = fractional._mc_accumulate(
            np.random.default_rng(5), n_samples, n, fractional._pc_inner_integral(g, sp, p))
        starts = strata_starts(n_samples, n)
        assert counts.tolist() == np.diff(starts).tolist()
        assert counts.sum() == n_samples and counts.min() >= n_samples // n
        u = np.random.default_rng(5).random(n_samples)
        reference = local_inner_integral(g, sp, p)
        for k in range(n):
            f = reference(k, u[starts[k]:starts[k + 1]])
            assert sums[k] / counts[k] == pytest.approx(np.mean(f), rel=1e-12), k
            assert squares[k] / counts[k] == pytest.approx(np.mean(f * f), rel=1e-12), k

    def test_fewer_than_two_samples_per_element_are_rejected(self):
        # each element's variance needs two samples; this raises before the
        # (n + 1) x n weight table is built
        for n, n_samples in ((5001, 10_001), (6000, 11_999), (10**6, 10**6)):
            g = PiecewiseConstant(Mesh1D(n), np.zeros(n))
            with pytest.raises(ValueError, match="two samples per element"):
                gagliardo_oracle_mc(g, 0.2, 1.1, n_samples, seed=1)

    def test_perturbed_closed_form_fails_the_gate(self):
        # the gate has power: a closed form off by 1e-2 relative lies many
        # standard errors away at n = 8 and 10^6 samples, either way
        rng = np.random.default_rng(81)
        for trial in range(3):
            g = PiecewiseConstant(Mesh1D(8), rng.uniform(-1, 1, 8))
            closed = gagliardo_pc(g, 0.2, 1.1).value
            mc = gagliardo_oracle_mc(g, 0.2, 1.1, 10**6, seed=200 + trial)
            assert abs(closed - mc.value) <= 3.0 * mc.est_error, trial
            for factor in (1.01, 0.99):
                assert abs(factor * closed - mc.value) > 3.0 * mc.est_error, (trial, factor)

    def test_agreement_on_random_data(self):
        rng = np.random.default_rng(14)
        for trial in range(6):
            n = int(rng.choice([2, 4, 8]))
            g = PiecewiseConstant(Mesh1D(n), rng.uniform(-1, 1, n))
            closed = gagliardo_pc(g, 0.2, 1.1)
            mc = gagliardo_oracle_mc(g, 0.2, 1.1, 10**6, seed=100 + trial)
            assert abs(closed.value - mc.value) <= 3.0 * mc.est_error

    def test_calls_retain_no_memory(self, monkeypatch):
        # a sampler or worker caught in a reference cycle keeps the weight
        # table or its 1 MiB of buffers until a full collection; 10^5 samples
        # are two chunks, so with two workers both share the sampler
        g = PiecewiseConstant(Mesh1D(8), np.random.default_rng(15).uniform(-1, 1, 8))
        for workers in (1, 2):
            monkeypatch.setattr(fractional, "_WORKERS", workers)
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                for seed in range(5):
                    gagliardo_oracle_mc(g, 0.2, 1.1, 10**5, seed=seed)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
                gc.enable()
            assert held <= 64 * 1024, workers

    def test_workers_share_one_weight_table(self, monkeypatch):
        # four chunks on four workers: one (n + 1) x n table for all of them,
        # plus each worker's draw and block buffers (a table per worker
        # peaked at 4.6 tables with full chunks); short chunks keep it quick
        monkeypatch.setattr(fractional, "_WORKERS", 4)
        monkeypatch.setattr(fractional, "_PC_CHUNK", 4096)
        n = 1024
        g = PiecewiseConstant(Mesh1D(n), np.random.default_rng(73).uniform(-1, 1, n))
        tracemalloc.start()
        try:
            gagliardo_oracle_mc(g, 0.2, 1.1, 4 * fractional._PC_CHUNK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (n + 1) * n * 8

    # the last count ends in a one-sample chunk, which takes the lone path
    @pytest.mark.parametrize("n_samples", [
        10_000, 3 * fractional._PC_CHUNK + 7, 7 * fractional._PC_CHUNK + 1])
    def test_worker_count_changes_no_bit(self, monkeypatch, n_samples):
        g = PiecewiseConstant(Mesh1D(5), [0.3, -1.0, 0.8, 0.1, -0.4])
        results = set()
        # more workers than cores, switching often: a lost chunk sum would
        # show as a missing or moved value
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 5):
                monkeypatch.setattr(fractional, "_WORKERS", workers)
                mc = gagliardo_oracle_mc(g, 0.2, 1.1, n_samples, seed=8)
                results.add((mc.value, mc.est_error))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 1

    # both callers of the shared worker helper: the oracle's chunks and the
    # closed form's blocks of gaps (N = 1024 spans several blocks)
    @pytest.mark.parametrize("call", [
        lambda: gagliardo_oracle_mc(PiecewiseConstant(Mesh1D(5), [0.3, -1.0, 0.8, 0.1, -0.4]),
                                    0.2, 1.1, 4 * fractional._PC_CHUNK, seed=3),
        lambda: gagliardo_pc(PiecewiseConstant(
            Mesh1D(1024), np.random.default_rng(3).uniform(-1, 1, 1024)), 0.2, 1.1),
    ], ids=["oracle_chunks", "gap_blocks"])
    def test_worker_error_is_raised_after_the_join(self, monkeypatch, call):
        # the thread fails before it takes an item; the calling thread waits
        # until that thread has ended, so every item is still there to take
        monkeypatch.setattr(fractional, "_WORKERS", 2)
        on_workers = fractional._on_workers
        failing_thread, handed, done = [], [], []
        started = threading.Event()

        def failing(n_items, work):
            def run(items):
                if threading.current_thread() is not threading.main_thread():
                    failing_thread.append(threading.current_thread())
                    started.set()
                    raise EvaluationError("worker 1 failed")
                assert started.wait(30)
                failing_thread[0].join(30)
                assert not failing_thread[0].is_alive()
                work(i for i in items if not handed.append(i))
                done.append(n_items)
            on_workers(n_items, run)

        monkeypatch.setattr(fractional, "_on_workers", failing)
        threads = threading.active_count()
        with pytest.raises(EvaluationError, match="worker 1 failed"):
            call()
        # the calling thread's run returned after taking no item, and no
        # worker thread is left
        assert len(done) == 1 and done[0] > 1
        assert handed == []
        assert threading.active_count() == threads

    def test_chunks_in_any_order_draw_the_pinned_samples(self, monkeypatch):
        # one worker takes the chunks last to first: each chunk must still
        # draw from its own place in the stream (the first pinned case)
        def backwards(n_items, work):
            work(iter(range(n_items - 1, -1, -1)))

        monkeypatch.setattr(fractional, "_on_workers", backwards)
        g = PiecewiseConstant(Mesh1D(5), [0.3, -1.0, 0.8, 0.1, -0.4])
        mc = gagliardo_oracle_mc(g, 0.2, 1.1, 3 * fractional._PC_CHUNK + 7, seed=8)
        assert (mc.value, mc.est_error) == (4.337571387853205, 0.0055110267355389046)

    def test_zero_items_start_no_worker(self, monkeypatch):
        monkeypatch.setattr(fractional, "_WORKERS", 2)
        calls = []
        fractional._on_workers(0, calls.append)
        assert calls == []


class TestTelescopedInnerIntegral:
    @staticmethod
    def dense_weights(c, sp, p):
        """W^T from three dense tables, the formula the sampler first used."""
        n = c.size
        numer = np.abs(c[:, None] - c[None, :]) ** p
        jumps = np.diff(numer, axis=1, prepend=0.0, append=0.0)
        sign = np.where(np.arange(n + 1)[:, None] > np.arange(n), 1.0, -1.0)
        return sign * jumps.T / sp

    @pytest.mark.parametrize("n", [2, 5, 64])
    @pytest.mark.parametrize("p", [1.0, 1.1, 2.0])
    def test_weights_match_the_dense_formula_bitwise(self, n, p):
        rng = np.random.default_rng(70 + n)
        c = rng.uniform(-1, 1, n)
        c[-1] = c[0]  # a zero numerator off the diagonal
        got = fractional._pc_weights(c, 0.22, p)
        # bytes, so signed zeros must agree too
        assert got.tobytes() == self.dense_weights(c, 0.22, p).tobytes()

    def test_weights_setup_memory(self):
        # the dense formula peaks at about four n x n tables, the in-place
        # build at one (n + 1) x n table
        c = np.random.default_rng(71).uniform(-1, 1, 1024)
        peaks = []
        for build in (self.dense_weights, fractional._pc_weights):
            tracemalloc.start()
            try:
                build(c, 0.22, 1.1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 2 * peaks[1] <= peaks[0]

    def test_sampler_setup_holds_one_weight_table(self):
        # the sampler scales the weights in place and reads them through a
        # transposed view: its setup peaks at the one (n + 1) x n table plus
        # the build's boolean sign mask, never at two tables
        n = 1024
        g = PiecewiseConstant(Mesh1D(n), np.random.default_rng(72).uniform(-1, 1, n))
        tracemalloc.start()
        try:
            inner = fractional._pc_inner_integral(g, 0.22, 1.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = (n + 1) * n * 8
        assert peak <= 1.5 * table
        assert inner(3, np.array([0.0, 0.5]), out=np.empty(2))[1] > 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 16])
    def test_matches_per_element_form(self, n):
        rng = np.random.default_rng(40 + n)
        g = PiecewiseConstant(Mesh1D(n), rng.uniform(-1, 1, n))
        s, p = 0.2, 1.1
        inner = fractional._pc_inner_integral(g, s * p, p)
        reference = local_inner_integral(g, s * p, p)
        # random u and both ends of every element, x = 0 included
        u = np.concatenate([rng.random(5_000), EDGE_U])
        for k in range(n):
            got = inner(k, u, out=np.empty(u.size))
            assert np.all(np.isfinite(got)) and np.all(got >= 0.0), k
            np.testing.assert_allclose(got, reference(k, u), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("sp", [0.22, 0.4, 0.48])
    def test_log_domain_powers_match_np_power(self, n, sp):
        rng = np.random.default_rng(45 + n)
        g = PiecewiseConstant(Mesh1D(n), rng.uniform(-1, 1, n))
        p = 1.1
        inner = fractional._pc_inner_integral(g, sp, p)
        rows = (fractional._pc_weights(g.values, sp, p) * g.mesh.h**-sp).T
        # pyproject turns a RuntimeWarning, from log or exp too, into an error
        u = np.concatenate([rng.random(5_000), EDGE_U])
        for k in range(n):
            got = inner(k, u, out=np.empty(u.size))
            d = np.abs(np.arange(n + 1.0)[:, None] - k - u)
            d[k, u == 0.0] = 1.0
            terms = np.power(d, -sp)
            want = np.einsum("i,ij->j", rows[k], terms)
            # each term is off by at most (2 + sp |ln d|) eps, under 20 eps for d >= 2^-53,
            # where 32 eps leaves room for the sums; the subnormal u takes the bound itself
            bound = np.maximum(32.0, 2.0 + sp * np.abs(np.log(d)))
            tol = np.finfo(float).eps * np.einsum("i,ij->j", np.abs(rows[k]), bound * terms)
            assert np.all(np.abs(got - want) <= tol), k

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_matches_the_mesh_form_where_x_is_exact(self, n):
        # for n a power of two the stored nodes are i/n and x = (k + u) h is
        # exact for u on a 2^-20 grid, at u = 0 (the node hits) and, in
        # element 0, at u = 1 - 2^-53: there the sampler and the reference
        # that locates x among the stored nodes see the same point
        rng = np.random.default_rng(50 + n)
        g = PiecewiseConstant(Mesh1D(n), rng.uniform(-1, 1, n))
        s, p = 0.2, 1.1
        inner = fractional._pc_inner_integral(g, s * p, p)
        reference = per_element_inner_integral(g, s * p, p)
        for k in range(n):
            u = np.concatenate([rng.integers(0, 2**20, 2_000) / 2.0**20, [0.0],
                                [1.0 - 2.0**-53] if k == 0 else []])
            x = (k + u) * g.mesh.h
            assert np.array_equal((x / g.mesh.h - k), u)  # no x was rounded
            got = inner(k, u, out=np.empty(u.size))
            np.testing.assert_allclose(got, reference(x), rtol=1e-12, atol=0.0)

    # blocks of 65 536 // (n + 1) = 1040 and 109 samples
    @pytest.mark.parametrize("n", [62, 600])
    def test_block_edges(self, n):
        rng = np.random.default_rng(60 + n)
        g = PiecewiseConstant(Mesh1D(n), rng.uniform(-1, 1, n))
        s, p = 0.2, 1.1
        inner = fractional._pc_inner_integral(g, s * p, p)
        reference = local_inner_integral(g, s * p, p)
        # longer than two blocks and not a multiple of one; every slot holds
        # an edge value of u, so each block, however u is cut, starts and
        # ends on one
        block = fractional._PC_BLOCK // (n + 1)
        size = 2 * block + block // 2 + 1
        u = np.resize(rng.permutation(np.resize(EDGE_U, 3 * EDGE_U.size)), size)
        for k in (0, n // 2, n - 1):
            got = inner(k, u, out=np.empty(size))
            assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
            np.testing.assert_allclose(got, reference(k, u), rtol=1e-12, atol=0.0)
            alone = np.concatenate([inner(k, u[i:i + 1], out=np.empty(1))
                                    for i in range(size)])
            assert np.array_equal(got, alone), k

    def test_sampler_is_freed_without_gc(self):
        g = PiecewiseConstant(Mesh1D(5), [0.3, -1.0, 0.8, 0.1, -0.4])
        gc.disable()
        try:
            inner = fractional._pc_inner_integral(g, 0.22, 1.1)
            inner(2, np.array([0.3]), out=np.empty(1))  # the lone-sample path
            ref = weakref.ref(inner)
            del inner
            assert ref() is None
        finally:
            gc.enable()

    def test_chunking_keeps_the_draws(self):
        # the stream, cut into elements: sample i is the i-th double of the
        # seeded generator, in element k for starts[k] <= i < starts[k + 1]
        g = PiecewiseConstant(Mesh1D(5), [0.3, -1.0, 0.8, 0.1, -0.4])
        s, p = 0.2, 1.1
        n_samples = 3 * fractional._PC_CHUNK + 7
        mc = gagliardo_oracle_mc(g, s, p, n_samples, seed=8)
        u = np.random.default_rng(8).random(n_samples)
        starts = strata_starts(n_samples, 5)
        f = local_inner_integral(g, s * p, p)(np.repeat(np.arange(5), np.diff(starts)), u)
        runs = [f[a:b] for a, b in zip(starts, starts[1:])]
        mean = sum(float(np.mean(run)) for run in runs) / 5
        se = np.sqrt(sum(np.var(run, ddof=1) / run.size for run in runs)) / 5
        assert mc.value == pytest.approx(mean ** (1 / p), rel=1e-12)
        assert mc.est_error == pytest.approx(se * mean ** (1 / p - 1) / p, rel=1e-9)


def test_piecewise_constant_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant(Mesh1D(4), [1.0, 2.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(EvaluationError):
            PiecewiseConstant(Mesh1D(4), [0.0, bad, 1.0, 2.0])


@pytest.mark.parametrize("value, err", [
    (np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf), (-1.0, 0.0), (1.0, -1e-3),
])
def test_seminorm_result_rejects_non_finite_or_negative(value, err):
    with pytest.raises(ConsistencyError):
        SeminormResult(value, 0.2, 1.1, "closed_form", err)


def test_oracle_takes_only_piecewise_constant_data():
    # non-finite data cannot reach the sampler: PiecewiseConstant rejects it
    g = PiecewiseConstant(Mesh1D(2), [0.0, 1.0])
    for bad in (lambda x: np.where(np.asarray(x) < 0.5, 0.0, 1.0), g.values):
        with pytest.raises(TypeError, match="PiecewiseConstant"):
            gagliardo_oracle_mc(bad, 0.2, 1.1, 10**4, seed=0)
