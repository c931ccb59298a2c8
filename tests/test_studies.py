"""Rate-study tests: order fitting, interpolation errors, recovery terms."""

import tracemalloc

import numpy as np
import pytest

from maniafem.errors import StudyError
from maniafem.functionals import clamp_level, energy_clamped
from maniafem.mesh import FeFunction, Mesh1D, interpolate
from maniafem.quadrature import (
    _STUDY_BLOCK, StudyGrid, _cell_points, gauss_rule, graded_grid, integrate_cells)
from maniafem.studies import (
    fe_error,
    fit_order,
    interp_error,
    power_fn,
    recovery_gap,
    slope_mismatch_term,
    value_mismatch_term,
)

from helpers import on_blocks, study_blocks, study_cells, whole_grid_integrand

EIGHT_105 = 8.0 / 105.0


class TestFitOrder:
    def test_exact_power_law(self):
        rows = [(1 / 4, 1 / 16), (1 / 8, 1 / 64), (1 / 16, 1 / 256)]
        order, r2 = fit_order(rows)
        assert order == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_flat_rows_have_zero_order(self):
        order, r2 = fit_order([(1 / 4, 0.7), (1 / 8, 0.7), (1 / 16, 0.7)])
        assert order == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_noisy_power_law(self):
        rng = np.random.default_rng(31)
        hs = 1.0 / 2 ** np.arange(2, 9)
        rows = [(h, h**1.2 * (1.0 + 0.01 * rng.uniform(-1, 1))) for h in hs]
        order, r2 = fit_order(rows)
        assert 1.1 <= order <= 1.3
        assert r2 > 0.99

    def test_requires_three_usable_rows(self):
        with pytest.raises(StudyError):
            fit_order([(0.5, 1.0), (0.25, 0.5)])
        # rows below the converged floor are dropped before counting
        with pytest.raises(StudyError):
            fit_order([(0.5, 1.0), (0.25, 0.5), (0.125, 1e-16)])

    def test_drops_converged_to_zero_rows(self):
        rows = [(1 / 2, 1 / 4), (1 / 4, 1 / 16), (1 / 8, 1 / 64), (1 / 16, 0.0)]
        order, _ = fit_order(rows)
        assert order == pytest.approx(2.0, abs=1e-12)


class TestInterpError:
    def test_linear_profiles_are_reproduced(self):
        fn = lambda x: 0.25 + 0.5 * np.asarray(x, dtype=float)
        dfn = lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)
        for n in (2, 8):
            lp, w1p = interp_error(fn, dfn, StudyGrid(Mesh1D(n)), 1.3)
            assert lp <= 1e-14
            assert w1p <= 1e-14

    def test_quadratic_on_single_element(self):
        # I_h x^2 on N = 1 is x, so the L^1 error is int (x - x^2) = 1/6 and
        # the W^{1,1} error adds int |2x - 1| = 1/2
        lp, w1p = interp_error(lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x),
                               StudyGrid(Mesh1D(1)), 1.0)
        assert lp == pytest.approx(1 / 6, rel=1e-12)
        assert w1p == pytest.approx(1 / 6 + 1 / 2, rel=1e-12)

    def test_root_profile_errors_decrease(self):
        fn, dfn = power_fn(1.0 / 3.0)
        l0, l1 = zip(*(interp_error(fn, dfn, StudyGrid(Mesh1D(n)), 1.1)
                       for n in (8, 16, 32, 64)))
        assert all(b < a for a, b in zip(l0, l0[1:]))
        assert all(b < a for a, b in zip(l1, l1[1:]))

    def test_rejects_a_function_on_another_mesh(self):
        fn, dfn = power_fn(1.0 / 3.0)
        with pytest.raises(ValueError, match="another mesh"):
            fe_error(fn, dfn, interpolate(Mesh1D(8), fn), StudyGrid(Mesh1D(4)), 1.1)

    def test_both_norms_match_separate_integrations_bitwise(self):
        # the shared integral of |v - I_h v|^p on the study grid gives the
        # values two separate integrate_cells passes over graded_grid give
        fn, dfn = power_fn(1.0 / 3.0)
        mesh = Mesh1D(64)
        f_h = interpolate(mesh, fn)
        rule, breaks = gauss_rule(8), graded_grid(mesh)
        value = integrate_cells(rule, lambda x: np.abs(fn(x) - f_h.evaluate(x)) ** 1.1, breaks)
        slope = integrate_cells(rule, lambda x: np.abs(dfn(x) - f_h.slope_at(x)) ** 1.1, breaks)
        assert interp_error(fn, dfn, StudyGrid(mesh), 1.1) == (
            value ** (1.0 / 1.1), (value + slope) ** (1.0 / 1.1))


class TestRecoveryTerms:
    def test_value_term_vanishes_for_linear_profile(self):
        mesh = Mesh1D(8)
        assert abs(value_mismatch_term(lambda x: np.asarray(x, float), StudyGrid(mesh),
                                       0.035)) <= 1e-16

    def test_value_term_for_root_equals_interpolant_energy(self):
        # v = x^(1/3) kills the subtracted density, leaving the clamped
        # energy of the interpolant itself
        fn, _ = power_fn(1.0 / 3.0)
        for n in (8, 32):
            mesh = Mesh1D(n)
            term = value_mismatch_term(fn, StudyGrid(mesh), 0.035)
            direct = energy_clamped(interpolate(mesh, fn), 0.035)
            assert term == pytest.approx(direct, rel=1e-10)
            assert term >= 0.0

    def test_slope_term_zero_cases(self):
        fn_root, dfn_root = power_fn(1.0 / 3.0)
        grid = StudyGrid(Mesh1D(8))
        assert slope_mismatch_term(fn_root, dfn_root, grid, 0.035) <= 1e-25
        identity = lambda x: np.asarray(x, dtype=float)
        d_identity = lambda x: np.ones_like(np.asarray(x, dtype=float))
        assert slope_mismatch_term(identity, d_identity, grid, 0.035) == 0.0

    def test_slope_term_decreases_for_nondegenerate_profile(self):
        fn, dfn = power_fn(0.45)
        values = []
        for n in (8, 16, 32, 64):
            values.append(slope_mismatch_term(fn, dfn, StudyGrid(Mesh1D(n)), 0.035))
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    @staticmethod
    def sign_min_sixth(t, clamp):
        # the clamp written as sgn(t) min(|t|, clamp), independently of np.clip
        return (np.sign(t) * np.minimum(np.abs(t), clamp)) ** 6

    @staticmethod
    def points(grid):
        return on_blocks(grid, lambda x, k: x)

    @staticmethod
    def whole_integral(grid, vals):
        # values at every point of the grid, handed to integrate block by block
        return grid.integrate(whole_grid_integrand(grid, vals))

    @pytest.mark.parametrize("n", [8, 64])
    def test_slope_term_clips_at_the_mesh_level(self, n):
        # pointwise reference: v' and I_h v' located per point, both clamped
        # at h^(-alpha) of the interpolant's own mesh
        fn, dfn = power_fn(0.45)
        mesh = Mesh1D(n)
        grid = StudyGrid(mesh)
        clamp = clamp_level(mesh, 0.035)
        f_h = interpolate(mesh, fn)
        x = self.points(grid)
        assert np.max(dfn(x)) > clamp  # the clamp is active near x = 0
        density = (fn(x) ** 3 - x) ** 2
        reference = self.whole_integral(grid, np.abs(
            self.sign_min_sixth(dfn(x), clamp)
            - self.sign_min_sixth(f_h.slope_at(x), clamp)) * density)
        term = slope_mismatch_term(fn, dfn, grid, 0.035)
        assert term > 0.0
        assert term == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 64])
    def test_value_term_clips_at_the_mesh_level(self, n):
        fn, _ = power_fn(0.45)
        mesh = Mesh1D(n)
        grid = StudyGrid(mesh)
        clamp = clamp_level(mesh, 0.035)
        f_h = interpolate(mesh, fn)
        x = self.points(grid)
        assert np.max(f_h.slopes()) > clamp  # the first element is clamped
        weight = self.sign_min_sixth(f_h.slope_at(x), clamp)
        reference = self.whole_integral(
            grid, ((f_h.evaluate(x) ** 3 - x) ** 2 - (fn(x) ** 3 - x) ** 2) * weight)
        term = value_mismatch_term(fn, grid, 0.035)
        assert term == pytest.approx(reference, rel=1e-10, abs=1e-15)

    def test_recovery_gap_zero_for_identity(self):
        for n in (4, 16, 64):
            mesh = Mesh1D(n)
            assert clamp_level(mesh, 0.035) >= 1.0
            gap = recovery_gap(lambda x: np.asarray(x, float), mesh, 0.035) - EIGHT_105
            assert abs(gap) <= 1e-15

    def test_recovery_gap_decays_for_root(self):
        fn, _ = power_fn(1.0 / 3.0)
        gaps = []
        for n in (8, 16, 32, 64, 128):
            gaps.append(recovery_gap(fn, Mesh1D(n), 0.035))
        assert all(g >= 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestRateStudyInvariants:
    def test_rejects_misaligned_rows(self):
        from maniafem.studies import make_rate_study

        with pytest.raises(ValueError):
            make_rate_study("x", (8, 16), ("h", "value"),
                            [(1 / 8, 1.0), (1 / 16, 0.5), (1 / 32, 0.25)])
        with pytest.raises(ValueError):
            make_rate_study("x", (16, 8, 4), ("h", "value"),
                            [(1 / 16, 1.0), (1 / 8, 0.5), (1 / 4, 0.25)])


class WholeGrid:
    """The study grid as one (cells, 8) point array: the formulas the streamed
    ``StudyGrid`` replaced, kept as the reference for its block edges."""

    def __init__(self, mesh):
        rule = gauss_rule(8)
        self.mesh = mesh
        self.weights = rule.weights
        self.points, self.half = _cell_points(rule, graded_grid(mesh))
        self.head = self.half.size - 8 * (mesh.n_elements - 1)

    def by_element(self, op, a, per_element, out):
        h, rows = self.head, (self.mesh.n_elements - 1, 64)
        op(a[:h], per_element[0], out=out[:h])
        op(a[h:].reshape(rows), per_element[1:, None], out=out[h:].reshape(rows))
        return out

    def fe_values(self, f):
        out = self.by_element(np.subtract, self.points, self.mesh.nodes[:-1],
                              np.empty_like(self.points))
        self.by_element(np.multiply, out, f.slopes(), out)
        return self.by_element(np.add, out, f.nodal_values[:-1], out)

    def integrate(self, vals):
        return float(np.einsum("i,i->", np.einsum("ij,j->i", vals, self.weights), self.half))

    def fe_error(self, fn, dfn, f, p):
        err = self.fe_values(f)
        np.subtract(fn(self.points), err, out=err)
        np.abs(err, out=err)
        err **= p
        value = self.integrate(err)
        self.by_element(np.subtract, dfn(self.points), f.slopes(), err)
        np.abs(err, out=err)
        err **= p
        return value ** (1.0 / p), (value + self.integrate(err)) ** (1.0 / p)

    def density(self, fn):
        out = fn(self.points) ** 3
        out -= self.points
        out **= 2
        return out

    def value_term(self, fn, alpha):
        clamp = clamp_level(self.mesh, alpha)
        f_h = interpolate(self.mesh, fn)
        vals = self.fe_values(f_h)
        vals **= 3
        vals -= self.points
        vals **= 2
        vals -= self.density(fn)
        return self.integrate(self.by_element(
            np.multiply, vals, np.clip(f_h.slopes(), -clamp, clamp) ** 6, vals))

    def slope_term(self, fn, dfn, alpha):
        clamp = clamp_level(self.mesh, alpha)
        f_h = interpolate(self.mesh, fn)
        vals = np.clip(dfn(self.points), -clamp, clamp) ** 6
        self.by_element(np.subtract, vals, np.clip(f_h.slopes(), -clamp, clamp) ** 6, vals)
        np.abs(vals, out=vals)
        vals *= self.density(fn)
        return self.integrate(vals)


# the smallest power of two whose elements 1..N-1 span at least three blocks
_POW2_N = 1 << (2 * _STUDY_BLOCK + 1).bit_length()


class TestStreamedBlockEdges:
    # N - 1 = B - 1, B and B + 1 blocked elements, then a last partial block
    @pytest.mark.parametrize("n", [_STUDY_BLOCK, _STUDY_BLOCK + 1, _STUDY_BLOCK + 2, _POW2_N])
    def test_blocks_tile_the_grid_once_in_order(self, n):
        mesh = Mesh1D(n)
        grid = StudyGrid(mesh)
        blocks = study_blocks(grid)
        ks = [k for _, k in blocks]
        cells = [study_cells(grid, k) for k in ks]
        assert (ks[0], cells[0]) == (slice(0, 1), slice(0, grid.head))
        assert [k.start for k in ks[1:]] == list(range(1, n, _STUDY_BLOCK))
        for i, (x, k) in enumerate(blocks[1:], 1):
            assert k.start == ks[i - 1].stop
            assert cells[i].start == cells[i - 1].stop
            assert x.shape == (k.stop - k.start, 64)  # 8 cells of 8 points per element
        assert (ks[-1].stop, cells[-1].stop) == (n, grid.half.size)
        # the rows handed to the integrand are those cells' points, in order
        assert np.array_equal(on_blocks(grid, lambda x, k: x), WholeGrid(mesh).points)

    @pytest.mark.parametrize("n", [_STUDY_BLOCK, _STUDY_BLOCK + 1, _STUDY_BLOCK + 2, _POW2_N])
    def test_terms_equal_the_whole_array_formulas_bitwise(self, n):
        mesh = Mesh1D(n)
        grid, whole = StudyGrid(mesh), WholeGrid(mesh)
        assert n < _POW2_N or len(study_blocks(grid)) >= 4
        f = FeFunction(mesh, np.random.default_rng(n).uniform(-1, 1, n + 1))
        root, d_root = power_fn(1.0 / 3.0)
        assert fe_error(root, d_root, f, grid, 1.3) == whole.fe_error(root, d_root, f, 1.3)
        for q in (1.0 / 3.0, 0.45):
            fn, dfn = power_fn(q)
            f_h = interpolate(mesh, fn)
            assert interp_error(fn, dfn, grid, 1.1) == whole.fe_error(fn, dfn, f_h, 1.1)
            assert value_mismatch_term(fn, grid, 0.035) == whole.value_term(fn, 0.035)
            assert (slope_mismatch_term(fn, dfn, grid, 0.035)
                    == whole.slope_term(fn, dfn, 0.035))


def test_streamed_terms_memory():
    # the whole-array grid peaked at about 34 MiB here: an 8 MiB point array
    # plus full-size temporaries; blocks of 4096 cells keep this near 5 MiB
    root, d_root = power_fn(1.0 / 3.0)
    fn, dfn = power_fn(0.45)
    tracemalloc.start()
    try:
        grid = StudyGrid(Mesh1D(16384))
        interp_error(root, d_root, grid, 1.1)
        value_mismatch_term(fn, grid, 0.035)
        slope_mismatch_term(fn, dfn, grid, 0.035)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
