"""Rate-study tests: order fitting, interpolation errors, recovery terms."""

import numpy as np
import pytest

from maniafem.errors import StudyError
from maniafem.functionals import CutoffParams, energy_clamped
from maniafem.mesh import Mesh1D, interpolate
from maniafem.quadrature import StudyGrid, gauss_rule, graded_grid, integrate_cells
from maniafem.studies import (
    fit_order,
    interp_error,
    power_fn,
    recovery_gap,
    slope_mismatch_term,
    value_mismatch_term,
)

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
        params = CutoffParams(0.035, mesh.h)
        assert abs(value_mismatch_term(lambda x: np.asarray(x, float), StudyGrid(mesh),
                                       params)) <= 1e-16

    def test_value_term_for_root_equals_interpolant_energy(self):
        # v = x^(1/3) kills the subtracted density, leaving the clamped
        # energy of the interpolant itself
        fn, _ = power_fn(1.0 / 3.0)
        for n in (8, 32):
            mesh = Mesh1D(n)
            params = CutoffParams(0.035, mesh.h)
            term = value_mismatch_term(fn, StudyGrid(mesh), params)
            direct = energy_clamped(interpolate(mesh, fn), params)
            assert term == pytest.approx(direct, rel=1e-10)
            assert term >= 0.0

    def test_slope_term_zero_cases(self):
        mesh = Mesh1D(8)
        params = CutoffParams(0.035, mesh.h)
        fn_root, dfn_root = power_fn(1.0 / 3.0)
        grid = StudyGrid(mesh)
        assert slope_mismatch_term(fn_root, dfn_root, grid, params) <= 1e-25
        identity = lambda x: np.asarray(x, dtype=float)
        d_identity = lambda x: np.ones_like(np.asarray(x, dtype=float))
        assert slope_mismatch_term(identity, d_identity, grid, params) == 0.0

    def test_slope_term_decreases_for_nondegenerate_profile(self):
        fn, dfn = power_fn(0.45)
        values = []
        for n in (8, 16, 32, 64):
            mesh = Mesh1D(n)
            values.append(slope_mismatch_term(fn, dfn, StudyGrid(mesh),
                                              CutoffParams(0.035, mesh.h)))
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_recovery_gap_zero_for_identity(self):
        for n in (4, 16, 64):
            mesh = Mesh1D(n)
            params = CutoffParams(0.035, mesh.h)
            assert params.clamp >= 1.0
            gap = recovery_gap(lambda x: np.asarray(x, float), mesh, params, EIGHT_105)
            assert abs(gap) <= 1e-15

    def test_recovery_gap_decays_for_root(self):
        fn, _ = power_fn(1.0 / 3.0)
        gaps = []
        for n in (8, 16, 32, 64, 128):
            mesh = Mesh1D(n)
            gaps.append(recovery_gap(fn, mesh, CutoffParams(0.035, mesh.h), 0.0))
        assert all(g >= 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestRateStudyInvariants:
    def test_rejects_misaligned_rows(self):
        from maniafem.studies import make_rate_study

        with pytest.raises(ValueError):
            make_rate_study("x", None, (8, 16), ("h", "value"),
                            [(1 / 8, 1.0), (1 / 16, 0.5), (1 / 32, 0.25)])
        with pytest.raises(ValueError):
            make_rate_study("x", None, (16, 8, 4), ("h", "value"),
                            [(1 / 16, 1.0), (1 / 8, 0.5), (1 / 4, 0.25)])
