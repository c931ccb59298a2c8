"""Energy and cutoff tests: analytic values, finite-difference gradient
oracles, sandwich and monotonicity properties."""

import numpy as np
import pytest

from maniafem.errors import RegimeError
from maniafem.functionals import (
    AdmissibleParams,
    CutoffParams,
    cutoff,
    energy_clamped,
    energy_mania,
    fe_hessian,
    fe_objective,
    gradient_clamped,
)
from maniafem.mesh import FeFunction, Mesh1D, interpolate
from maniafem.quadrature import gauss_rule

EIGHT_105 = 8.0 / 105.0


def clamp10() -> CutoffParams:
    # h = 10^(-1/2), alpha = 2 gives clamp level exactly 10
    return CutoffParams(alpha=2.0, h=0.1**0.5, tied=False)


def random_bc_function(rng, n, scale=1.0) -> FeFunction:
    return FeFunction.from_interior(Mesh1D(n), rng.uniform(0, scale, n - 1))


class TestCutoff:
    def test_examples(self):
        params = clamp10()
        assert params.clamp == pytest.approx(10.0, rel=1e-15)
        assert cutoff(params, 3.0) == 3.0
        assert cutoff(params, -15.0) == pytest.approx(-10.0, rel=1e-15)
        assert cutoff(params, 0.0) == 0.0

    def test_odd_and_bounded(self):
        params = CutoffParams(0.5, 0.25)
        ts = np.linspace(-40, 40, 201)
        out = cutoff(params, ts)
        assert np.allclose(out, -cutoff(params, -ts))
        assert np.all(np.abs(out) <= params.clamp)
        inside = np.abs(ts) <= params.clamp
        assert np.array_equal(out[inside], ts[inside])

    def test_contraction(self):
        params = CutoffParams(0.3, 0.125)
        rng = np.random.default_rng(0)
        a = rng.uniform(-50, 50, 1000)
        b = rng.uniform(-50, 50, 1000)
        assert np.all(np.abs(cutoff(params, a) - cutoff(params, b))
                      <= np.abs(a - b) + 1e-12)


class TestCutoffParams:
    def test_clamp_matches_exp_form(self):
        for alpha, h in ((0.035, 1 / 64), (0.2, 0.3), (1.5, 0.9)):
            params = CutoffParams(alpha, h)
            expected = np.exp(-alpha * np.log(h))
            assert abs(params.clamp - expected) <= 4 * np.finfo(float).eps * expected
            assert params.clamp >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CutoffParams(0.0, 0.5)
        with pytest.raises(ValueError):
            CutoffParams(0.1, 1.0)
        with pytest.raises(ValueError):
            CutoffParams(0.1, 0.0)

    def test_level_ties_to_its_mesh(self):
        mesh = Mesh1D(64)
        params = CutoffParams(0.035, mesh.h)
        assert params.tied
        params.check_mesh(mesh)
        with pytest.raises(ValueError, match="tied to the mesh"):
            params.check_mesh(Mesh1D(32))
        decoupled = CutoffParams.decoupled(0.035, mesh.h)
        assert not decoupled.tied
        decoupled.check_mesh(Mesh1D(32))


class TestAdmissibleParams:
    def test_default_point_is_admissible(self):
        params = AdmissibleParams(0.2, 1.1, 0.035)
        assert (2 / 3 + params.s) * params.p < 1

    @pytest.mark.parametrize(
        "s,p,alpha,needle",
        [
            (0.3, 1.4, 0.03, "(2/3+s)p < 1 violated"),
            (0.9, 1.2, 0.03, "sp < 1 violated"),
            (0.5, 1.1, 0.03, "0 < s < 1/3 violated"),
            (0.2, 1.6, 0.03, "1 <= p < 3/2 violated"),
            (0.2, 1.1, 0.04, "alpha < min{(1+s)/6, s/5} violated"),
            (0.2, 1.1, 0.0, "alpha < min{(1+s)/6, s/5} violated"),
        ],
    )
    def test_rejections_name_the_inequality(self, s, p, alpha, needle):
        with pytest.raises(RegimeError) as err:
            AdmissibleParams(s, p, alpha)
        assert needle in str(err.value)

    def test_alpha_boundary_excluded(self):
        with pytest.raises(RegimeError):
            AdmissibleParams(0.2, 1.1, 0.2 / 5.0)


class TestEnergyMania:
    def test_identity_on_single_element(self):
        f = FeFunction(Mesh1D(1), [0.0, 1.0], bc_flag=True)
        assert energy_mania(f) == pytest.approx(EIGHT_105, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 16, 100])
    def test_identity_is_mesh_independent(self, n):
        f = interpolate(Mesh1D(n), lambda x: x)
        assert energy_mania(f) == pytest.approx(EIGHT_105, rel=1e-14)

    def test_nonnegative_on_random_functions(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert energy_mania(random_bc_function(rng, 8)) >= 0.0

    def test_requires_boundary_flag(self):
        f = FeFunction(Mesh1D(2), [0.0, 0.5, 1.0], bc_flag=False)
        with pytest.raises(ValueError):
            energy_mania(f)

    def test_default_rule_is_exact(self):
        rng = np.random.default_rng(2)
        for n in (4, 16, 64):
            for _ in range(10):
                f = random_bc_function(rng, n)
                e4 = energy_mania(f)
                e8 = energy_mania(f, rule=gauss_rule(8))
                assert e4 == pytest.approx(e8, rel=1e-13)


class TestEnergyClamped:
    def test_reduces_to_raw_when_unclamped(self):
        f = interpolate(Mesh1D(4), lambda x: x)
        params = CutoffParams(0.035, f.mesh.h)
        assert params.clamp >= 1.0
        assert energy_clamped(f, params) == pytest.approx(EIGHT_105, rel=1e-14)

    def test_clamping_strictly_reduces_energy(self):
        f = interpolate(Mesh1D(2), lambda x: x ** (1 / 3))
        params = CutoffParams(0.035, f.mesh.h)
        assert params.clamp < f.slope(0)
        assert energy_clamped(f, params) < energy_mania(f)

    def test_sandwich_property(self):
        rng = np.random.default_rng(3)
        for n in (4, 16):
            mesh = Mesh1D(n)
            params = CutoffParams(0.035, mesh.h)
            for _ in range(20):
                f = random_bc_function(rng, n, scale=2.0)
                e = energy_clamped(f, params)
                assert 0.0 <= e <= energy_mania(f) + 1e-18

    def test_pairing_enforced_unless_decoupled(self):
        from maniafem.optimize import minimize_from

        f = interpolate(Mesh1D(4), lambda x: x)
        tied = CutoffParams(0.035, 0.5)
        for call in (lambda: energy_clamped(f, tied), lambda: gradient_clamped(f, tied),
                     lambda: minimize_from(f.mesh, f.nodal_values, None, tied)):
            with pytest.raises(ValueError, match="tied to the mesh"):
                call()
        energy_clamped(f, CutoffParams.decoupled(0.035, 0.5))  # allowed

    def test_monotone_in_cutoff_h(self):
        f = interpolate(Mesh1D(8), lambda x: x ** (1 / 3))
        alpha = 0.3
        hs = [0.5, 0.25, 0.1, 0.01, 0.001]
        energies = [
            energy_clamped(f, CutoffParams.decoupled(alpha, h)) for h in hs
        ]
        # smaller cutoff h means a larger clamp and so a larger energy
        assert all(a <= b + 1e-18 for a, b in zip(energies, energies[1:]))

    def test_discrete_minimum_is_positive(self):
        # no finite element function annihilates the density: scan N=2
        mesh = Mesh1D(2)
        params = CutoffParams(0.035, mesh.h)
        vs = np.arange(0.0, 1.2, 1e-3)
        energies = [
            energy_clamped(FeFunction.from_interior(mesh, [v]), params) for v in vs
        ]
        assert min(energies) > 0.0


def fd_gradient(energy_fn, interior, eps=1e-6):
    grad = np.empty_like(interior)
    for j in range(interior.size):
        up = interior.copy()
        up[j] += eps
        down = interior.copy()
        down[j] -= eps
        grad[j] = (energy_fn(up) - energy_fn(down)) / (2 * eps)
    return grad


def kink_free(values, h, clamp, margin=1e-3):
    return bool(np.all(np.abs(np.abs(np.diff(values) / h) - clamp) > margin))


class TestGradients:
    @pytest.mark.parametrize("n", [4, 16])
    def test_clamped_gradient_matches_finite_differences(self, n):
        rng = np.random.default_rng(4)
        mesh = Mesh1D(n)
        params = CutoffParams(0.035, mesh.h)
        energy, _ = fe_objective(mesh, params.clamp)
        checked = 0
        while checked < 25:
            f = random_bc_function(rng, n)
            if not kink_free(f.nodal_values, mesh.h, params.clamp):
                continue
            checked += 1
            grad = gradient_clamped(f, params)
            approx = fd_gradient(energy, f.nodal_values[1:-1].copy())
            tol = 1e-6 * (1.0 + float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - approx)) <= tol

    def test_raw_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        mesh = Mesh1D(8)
        energy, gradient = fe_objective(mesh, None)
        for _ in range(25):
            f = random_bc_function(rng, 8)
            grad = gradient(f.nodal_values[1:-1])
            approx = fd_gradient(energy, f.nodal_values[1:-1].copy())
            tol = 1e-6 * (1.0 + float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - approx)) <= tol

    def test_gradient_sign_matches_energy_scan(self):
        mesh = Mesh1D(2)
        params = CutoffParams(0.035, mesh.h)
        for v1 in (0.3, 0.7, 0.95):
            f = FeFunction.from_interior(mesh, [v1])
            grad = gradient_clamped(f, params)[0]
            delta = 1e-4
            slope = (
                energy_clamped(FeFunction.from_interior(mesh, [v1 + delta]), params)
                - energy_clamped(FeFunction.from_interior(mesh, [v1 - delta]), params)
            ) / (2 * delta)
            assert np.sign(grad) == np.sign(slope)

    def test_objective_closures_match_public_api(self):
        rng = np.random.default_rng(6)
        mesh = Mesh1D(16)
        params = CutoffParams(0.035, mesh.h)
        energy, grad = fe_objective(mesh, params.clamp)
        for _ in range(10):
            f = random_bc_function(rng, 16)
            interior = f.nodal_values[1:-1]
            assert energy(interior) == pytest.approx(energy_clamped(f, params), rel=1e-14)
            assert np.allclose(grad(interior), gradient_clamped(f, params), rtol=1e-13, atol=0)


def tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestHessian:
    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_matches_gradient_differences(self, n, clamped):
        rng = np.random.default_rng(100 + n)
        mesh = Mesh1D(n)
        clamp = CutoffParams(0.035, mesh.h).clamp if clamped else None
        _, grad = fe_objective(mesh, clamp)
        hessian = fe_hessian(mesh, clamp)
        eps = 1e-7
        checked = 0
        while checked < 5:
            f = random_bc_function(rng, n)
            if clamped and not kink_free(f.nodal_values, mesh.h, clamp):
                continue
            checked += 1
            interior = f.nodal_values[1:-1].copy()
            diag, off = hessian(interior)
            assert diag.shape == (n - 1,) and off.shape == (n - 2,)
            exact = tridiagonal(diag, off)
            approx = np.column_stack([
                (grad(interior + eps * e) - grad(interior - eps * e)) / (2 * eps)
                for e in np.eye(n - 1)
            ])
            tol = 1e-6 * (1.0 + float(np.max(np.abs(exact))))
            assert np.max(np.abs(exact - approx)) <= tol

    def test_clamped_elements_keep_only_the_density_curvature(self):
        # both slopes at or above the clamp 10: the energy is 10^6 times
        # int (v^3 - x)^2, whose second derivative is checked with an
        # independent 8-point rule
        mesh = Mesh1D(2)
        hessian = fe_hessian(mesh, clamp10().clamp)
        rule = gauss_rule(8)
        t = 0.5 * (rule.points + 1.0)
        w = 0.5 * rule.weights

        def density_curvature(v1):
            total = 0.0
            for lo, hi, x0, phi in ((0.0, v1, 0.0, t), (v1, 1.0, 0.5, 1.0 - t)):
                v = lo + (hi - lo) * t
                x = x0 + 0.5 * t
                total += 0.5 * float(w @ ((18 * v**4 + 12 * v * (v**3 - x)) * phi**2))
            return total

        for v1 in (6.0, 7.0):  # slopes (12, -10) and (14, -12)
            diag, off = hessian(np.array([v1]))
            assert off.size == 0
            assert diag[0] == pytest.approx(1e6 * density_curvature(v1), rel=1e-12)
