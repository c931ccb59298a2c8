"""Energy and clamp tests: analytic values, finite-difference gradient
oracles, sandwich and monotonicity properties."""

import numpy as np
import pytest

from helpers import batch_energies
from maniafem.errors import ConsistencyError, RegimeError
from maniafem.functionals import (
    AdmissibleParams,
    clamp_level,
    energy_clamped,
    fe_objective,
)
from maniafem.mesh import FeFunction, Mesh1D, interpolate
from maniafem.optimize import minimize_from
from maniafem.quadrature import gauss_rule

EIGHT_105 = 8.0 / 105.0


def raw_energy(f: FeFunction) -> float:
    """J(f) from the package's element kernel (4-point rule)."""
    energy, _ = fe_objective(f.mesh)
    return energy(f.nodal_values[1:-1])


def clamp10() -> float:
    # h = 10^(-1/2), alpha = 2 gives clamp level exactly 10
    return (0.1**0.5) ** -2.0


def random_bc_function(rng, n, scale=1.0) -> FeFunction:
    return FeFunction.from_interior(Mesh1D(n), rng.uniform(0, scale, n - 1))


class TestClampLevel:
    def test_clamp_matches_exp_form(self):
        for alpha, n in ((0.035, 64), (0.2, 3), (1.5, 2)):
            mesh = Mesh1D(n)
            clamp = clamp_level(mesh, alpha)
            expected = np.exp(-alpha * np.log(mesh.h))
            assert abs(clamp - expected) <= 4 * np.finfo(float).eps * expected
            assert clamp >= 1.0

    def test_level_ties_to_its_mesh(self):
        # the clamped energy clamps at the level of the function's own mesh:
        # it equals the kernel at that level and differs from the kernel at
        # the level of a finer mesh
        levels = []
        for n in (2, 8, 64):
            mesh = Mesh1D(n)
            f = interpolate(mesh, lambda x: x ** (1 / 3))
            clamp = clamp_level(mesh, 0.035)
            assert clamp == pytest.approx(n**0.035, rel=4 * np.finfo(float).eps)
            assert clamp < f.slopes()[0]  # the first element is clamped
            interior = f.nodal_values[1:-1]
            assert energy_clamped(f, 0.035) == fe_objective(mesh, clamp)[0](interior)
            finer = clamp_level(Mesh1D(2 * n), 0.035)
            assert energy_clamped(f, 0.035) < fe_objective(mesh, finer)[0](interior)
            levels.append(clamp)
        assert levels == sorted(levels)

    def test_numpy_scalar_alpha_is_taken_as_a_double(self):
        # a float32 alpha must not pull the clamp, and so the energy, down
        # to single precision
        mesh = Mesh1D(8)
        alpha = np.float32(0.035)
        clamp = clamp_level(mesh, alpha)
        assert type(clamp) is float
        assert clamp == mesh.h ** -float(alpha)
        f = interpolate(mesh, lambda x: x ** (1 / 3))
        assert energy_clamped(f, alpha) == energy_clamped(f, float(alpha))

    @pytest.mark.parametrize("n, alpha", [
        (4, 0.0), (4, -0.1), (4, float("nan")), (1, 0.035),
    ])
    def test_validation(self, n, alpha):
        # a non-positive or NaN alpha, and a one-element mesh (h = 1), are
        # rejected by every clamped entry point
        mesh = Mesh1D(n)
        f = interpolate(mesh, lambda x: x)
        with pytest.raises(ValueError):
            clamp_level(mesh, alpha)
        with pytest.raises(ValueError):
            energy_clamped(f, alpha)
        with pytest.raises(ValueError):
            minimize_from(mesh, f.nodal_values, None, alpha)


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
        f = FeFunction(Mesh1D(1), [0.0, 1.0])
        assert raw_energy(f) == pytest.approx(EIGHT_105, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 16, 100])
    def test_identity_is_mesh_independent(self, n):
        f = interpolate(Mesh1D(n), lambda x: x)
        assert raw_energy(f) == pytest.approx(EIGHT_105, rel=1e-14)

    def test_nonnegative_on_random_functions(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert raw_energy(random_bc_function(rng, 8)) >= 0.0

    @pytest.mark.parametrize("values", [[0.1, 0.5, 1.0], [0.0, 0.5, 0.9]])
    def test_requires_the_boundary_values(self, values):
        # v(0) != 0 and v(1) != 1 are rejected separately
        f = FeFunction(Mesh1D(2), values)
        with pytest.raises(ValueError, match=r"f\(0\) = 0 and f\(1\) = 1"):
            energy_clamped(f, 0.035)

    def test_default_rule_is_exact(self):
        # the package's 4-point energy against an independent 8-point one
        rng = np.random.default_rng(2)
        for n in (4, 16, 64):
            for _ in range(10):
                f = random_bc_function(rng, n)
                e4 = raw_energy(f)
                [e8] = batch_energies(f.mesh, f.nodal_values[1:-1], rule=gauss_rule(8))
                assert e4 == pytest.approx(e8, rel=1e-13)


class TestEnergyClamped:
    def test_reduces_to_raw_when_unclamped(self):
        f = interpolate(Mesh1D(4), lambda x: x)
        assert clamp_level(f.mesh, 0.035) >= 1.0
        assert energy_clamped(f, 0.035) == pytest.approx(EIGHT_105, rel=1e-14)

    def test_clamping_strictly_reduces_energy(self):
        f = interpolate(Mesh1D(2), lambda x: x ** (1 / 3))
        assert clamp_level(f.mesh, 0.035) < f.slopes()[0]
        assert energy_clamped(f, 0.035) < raw_energy(f)

    def test_sandwich_property(self):
        rng = np.random.default_rng(3)
        for n in (4, 16):
            for _ in range(20):
                f = random_bc_function(rng, n, scale=2.0)
                e = energy_clamped(f, 0.035)
                assert 0.0 <= e <= raw_energy(f) + 1e-18

    def test_monotone_in_cutoff_h(self):
        f = interpolate(Mesh1D(8), lambda x: x ** (1 / 3))
        alpha = 0.3
        hs = [0.5, 0.25, 0.1, 0.01, 0.001]
        energies = [
            fe_objective(f.mesh, h**-alpha)[0](f.nodal_values[1:-1]) for h in hs
        ]
        # smaller cutoff h means a larger clamp and so a larger energy
        assert all(a <= b + 1e-18 for a, b in zip(energies, energies[1:]))

    def test_discrete_minimum_is_positive(self):
        # no finite element function annihilates the density: scan N=2
        mesh = Mesh1D(2)
        vs = np.arange(0.0, 1.2, 1e-3)
        energies = [
            energy_clamped(FeFunction.from_interior(mesh, [v]), 0.035) for v in vs
        ]
        assert min(energies) > 0.0

    def test_overflowing_energy_raises(self):
        # v^3 overflows at a nodal value of 1e110, so the energy is inf
        f = FeFunction.from_interior(Mesh1D(2), [1e110])
        with pytest.raises(ConsistencyError, match="non-finite"):
            energy_clamped(f, 0.035)


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
        clamp = clamp_level(mesh, 0.035)
        energy, derivatives = fe_objective(mesh, clamp)
        checked = 0
        while checked < 25:
            f = random_bc_function(rng, n)
            if not kink_free(f.nodal_values, mesh.h, clamp):
                continue
            checked += 1
            grad = derivatives(f.nodal_values[1:-1])[0]
            approx = fd_gradient(energy, f.nodal_values[1:-1].copy())
            tol = 1e-6 * (1.0 + float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - approx)) <= tol

    def test_raw_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        mesh = Mesh1D(8)
        energy, derivatives = fe_objective(mesh, None)
        for _ in range(25):
            f = random_bc_function(rng, 8)
            grad = derivatives(f.nodal_values[1:-1])[0]
            approx = fd_gradient(energy, f.nodal_values[1:-1].copy())
            tol = 1e-6 * (1.0 + float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - approx)) <= tol

    def test_gradient_sign_matches_energy_scan(self):
        mesh = Mesh1D(2)
        _, derivatives = fe_objective(mesh, clamp_level(mesh, 0.035))
        for v1 in (0.3, 0.7, 0.95):
            grad = derivatives(np.array([v1]))[0][0]
            delta = 1e-4
            slope = (
                energy_clamped(FeFunction.from_interior(mesh, [v1 + delta]), 0.035)
                - energy_clamped(FeFunction.from_interior(mesh, [v1 - delta]), 0.035)
            ) / (2 * delta)
            assert np.sign(grad) == np.sign(slope)

    def test_objective_closures_match_public_api(self):
        rng = np.random.default_rng(6)
        mesh = Mesh1D(16)
        energy, derivatives = fe_objective(mesh, clamp_level(mesh, 0.035))
        for _ in range(10):
            f = random_bc_function(rng, 16)
            interior = f.nodal_values[1:-1]
            assert energy(interior) == pytest.approx(energy_clamped(f, 0.035), rel=1e-14)
            grad, diag, off = derivatives(interior)
            assert grad.shape == diag.shape == (15,) and off.shape == (14,)


def tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestHessian:
    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_matches_gradient_differences(self, n, clamped):
        rng = np.random.default_rng(100 + n)
        mesh = Mesh1D(n)
        clamp = clamp_level(mesh, 0.035) if clamped else None
        _, derivatives = fe_objective(mesh, clamp)
        eps = 1e-7
        checked = 0
        while checked < 5:
            f = random_bc_function(rng, n)
            if clamped and not kink_free(f.nodal_values, mesh.h, clamp):
                continue
            checked += 1
            interior = f.nodal_values[1:-1].copy()
            _, diag, off = derivatives(interior)
            assert diag.shape == (n - 1,) and off.shape == (n - 2,)
            exact = tridiagonal(diag, off)
            approx = np.column_stack([
                (derivatives(interior + eps * e)[0] - derivatives(interior - eps * e)[0])
                / (2 * eps)
                for e in np.eye(n - 1)
            ])
            tol = 1e-6 * (1.0 + float(np.max(np.abs(exact))))
            assert np.max(np.abs(exact - approx)) <= tol

    def test_clamped_elements_keep_only_the_density_curvature(self):
        # both slopes at or above the clamp 10: the energy is 10^6 times
        # int (v^3 - x)^2, whose second derivative is checked with an
        # independent 8-point rule
        mesh = Mesh1D(2)
        _, derivatives = fe_objective(mesh, clamp10())
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
            _, diag, off = derivatives(np.array([v1]))
            assert off.size == 0
            assert diag[0] == pytest.approx(1e6 * density_curvature(v1), rel=1e-12)
