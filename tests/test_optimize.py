"""Solver tests: brute-force grid-scan oracles at N = 2 and N = 3, descent
contracts, continuation, and prolongation."""

import numpy as np
import pytest

from maniafem.functionals import CutoffParams, energy_clamped, fe_hessian
from maniafem.mesh import FeFunction, Mesh1D, interpolate
from maniafem.optimize import (
    STOP_REASONS,
    SolveConfig,
    _descend,
    _newton_direction,
    initial_values,
    minimize_clamped,
    minimize_from,
    minimize_mania,
    prolongate,
)
from helpers import batch_energies

EIGHT_105 = 8.0 / 105.0


def scan_axis():
    return np.arange(-0.1, 1.2 + 1e-12, 2e-3)


class TestScanOraclesN2:
    def setup_method(self):
        self.mesh = Mesh1D(2)
        self.vs = np.arange(0.0, 1.2 + 1e-12, 1e-4)

    def test_raw_solver_matches_scan(self):
        energies = batch_energies(self.mesh, self.vs[:, None])
        best = int(np.argmin(energies))
        for kind in ("linear_ramp", "interp_root"):
            cfg = SolveConfig(continuation=False, initializer=kind)
            res = minimize_mania(self.mesh, cfg)
            assert res.converged
            assert abs(res.minimizer.nodal_values[1] - self.vs[best]) <= 1e-3
            assert res.energy <= energies[best] + 1e-6

    def test_clamped_solver_matches_scan(self):
        params = CutoffParams.for_mesh(0.035, self.mesh)
        energies = batch_energies(self.mesh, self.vs[:, None], clamp=params.clamp)
        best = int(np.argmin(energies))
        cfg = SolveConfig(continuation=False, initializer="interp_root")
        res = minimize_clamped(self.mesh, params, cfg)
        assert res.converged
        assert abs(res.minimizer.nodal_values[1] - self.vs[best]) <= 1e-3
        assert res.energy <= energies[best] + 1e-6


class TestScanOracleN3:
    def test_no_grid_point_beats_solver(self):
        mesh = Mesh1D(3)
        axis = scan_axis()
        v1, v2 = np.meshgrid(axis, axis, indexing="ij")
        grid = np.column_stack([v1.ravel(), v2.ravel()])
        raw_energies = batch_energies(mesh, grid)
        cfg = SolveConfig(continuation=False)
        best_raw = min(
            minimize_mania(mesh, SolveConfig(continuation=False, initializer=k)).energy
            for k in ("linear_ramp", "interp_root")
        )
        assert best_raw <= float(raw_energies.min()) + 1e-6

        params = CutoffParams.for_mesh(0.035, mesh)
        clamped_energies = batch_energies(mesh, grid, clamp=params.clamp)
        res = minimize_clamped(mesh, params, cfg)
        assert res.energy <= float(clamped_energies.min()) + 1e-6


class TestDescentContracts:
    def test_history_is_nonincreasing(self):
        mesh = Mesh1D(16)
        params = CutoffParams.for_mesh(0.035, mesh)
        res = minimize_clamped(mesh, params, SolveConfig(continuation=False))
        energies = [e for _, e in res.history]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_boundary_values_pinned(self):
        mesh = Mesh1D(8)
        res = minimize_mania(mesh, SolveConfig(continuation=False, max_iters=50))
        assert res.minimizer.nodal_values[0] == 0.0
        assert res.minimizer.nodal_values[-1] == 1.0
        assert res.minimizer.bc_flag

    def test_converged_implies_grad_tolerance(self):
        mesh = Mesh1D(4)
        params = CutoffParams.for_mesh(0.035, mesh)
        cfg = SolveConfig(continuation=False, grad_tol=1e-10)
        res = minimize_clamped(mesh, params, cfg)
        assert res.converged
        assert res.grad_norm <= cfg.grad_tol

    def test_budget_exhaustion_reports_not_raises(self):
        mesh = Mesh1D(64)
        res = minimize_mania(mesh, SolveConfig(continuation=False, max_iters=5))
        assert not res.converged
        assert res.iters == 5
        assert np.isfinite(res.energy)

    def test_converged_solve_names_grad_tol(self):
        mesh = Mesh1D(16)
        res = minimize_mania(mesh, SolveConfig(continuation=False))
        assert res.reason == "grad_tol" and res.converged
        assert res.grad_norm <= 1e-9

    def test_budget_exhaustion_names_max_iters(self):
        res = minimize_mania(Mesh1D(64), SolveConfig(continuation=False, max_iters=5))
        assert res.reason == "max_iters"
        assert res.reason in STOP_REASONS

    def test_failed_line_search_names_line_search(self):
        # an energy that rises on every call: no trial step passes Armijo
        calls = []

        def energy(v):
            calls.append(None)
            return float(len(calls))

        def grad(v):
            return np.ones_like(v)

        def hess(v):
            return np.full(v.size, 2.0), np.zeros(v.size - 1)

        v, e, gnorm, iters, reason, min_pivot, history = _descend(
            energy, grad, hess, np.zeros(3), SolveConfig(max_iters=50))
        assert reason == "line_search"
        assert iters == 0 and e == 1.0 and gnorm == 1.0
        assert min_pivot == 2.0
        assert np.array_equal(v, np.zeros(3))

    def test_linear_ramp_initial_energy(self):
        mesh = Mesh1D(32)
        cfg = SolveConfig(continuation=False, initializer="linear_ramp")
        res = minimize_mania(mesh, cfg)
        assert res.history[0][1] == pytest.approx(EIGHT_105, rel=1e-14)

    def test_non_finite_start_raises(self):
        mesh = Mesh1D(4)
        with pytest.raises(FloatingPointError):
            minimize_from(mesh, np.full(5, 1e80))

    def test_continuation_beats_its_seed(self):
        coarse_mesh, fine_mesh = Mesh1D(2), Mesh1D(4)
        cfg = SolveConfig(continuation=True, initializer="interp_root")
        coarse = minimize_clamped(coarse_mesh, CutoffParams.for_mesh(0.035, coarse_mesh), cfg)
        seed = prolongate(coarse.minimizer, fine_mesh)
        fine_params = CutoffParams.for_mesh(0.035, fine_mesh)
        fine = minimize_clamped(fine_mesh, fine_params, cfg)
        assert fine.energy <= energy_clamped(seed, fine_params) + 1e-15

    def test_clamped_beats_raw_on_fine_mesh(self):
        mesh = Mesh1D(64)
        params = CutoffParams.for_mesh(0.035, mesh)
        cfg = SolveConfig(max_iters=20_000)
        clamped = minimize_clamped(mesh, params, cfg)
        raw = min(
            minimize_from(mesh, initial_values(mesh, kind), cfg).energy
            for kind in ("linear_ramp", "interp_root")
        )
        assert clamped.energy < raw


class TestNewtonSteps:
    def test_converges_in_few_iterations(self):
        # the converged coarse solution prolongated is close enough for
        # Newton's local quadratic convergence
        mesh = Mesh1D(64)
        res = minimize_mania(mesh, SolveConfig())
        assert res.reason == "grad_tol"
        assert res.iters <= 20

    def test_raw_minimum_is_certified(self):
        res = minimize_from(Mesh1D(32), initial_values(Mesh1D(32), "linear_ramp"),
                            SolveConfig(continuation=False))
        assert res.reason == "grad_tol"
        assert res.min_pivot > 0.0

    def test_min_pivot_matches_dense_eigenvalues(self):
        # the smallest eigenvalue of an SPD matrix bounds its pivots
        mesh = Mesh1D(16)
        res = minimize_mania(mesh, SolveConfig())
        diag, off = fe_hessian(mesh)(res.minimizer.nodal_values[1:-1])
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        lam = np.linalg.eigvalsh(dense)
        assert lam[0] > 0.0
        assert lam[0] <= res.min_pivot * (1 + 1e-12)

    def test_root_start_descends_to_a_certified_minimum(self):
        mesh = Mesh1D(64)
        res = minimize_from(mesh, initial_values(mesh, "interp_root"),
                            SolveConfig(continuation=False))
        energies = [e for _, e in res.history]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert res.reason == "grad_tol" and res.min_pivot > 0.0

    def test_indefinite_hessian_gets_a_levenberg_shift(self):
        diag, off = np.array([-1.0, 2.0, 2.0]), np.array([0.5, 0.5])
        g = np.array([1.0, -1.0, 1.0])
        p, shift = _newton_direction(lambda v: (diag, off), np.zeros(3), g, 0.0)
        assert shift > 1.0  # the shifted matrix needs diag[0] + shift > 0
        dense = np.diag(diag + shift) + np.diag(off, 1) + np.diag(off, -1)
        assert np.allclose(dense @ p, -g, rtol=0, atol=1e-12)
        assert float(g @ p) < 0.0
        # warm start: a shift too small to help is grown from, not restarted
        p2, shift2 = _newton_direction(lambda v: (diag, off), np.zeros(3), g, shift / 4.0)
        assert shift2 == shift and np.array_equal(p2, p)

    def test_positive_definite_hessian_drops_a_small_shift(self):
        diag, off = np.array([2.0, 2.0]), np.array([0.5])
        _, shift = _newton_direction(lambda v: (diag, off), np.zeros(2),
                                     np.ones(2), 1e-15)
        assert shift == 0.0


class TestSolveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grad_tol": 0.0},
            {"max_iters": 0},
            {"step_shrink": 1.0},
            {"armijo_c": 0.6},
            {"armijo_c": 0.0},
            {"initializer": "random"},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    def test_initializer_enum(self):
        mesh = Mesh1D(4)
        ramp = initial_values(mesh, "linear_ramp")
        assert np.array_equal(ramp, mesh.nodes)
        root = initial_values(mesh, "interp_root")
        assert root[0] == 0.0 and root[-1] == 1.0
        with pytest.raises(ValueError):
            initial_values(mesh, "coarse_continuation")


class TestProlongate:
    def test_linear_reproduction(self):
        coarse = interpolate(Mesh1D(2), lambda x: x)
        fine = prolongate(coarse, Mesh1D(4))
        assert np.allclose(fine.nodal_values, Mesh1D(4).nodes, atol=0)
        assert fine.bc_flag

    def test_shared_nodes_exact_and_midpoints_average(self):
        rng = np.random.default_rng(23)
        coarse = FeFunction(Mesh1D(4), rng.uniform(-1, 1, 5))
        fine = prolongate(coarse, Mesh1D(8))
        assert np.array_equal(fine.nodal_values[::2], coarse.nodal_values)
        expected_mid = 0.5 * (coarse.nodal_values[:-1] + coarse.nodal_values[1:])
        assert np.allclose(fine.nodal_values[1::2], expected_mid, atol=1e-15)

    def test_rejects_non_nested(self):
        coarse = interpolate(Mesh1D(4), lambda x: x)
        with pytest.raises(ValueError):
            prolongate(coarse, Mesh1D(6))
        with pytest.raises(ValueError):
            prolongate(coarse, Mesh1D(2))
