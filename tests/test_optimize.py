"""Solver tests: brute-force grid-scan oracles at N = 2 and N = 3, descent
contracts, Newton steps, and prolongation."""

import numpy as np
import pytest

from maniafem.experiments import solve_ladder
from maniafem.functionals import CutoffParams, energy_clamped, fe_hessian, fe_objective
from maniafem.mesh import FeFunction, Mesh1D, interpolate
from maniafem.optimize import (
    STOP_REASONS,
    SolveConfig,
    _descend,
    _newton_direction,
    initial_values,
    minimize_from,
    prolongate,
)
from helpers import batch_energies

EIGHT_105 = 8.0 / 105.0


def solve_from(mesh, kind, params=None, **config):
    return minimize_from(mesh, initial_values(mesh, kind), SolveConfig(**config), params)


def cut_solves(mesh, kind, params=None):
    """The solve from a named start cut after k = 1, 2, ... iterations, up
    to the uncut solve, and the start energy.  Solves are deterministic, so
    the k-th cut is the k-th iterate of the uncut solve."""
    full = solve_from(mesh, kind, params)
    cuts = [solve_from(mesh, kind, params, max_iters=k) for k in range(1, full.iters + 1)]
    assert [c.iters for c in cuts] == list(range(1, full.iters + 1))
    assert cuts[-1].energy == full.energy
    assert np.array_equal(cuts[-1].minimizer.nodal_values, full.minimizer.nodal_values)
    energy, _ = fe_objective(mesh, None if params is None else params.clamp)
    return cuts, energy(initial_values(mesh, kind)[1:-1])


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
            res = solve_from(self.mesh, kind)
            assert res.converged
            assert abs(res.minimizer.nodal_values[1] - self.vs[best]) <= 1e-3
            assert res.energy <= energies[best] + 1e-6

    def test_clamped_solver_matches_scan(self):
        params = CutoffParams(0.035, self.mesh.h)
        energies = batch_energies(self.mesh, self.vs[:, None], clamp=params.clamp)
        best = int(np.argmin(energies))
        res = solve_from(self.mesh, "interp_root", params)
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
        best_raw = min(solve_from(mesh, k).energy for k in ("linear_ramp", "interp_root"))
        assert best_raw <= float(raw_energies.min()) + 1e-6

        params = CutoffParams(0.035, mesh.h)
        clamped_energies = batch_energies(mesh, grid, clamp=params.clamp)
        res = solve_from(mesh, "interp_root", params)
        assert res.energy <= float(clamped_energies.min()) + 1e-6


class TestDescentContracts:
    def test_history_is_nonincreasing(self):
        mesh = Mesh1D(16)
        cuts, start_energy = cut_solves(mesh, "interp_root", CutoffParams(0.035, mesh.h))
        energies = [start_energy] + [c.energy for c in cuts]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_boundary_values_pinned(self):
        mesh = Mesh1D(8)
        res = solve_from(mesh, "interp_root", max_iters=50)
        assert res.minimizer.nodal_values[0] == 0.0
        assert res.minimizer.nodal_values[-1] == 1.0
        assert res.minimizer.bc_flag

    def test_converged_implies_grad_tolerance(self):
        mesh = Mesh1D(4)
        res = solve_from(mesh, "interp_root", CutoffParams(0.035, mesh.h), grad_tol=1e-10)
        assert res.converged
        assert res.grad_norm <= 1e-10

    def test_budget_exhaustion_reports_not_raises(self):
        mesh = Mesh1D(64)
        res = solve_from(mesh, "interp_root", max_iters=5)
        assert not res.converged
        assert res.iters == 5
        assert np.isfinite(res.energy)

    def test_converged_solve_names_grad_tol(self):
        mesh = Mesh1D(16)
        res = solve_from(mesh, "interp_root")
        assert res.reason == "grad_tol" and res.converged
        assert res.grad_norm <= 1e-9

    def test_budget_exhaustion_names_max_iters(self):
        res = solve_from(Mesh1D(64), "interp_root", max_iters=5)
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

        v, e, gnorm, iters, reason, min_pivot = _descend(
            energy, grad, hess, np.zeros(3), SolveConfig(max_iters=50))
        assert reason == "line_search"
        assert iters == 0 and e == 1.0 and gnorm == 1.0
        assert min_pivot == 2.0
        assert np.array_equal(v, np.zeros(3))

    def test_linear_ramp_initial_energy(self):
        cuts, start_energy = cut_solves(Mesh1D(32), "linear_ramp")
        assert start_energy == pytest.approx(EIGHT_105, rel=1e-14)
        assert cuts[0].energy <= start_energy

    def test_non_finite_start_raises(self):
        mesh = Mesh1D(4)
        with pytest.raises(FloatingPointError):
            minimize_from(mesh, np.full(5, 1e80))

    def test_continuation_beats_its_seed(self):
        coarse, fine = solve_ladder((2, 4), SolveConfig(), alpha=0.035)
        fine_mesh = Mesh1D(4)
        seed = prolongate(coarse.minimizer, fine_mesh)
        assert fine.energy <= energy_clamped(seed, CutoffParams(0.035, fine_mesh.h)) + 1e-15

    def test_clamped_beats_raw_on_fine_mesh(self):
        mesh = Mesh1D(64)
        [clamped] = solve_ladder((64,), SolveConfig(), alpha=0.035)
        raw = min(solve_from(mesh, kind).energy for kind in ("linear_ramp", "interp_root"))
        assert clamped.energy < raw


class TestNewtonSteps:
    def test_converges_in_few_iterations(self):
        # the converged coarse solution prolongated is close enough for
        # Newton's local quadratic convergence
        mesh = Mesh1D(64)
        [coarse] = solve_ladder((32,), SolveConfig())
        res = minimize_from(mesh, prolongate(coarse.minimizer, mesh).nodal_values)
        assert res.reason == "grad_tol"
        assert res.iters <= 20

    def test_raw_minimum_is_certified(self):
        res = solve_from(Mesh1D(32), "linear_ramp")
        assert res.reason == "grad_tol"
        assert res.min_pivot > 0.0

    def test_min_pivot_matches_dense_eigenvalues(self):
        # the smallest eigenvalue of an SPD matrix bounds its pivots
        mesh = Mesh1D(16)
        [res] = solve_ladder((16,), SolveConfig())
        diag, off = fe_hessian(mesh)(res.minimizer.nodal_values[1:-1])
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        lam = np.linalg.eigvalsh(dense)
        assert lam[0] > 0.0
        assert lam[0] <= res.min_pivot * (1 + 1e-12)

    def test_root_start_descends_to_a_certified_minimum(self):
        cuts, start_energy = cut_solves(Mesh1D(64), "interp_root")
        energies = [start_energy] + [c.energy for c in cuts]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert cuts[-1].reason == "grad_tol" and cuts[-1].min_pivot > 0.0

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
            {"grad_tol": -1e-9},
            {"grad_tol": float("nan")},
            {"max_iters": -1},
            {"grad_tol": float("-inf")},
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
