"""Solver tests: brute-force grid-scan oracles at N = 2 and N = 3, descent
contracts, Newton steps, and prolongation."""

import numpy as np
import pytest

from maniafem import optimize
from maniafem.experiments import solve_ladder
from maniafem.functionals import clamp_level, energy_clamped, fe_objective
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


def solve_from(mesh, kind, alpha=None, **config):
    return minimize_from(mesh, initial_values(mesh, kind), SolveConfig(**config), alpha)


def cut_solves(mesh, kind, alpha=None):
    """The solve from a named start cut after k = 1, 2, ... iterations, up
    to the uncut solve, and the start energy.  Solves are deterministic, so
    the k-th cut is the k-th iterate of the uncut solve."""
    full = solve_from(mesh, kind, alpha)
    cuts = [solve_from(mesh, kind, alpha, max_iters=k) for k in range(1, full.iters + 1)]
    assert [c.iters for c in cuts] == list(range(1, full.iters + 1))
    assert cuts[-1].energy == full.energy
    assert np.array_equal(cuts[-1].minimizer.nodal_values, full.minimizer.nodal_values)
    energy, _ = fe_objective(mesh, None if alpha is None else clamp_level(mesh, alpha))
    return cuts, energy(initial_values(mesh, kind)[1:-1])


def assert_min_pivot_bounds_eigenvalues(derivatives, res):
    """The smallest eigenvalue of an SPD matrix bounds its LDL^T pivots."""
    _, diag, off = derivatives(res.minimizer.nodal_values[1:-1])
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lam = np.linalg.eigvalsh(dense)
    assert lam[0] > 0.0
    assert lam[0] <= res.min_pivot * (1 + 1e-12)


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
        clamp = clamp_level(self.mesh, 0.035)
        energies = batch_energies(self.mesh, self.vs[:, None], clamp=clamp)
        best = int(np.argmin(energies))
        res = solve_from(self.mesh, "interp_root", 0.035)
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

        clamped_energies = batch_energies(mesh, grid, clamp=clamp_level(mesh, 0.035))
        res = solve_from(mesh, "interp_root", 0.035)
        assert res.energy <= float(clamped_energies.min()) + 1e-6


class TestDescentContracts:
    def test_history_is_nonincreasing(self):
        mesh = Mesh1D(16)
        cuts, start_energy = cut_solves(mesh, "interp_root", 0.035)
        energies = [start_energy] + [c.energy for c in cuts]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_boundary_values_pinned(self):
        mesh = Mesh1D(8)
        res = solve_from(mesh, "interp_root", max_iters=50)
        assert res.minimizer.nodal_values[0] == 0.0
        assert res.minimizer.nodal_values[-1] == 1.0

    def test_converged_implies_grad_tolerance(self):
        mesh = Mesh1D(4)
        res = solve_from(mesh, "interp_root", 0.035, grad_tol=1e-10)
        assert res.converged
        assert res.grad_norm <= 1e-10

    def test_budget_exhaustion_reports_not_raises(self):
        mesh = Mesh1D(64)
        res = solve_from(mesh, "interp_root", max_iters=5)
        assert not res.converged
        assert res.iters == 5
        assert np.isfinite(res.energy)

    @pytest.mark.parametrize("bad", [
        {"grad_tol": float("inf")}, {"grad_tol": float("nan")}, {"grad_tol": 0.0},
        {"grad_tol": -1e-9}, {"max_iters": 2.5}, {"max_iters": True}, {"max_iters": 0},
    ])
    def test_config_that_disables_the_solver_is_rejected(self, bad):
        # grad_tol = inf would stop every solve at 0 iterations as converged
        with pytest.raises(ValueError):
            SolveConfig(**bad)
        assert SolveConfig(max_iters=np.int64(3)).max_iters == 3

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

        def derivatives(v):
            return np.ones_like(v), np.full(v.size, 2.0), np.zeros(v.size - 1)

        v, e, gnorm, iters, reason, min_pivot = _descend(
            energy, derivatives, np.zeros(3), SolveConfig(max_iters=50))
        assert reason == "line_search"
        assert iters == 0 and e == 1.0 and gnorm == 1.0
        assert min_pivot == 2.0
        assert np.array_equal(v, np.zeros(3))

    def test_overflowing_newton_step_falls_back_to_steepest_descent(self):
        # a pivot of 1e-320 sends the Newton step to -inf, so its slope is
        # not finite and the first trial must be v0 - g
        trials = []

        def energy(v):
            trials.append(float(v[0]))
            return float((v[0] - 1.0) ** 2)

        def derivatives(v):
            return 2.0 * (v - 1.0), np.array([1e-320]), np.zeros(0)

        v, e, gnorm, iters, reason, _ = _descend(
            energy, derivatives, np.zeros(1), SolveConfig(max_iters=50))
        assert trials == [0.0, 2.0, 1.0]  # the start, then the trials along -g = 2
        assert reason == "grad_tol" and iters == 1
        assert v.tolist() == [1.0] and e == 0.0 and gnorm == 0.0

    @pytest.mark.parametrize("curvature, rise_ulps, reason", [
        (2.0, 1, "grad_tol"),
        (2.0, 4, "grad_tol"),
        (2.0, 5, "line_search"),
        (-2.0, 1, "line_search"),  # a shifted step gets no rounding allowance
    ])
    def test_rounding_floor_allowance(self, curvature, rise_ulps, reason):
        # from |g| = 2e-9 every step predicts a decrease below one ulp of
        # E = 1 (3e-18 for the Newton step to v = 0), and every trial's
        # computed energy is rise_ulps higher
        calls = []

        def energy(v):
            calls.append(None)
            return 1.0 if len(calls) == 1 else 1.0 + rise_ulps * np.spacing(1.0)

        def derivatives(v):
            return (curvature * v, np.full(v.size, curvature), np.zeros(v.size - 1))

        v, e, gnorm, iters, stop, _ = _descend(
            energy, derivatives, np.full(3, 1e-9), SolveConfig(max_iters=50))
        assert stop == reason
        if reason == "grad_tol":
            assert iters == 1 and np.array_equal(v, np.zeros(3)) and gnorm == 0.0
            assert e == 1.0 + rise_ulps * np.spacing(1.0)
        else:
            assert iters == 0 and e == 1.0 and np.array_equal(v, np.full(3, 1e-9))

    def test_linear_ramp_initial_energy(self):
        cuts, start_energy = cut_solves(Mesh1D(32), "linear_ramp")
        assert start_energy == pytest.approx(EIGHT_105, rel=1e-14)
        assert cuts[0].energy <= start_energy

    def test_single_element_has_nothing_to_solve(self):
        # N = 1 has no interior nodes: the pinned identity is the only point
        res = solve_from(Mesh1D(1), "linear_ramp")
        assert res.reason == "grad_tol" and res.iters == 0
        assert res.min_pivot == float("inf")
        assert res.energy == pytest.approx(EIGHT_105, rel=1e-15)

    def test_non_finite_start_raises(self):
        mesh = Mesh1D(4)
        with pytest.raises(FloatingPointError):
            minimize_from(mesh, np.full(5, 1e80))

    def test_continuation_beats_its_seed(self):
        coarse, fine = solve_ladder((2, 4), SolveConfig(), alpha=0.035)
        fine_mesh = Mesh1D(4)
        seed = prolongate(coarse.minimizer, fine_mesh)
        assert fine.energy <= energy_clamped(seed, 0.035) + 1e-15

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

    @pytest.mark.parametrize("n", [8, 64, 1024, 4096])
    def test_raw_root_start_iterations_do_not_grow_with_n(self, n):
        # the stiffness-matrix shift damps every mode of the indefinite
        # Hessian in proportion to its own stiffness, so the count is
        # mesh-independent (the identity shift took 1429 at N = 1024)
        res = solve_from(Mesh1D(n), "interp_root")
        assert res.reason == "grad_tol"
        assert res.iters <= 30
        assert res.min_pivot > 0.0

    def test_raw_minimum_is_certified(self):
        res = solve_from(Mesh1D(32), "linear_ramp")
        assert res.reason == "grad_tol"
        assert res.min_pivot > 0.0

    def test_min_pivot_matches_dense_eigenvalues(self):
        mesh = Mesh1D(16)
        [res] = solve_ladder((16,), SolveConfig())
        assert_min_pivot_bounds_eigenvalues(fe_objective(mesh)[1], res)

    @pytest.mark.parametrize("clamped", [False, True])
    def test_each_point_is_differentiated_once(self, monkeypatch, clamped):
        # wrap the kernel the way the benchmark's tracer does and count the
        # derivative passes: one at the start and one per accepted step;
        # the final min_pivot comes from the last of them
        calls = []
        original = optimize.fe_objective

        def fe_objective_counted(mesh, clamp=None):
            energy, derivatives = original(mesh, clamp)

            def counted(v):
                calls.append(None)
                return derivatives(v)

            return energy, counted

        monkeypatch.setattr(optimize, "fe_objective", fe_objective_counted)
        mesh = Mesh1D(64)
        alpha = 0.035 if clamped else None
        clamp = None if alpha is None else clamp_level(mesh, alpha)
        res = solve_from(mesh, "interp_root", alpha)
        assert res.reason == "grad_tol" and res.iters > 0
        assert len(calls) == res.iters + 1
        assert_min_pivot_bounds_eigenvalues(original(mesh, clamp)[1], res)

    def test_root_start_descends_to_a_certified_minimum(self):
        cuts, start_energy = cut_solves(Mesh1D(64), "interp_root")
        energies = [start_energy] + [c.energy for c in cuts]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert cuts[-1].reason == "grad_tol" and cuts[-1].min_pivot > 0.0

    def test_indefinite_hessian_gets_a_levenberg_shift(self):
        diag, off = np.array([-1.0, 2.0, 2.0]), np.array([0.5, 0.5])
        g = np.array([1.0, -1.0, 1.0])
        p, shift = _newton_direction(diag, off, g, 0.0)
        # the shift is by the P1 stiffness matrix K = tridiag(-1, 2, -1)/h
        # of the 3 interior nodes of N = 4 elements (h = 1/4)
        stiffness = 4.0 * (2.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1))
        assert shift > 1.0 / 8.0  # the shifted matrix needs diag[0] + 8 shift > 0
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) + shift * stiffness
        assert np.linalg.eigvalsh(dense)[0] > 0.0
        assert np.allclose(dense @ p, -g, rtol=0, atol=1e-12)
        assert float(g @ p) < 0.0
        # warm start: a shift too small to help is grown from, not restarted
        p2, shift2 = _newton_direction(diag, off, g, shift / 4.0)
        assert shift2 == shift and np.array_equal(p2, p)

    def test_positive_definite_hessian_drops_a_small_shift(self):
        diag, off = np.array([2.0, 2.0]), np.array([0.5])
        _, shift = _newton_direction(diag, off, np.ones(2), 1e-15)
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
