"""Acceptance suite: every headline claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The full mesh ladder (N = 8..1024) and the 10^7-sample
Monte-Carlo oracle make this the slow part of the test suite (the whole
suite took 24.8 s on x86_64 with 2 vCPUs, 8.9 s of it criterion 7);
everything is deterministic.
"""

import numpy as np
import pytest

from helpers import batch_energies, interval_kernel
from maniafem import experiments as ex
from maniafem.cli import main
from maniafem.errors import RegimeError
from maniafem.fractional import (
    PiecewiseConstant,
    gagliardo_oracle_mc,
    gagliardo_pc,
)
from maniafem.functionals import AdmissibleParams, clamp_level, fe_objective
from maniafem.mesh import Mesh1D
from maniafem.optimize import initial_values, minimize_from
from maniafem.quadrature import gauss_rule, integrate_cells
from maniafem.studies import recovery_gap

EIGHT_105 = 8.0 / 105.0


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def config():
    return ex.ExperimentConfig()


@pytest.fixture(scope="module")
def gap_report(config):
    return ex.run_gap_demo(config)["gap_demo"]


@pytest.fixture(scope="module")
def min_study(config):
    return ex.run_min_convergence(config)


def test_criterion_1_minimum_value_convergence(min_study):
    values = [row[1] for row in min_study.rows]
    interp = [row[2] for row in min_study.rows]
    nonneg = all(v >= 0.0 for v in values)
    nonincreasing = all(b <= a for a, b in zip(values, values[1:]))
    final_drop = values[-1] <= ex.MIN_CONV_FINAL_FACTOR * values[0]
    sandwich = all(v <= i for v, i in zip(values, interp))
    ok = nonneg and nonincreasing and final_drop and sandwich
    report(1, ok, (
        f"clamped minima fall {values[0]:.3e} -> {values[-1]:.3e} over N=8..1024, "
        f"nonincreasing={nonincreasing}, sandwich 0 <= J <= J(interpolant)={sandwich}"
    ))


def test_criterion_2_lavrentiev_gap(gap_report):
    raw_floor = gap_report["raw_floor"]
    clamped_final = gap_report["rows"][-1][2]
    floor_ok = raw_floor >= 1e-3
    separated = clamped_final < raw_floor

    scans_ok = True
    details = []
    for n in (2, 3):
        mesh = Mesh1D(n)
        axis = np.arange(-0.1, 1.2 + 1e-12, 2e-3)
        if n == 2:
            grid = axis[:, None]
        else:
            v1, v2 = np.meshgrid(axis, axis, indexing="ij")
            grid = np.column_stack([v1.ravel(), v2.ravel()])
        scan_min = float(batch_energies(mesh, grid).min())
        solver_min = min(
            minimize_from(mesh, initial_values(mesh, kind)).energy
            for kind in ("linear_ramp", "interp_root")
        )
        scans_ok &= abs(solver_min - scan_min) <= 1e-3
        scans_ok &= solver_min <= scan_min + 1e-6
        details.append(f"N={n}: scan {scan_min:.6f} vs solver {solver_min:.6f}")
    ok = floor_ok and separated and scans_ok
    report(2, ok, (
        f"raw floor {raw_floor:.3e} >= 1e-3, clamped minimum at N=1024 "
        f"{clamped_final:.3e} below it; " + "; ".join(details)
    ))


def test_criterion_3_interpolation_rates(config):
    studies = ex.run_interp_rates(config)
    lp, w1p = studies["interp_lp"], studies["interp_w1p"]
    ok = (
        lp.fitted_order >= 1.15 and lp.fit_r2 >= 0.95
        and w1p.fitted_order >= 0.15 and w1p.fit_r2 >= 0.95
    )
    report(3, ok, (
        f"L^p order {lp.fitted_order:.4f} >= 1.15 (r2={lp.fit_r2:.4f}), "
        f"W^(1,p) order {w1p.fitted_order:.4f} >= 0.15 (r2={w1p.fit_r2:.4f})"
    ))


def test_criterion_4_inverse_inequality(config):
    studies = ex.run_inverse_study(config)
    stats = {}
    ok = True
    for name, study in studies.items():
        values = [row[1] for row in study.rows]
        ratio = max(values) / float(np.median(values))
        stats[name] = ratio
        ok &= ratio <= 1.5
    report(4, ok, (
        f"seminorm ratio max/median: (s,p) variant {stats['inverse_ratio']:.3f}, "
        f"Hilbert beta=0.4 variant {stats['inverse_ratio_h1']:.3f}, both <= 1.5"
    ))


def test_criterion_5_recovery_split_rates(config):
    studies = ex.run_split_rates(config)
    value_t, slope_t = studies["value_term"], studies["slope_term"]
    s, alpha = config.params.s, config.params.alpha
    value_bound = 1.0 + s - 6.0 * alpha - 0.1
    slope_bound = s - 5.0 * alpha - 0.1
    tail = [abs(r[1]) for r in slope_t.rows[2:]]
    ok = (
        value_t.fitted_order >= value_bound and value_t.fit_r2 >= 0.9
        and slope_t.fitted_order >= slope_bound and slope_t.fit_r2 >= 0.9
        and all(b < a for a, b in zip(tail, tail[1:]))
    )
    report(5, ok, (
        f"value-term order {value_t.fitted_order:.4f} >= {value_bound:.2f} "
        f"(r2={value_t.fit_r2:.4f}); slope-term order {slope_t.fitted_order:.4f} "
        f">= {slope_bound:.3f} (r2={slope_t.fit_r2:.4f}), tail decreasing"
    ))


def test_criterion_6_recovery_limsup(config):
    study = ex.run_recovery(config)
    gaps = [row[1] for row in study.rows]
    decay_ok = all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 1e-3

    zero_ok = True
    for n in config.mesh_sizes:
        mesh = Mesh1D(n)
        assert clamp_level(mesh, config.params.alpha) >= 1.0
        # two exact quadratures of the same degree-6 density differ only in
        # float summation order, so "exactly zero" means machine zero here
        zero_ok &= abs(recovery_gap(1.0, mesh, config.params.alpha) - EIGHT_105) <= 1e-15
    ok = decay_ok and zero_ok
    report(6, ok, (
        f"J_h(interp of x^(1/3)) decays {gaps[0]:.3e} -> {gaps[-1]:.3e} <= 1e-3; "
        f"identity profile gap at machine zero on every mesh: {zero_ok}"
    ))


def test_criterion_7_seminorm_oracles():
    s, p = 0.2, 1.1
    rng = np.random.default_rng(12345)
    worst = 0.0
    ok = True
    for trial in range(50):
        n = int(rng.choice([2, 4, 8]))
        g = PiecewiseConstant(Mesh1D(n), rng.uniform(-1, 1, n))
        closed = gagliardo_pc(g, s, p)
        mc = gagliardo_oracle_mc(g, s, p, 10**7, seed=1000 + trial)
        z = abs(closed.value - mc.value) / mc.est_error if mc.est_error else 0.0
        worst = max(worst, z)
        ok &= z <= 3.0

    kernel_ok = True
    rule = gauss_rule(8)
    for n in (4, 8):
        mesh = Mesh1D(n)
        for i in range(n):
            for j in range(i + 2, n):
                a, b = mesh.nodes[i], mesh.nodes[i + 1]
                c, d = mesh.nodes[j], mesh.nodes[j + 1]
                xs = 0.5 * (a + b) + 0.5 * (b - a) * rule.points
                ys = 0.5 * (c + d) + 0.5 * (d - c) * rule.points
                quad = float(
                    (0.5 * (b - a) * rule.weights)
                    @ (np.abs(xs[:, None] - ys[None, :]) ** (-(1 + s * p)))
                    @ (0.5 * (d - c) * rule.weights)
                )
                closed_k = interval_kernel(a, b, c, d, s * p)
                kernel_ok &= abs(closed_k - quad) <= 1e-10 * quad
    ok &= kernel_ok
    report(7, ok, (
        f"closed form vs 1e7-sample Monte-Carlo: worst |z| = {worst:.2f} <= 3 over "
        f"50 random piecewise constants; nonadjacent kernel vs tensor Gauss to 1e-10: "
        f"{kernel_ok}"
    ))


def test_criterion_8_gradient_correctness():
    rng = np.random.default_rng(777)
    ok = True
    worst = 0.0
    eps = 1e-6
    for n in (4, 16, 64):
        mesh = Mesh1D(n)
        clamp = clamp_level(mesh, 0.035)
        energy, derivatives = fe_objective(mesh, clamp)
        checked = 0
        while checked < 100:
            interior = rng.uniform(0.0, 1.0, n - 1)
            values = np.concatenate([[0.0], interior, [1.0]])
            slopes = np.abs(np.diff(values) / mesh.h)
            if np.min(np.abs(slopes - clamp)) <= 1e-3:
                continue
            checked += 1
            grad = derivatives(interior)[0]
            fd = np.empty_like(grad)
            for j in range(interior.size):
                up = interior.copy()
                up[j] += eps
                down = interior.copy()
                down[j] -= eps
                fd[j] = (energy(up) - energy(down)) / (2 * eps)
            scale = 1e-6 * (1.0 + float(np.max(np.abs(grad))))
            err = float(np.max(np.abs(grad - fd)))
            worst = max(worst, err / scale)
            ok &= err <= scale
    report(8, ok, (
        f"central differences match the clamped gradient on 100 kink-avoiding "
        f"points per N in (4, 16, 64); worst error = {worst:.3f} of tolerance"
    ))


def test_criterion_9_quadrature_exactness():
    rng = np.random.default_rng(909)
    rule8 = gauss_rule(8)
    ok = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([4, 16, 64]))
        mesh = Mesh1D(n)
        interior = rng.uniform(0.0, 1.0, n - 1)
        energy, _ = fe_objective(mesh)
        e4 = energy(interior)
        [e8] = batch_energies(mesh, interior, rule=rule8)
        rel = abs(e4 - e8) / max(e4, e8, 1e-300)
        worst = max(worst, rel)
        ok &= rel <= 1e-13
    base = integrate_cells(gauss_rule(4), lambda x: (x**3 - x) ** 2, Mesh1D(1).nodes)
    base_ok = abs(base - EIGHT_105) <= 1e-14
    ok &= base_ok
    report(9, ok, (
        f"package m=4 vs independent m=8 energies agree to {worst:.2e} <= 1e-13 on 100 random "
        f"functions; int (x^3-x)^2 = 8/105 to 1e-14: {base_ok}"
    ))


def test_criterion_10_regime_validation(capsys):
    checks = {
        "(2/3+s)p < 1 violated": (0.3, 1.4, 0.03),
        "sp < 1 violated": (0.9, 1.2, 0.03),
        "alpha < min{(1+s)/6, s/5} violated": (0.2, 1.1, 0.05),
    }
    ok = True
    for needle, (s, p, alpha) in checks.items():
        try:
            AdmissibleParams(s, p, alpha)
            ok = False
        except RegimeError as err:
            ok &= needle in str(err)
    code = main(["gap", "--set", "s=0.3", "--set", "p=1.4"])
    err_text = capsys.readouterr().err
    cli_ok = code == 2 and "(2/3+s)p < 1 violated" in err_text
    ok &= cli_ok
    report(10, ok, (
        "out-of-regime parameters rejected with the violated inequality named; "
        f"CLI surfaces it with exit status 2: {cli_ok}"
    ))
