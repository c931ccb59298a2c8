"""Quadrature tests: the rules against independent polynomial oracles and
the properties the package relies on, mapped integration against analytic
antiderivatives."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maniafem
from maniafem.errors import EvaluationError
from maniafem.mesh import FeFunction, Mesh1D, interpolate
from maniafem.quadrature import (
    _CELLS_PER_ELEMENT, _GRADED_LEVELS, StudyGrid, gauss_rule, graded_grid, integrate_cells)
from maniafem.studies import _fe_at

from helpers import on_blocks, study_blocks, whole_grid_integrand


def assert_exact_through(rule, degree):
    """The rule integrates x^k over [-1, 1] exactly (to rounding) for k <= degree."""
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(rule.weights @ rule.points**k - exact) <= 1e-14, k


def test_one_point_rule_is_midpoint():
    rule = gauss_rule(1)
    assert rule.points.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]
    assert_exact_through(rule, 1)


def test_two_point_rule_matches_legendre_roots():
    # independent oracle: roots of P_2(x) = (3x^2 - 1)/2 from the companion matrix
    roots = np.sort(np.roots([1.5, 0.0, -0.5]))
    rule = gauss_rule(2)
    assert np.allclose(rule.points, roots, atol=1e-15)
    assert np.allclose(rule.points, [-0.5773502691896258, 0.5773502691896258], atol=1e-15)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-14)


def test_three_point_weights_by_lagrange_integration():
    # independent oracle: integrate the Lagrange basis over [-1, 1]
    nodes = np.sort(np.roots([2.5, 0.0, -1.5, 0.0]))
    expected = []
    for i in range(3):
        others = [j for j in range(3) if j != i]
        poly = np.polynomial.Polynomial([1.0])
        for j in others:
            poly *= np.polynomial.Polynomial([-nodes[j], 1.0]) / (nodes[i] - nodes[j])
        integ = poly.integ()
        expected.append(integ(1.0) - integ(-1.0))
    rule = gauss_rule(3)
    assert np.allclose(rule.weights, expected, atol=1e-14)
    assert np.allclose(rule.weights, [5 / 9, 8 / 9, 5 / 9], atol=1e-14)


@pytest.mark.parametrize("m", list(range(1, 33)))
def test_rules_are_numpy_leggauss_cached_and_read_only(m):
    ref_x, ref_w = np.polynomial.legendre.leggauss(m)
    rule = gauss_rule(m)
    assert rule.points.tobytes() == ref_x.tobytes()
    assert rule.weights.tobytes() == ref_w.tobytes()
    assert gauss_rule(m) is rule
    assert not rule.points.flags.writeable and not rule.weights.flags.writeable


@pytest.mark.parametrize("m", list(range(1, 33)))
def test_rules_are_symmetric_bitwise(m):
    # mirrored terms of an odd integrand cancel exactly, so every odd
    # monomial integrates to 0.0 when the terms are added in mirrored pairs;
    # x^k is formed by products, which are odd bitwise (np.power is not)
    rule = gauss_rule(m)
    x, w = rule.points, rule.weights
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    odd = x.copy()
    for k in range(1, 2 * m, 2):
        terms = w * odd
        pairs = terms[: (m + 1) // 2] + terms[::-1][: (m + 1) // 2]
        assert np.all(pairs == 0.0), k
        odd *= x * x


def test_import_does_not_load_numpy_polynomial():
    # the rules reach numpy.polynomial on first use, not at import (numpy < 2
    # loads it with numpy itself)
    code = ("import sys, numpy; print('numpy.polynomial' in sys.modules); "
            "import maniafem; print('numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(maniafem.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    with_numpy, with_maniafem = proc.stdout.split()
    assert with_maniafem == with_numpy


@pytest.mark.parametrize("m", list(range(1, 33)))
def test_rule_invariants(m):
    rule = gauss_rule(m)
    assert abs(rule.weights.sum() - 2.0) <= 1e-14
    assert np.all(rule.weights > 0)
    assert np.all(np.diff(rule.points) > 0)
    assert np.all(np.abs(rule.points) < 1.0)
    assert_exact_through(rule, 2 * m - 1)


@pytest.mark.parametrize("m", [0, 33, 2.5, True])
def test_rule_rejects_bad_point_counts(m):
    # a bool is no point count, though True == 1
    with pytest.raises(ValueError, match="point count must be an integer"):
        gauss_rule(m)


def test_integrate_element_examples():
    # one element is the breakpoint pair [a, b]
    rule = gauss_rule(4)
    assert integrate_cells(rule, lambda x: x**6, [0.0, 1.0]) == pytest.approx(1 / 7, rel=1e-14)
    assert integrate_cells(rule, lambda x: np.zeros_like(x), [0.0, 1.0]) == 0.0
    assert integrate_cells(gauss_rule(1), lambda x: x, [0.0, 1.0]) == pytest.approx(
        0.5, abs=1e-16)


def test_integrate_element_errors():
    rule = gauss_rule(2)
    for breaks in ([1.0, 0.0], [0.0, 0.0], [0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.4, 1.0],
                   [0.0, np.nan]):
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate_cells(rule, lambda x: x, breaks)
    with pytest.raises(EvaluationError):
        integrate_cells(rule, lambda x: np.full_like(x, np.nan), [0.0, 1.0])


@pytest.mark.parametrize("g", [lambda x: 1.0, lambda x: x[1:], lambda x: np.stack([x, x])])
def test_integrate_rejects_a_wrong_shaped_integrand(g):
    # the integrand is called once on all 6 points of 3 cells
    with pytest.raises(ValueError, match=r"integrand returned shape \(.*\) for 6 points"):
        integrate_cells(gauss_rule(2), g, [0.0, 0.25, 0.5, 1.0])


def test_composite_examples():
    assert integrate_cells(gauss_rule(2), lambda x: x**2, Mesh1D(8).nodes) == pytest.approx(
        1 / 3, abs=1e-14)
    assert integrate_cells(gauss_rule(3), lambda x: np.ones_like(x), Mesh1D(7).nodes) == (
        pytest.approx(1.0, abs=1e-14))
    assert integrate_cells(gauss_rule(4), lambda x: (x**3 - x) ** 2, Mesh1D(1).nodes) == (
        pytest.approx(8 / 105, abs=1e-14))


def test_polynomial_exactness_property():
    rng = np.random.default_rng(42)
    mesh = Mesh1D(5)
    for m in range(1, 7):
        rule = gauss_rule(m)
        for _ in range(20):
            coeffs = rng.uniform(-1.0, 1.0, 2 * m)  # degree 2m-1
            poly = np.polynomial.Polynomial(coeffs)
            integ = poly.integ()
            exact = integ(1.0) - integ(0.0)
            approx = integrate_cells(rule, poly, mesh.nodes)
            assert approx == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_refinement_consistency_for_smooth_integrand():
    rule = gauss_rule(2)
    values = [integrate_cells(rule, np.exp, Mesh1D(n).nodes) for n in (8, 16, 32, 64, 128)]
    gaps = [abs(a - b) for a, b in zip(values, values[1:])]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_integrate_cells_matches_element_sum():
    rule = gauss_rule(3)
    breaks = np.array([0.0, 0.1, 0.35, 0.7, 1.0])
    total = integrate_cells(rule, np.sin, breaks)
    by_parts = sum(
        integrate_cells(rule, np.sin, [a, b]) for a, b in zip(breaks[:-1], breaks[1:])
    )
    assert total == pytest.approx(by_parts, rel=1e-15)
    with pytest.raises(ValueError):
        integrate_cells(rule, np.sin, np.array([0.0]))


def test_graded_grid_structure():
    mesh = Mesh1D(8)
    grid = graded_grid(mesh)
    assert np.all(np.diff(grid) > 0)
    for node in mesh.nodes:
        assert node in grid
    for j in range(1, _GRADED_LEVELS + 1):
        assert mesh.h * 0.5**j in grid
    assert grid[0] == 0.0 and grid[-1] == 1.0
    last = np.linspace(mesh.nodes[-2], 1.0, _CELLS_PER_ELEMENT + 1)
    assert np.array_equal(grid[-_CELLS_PER_ELEMENT - 1:], last)
    # StudyGrid cuts the grid at _CELLS_PER_ELEMENT cells per element, so the
    # count is not a parameter a caller could set to anything else
    with pytest.raises(TypeError):
        graded_grid(mesh, refine=4)


def test_graded_grid_resolves_root_singularity():
    grid = graded_grid(Mesh1D(16))
    value = integrate_cells(gauss_rule(8), lambda x: x ** (1 / 3), grid)
    assert value == pytest.approx(0.75, rel=1e-10)


class TestStudyGrid:
    @staticmethod
    def cell_points(mesh):
        # the points integrate_cells forms on graded_grid(mesh)
        b = graded_grid(mesh)
        half = np.diff(b) * 0.5
        mid = 0.5 * (b[1:] + b[:-1])
        return mid[:, None] + half[:, None] * gauss_rule(8).points[None, :], half

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 1024])
    def test_points_are_the_graded_cells_bitwise(self, n):
        mesh = Mesh1D(n)
        grid = StudyGrid(mesh)
        x, half = self.cell_points(mesh)
        points = on_blocks(grid, lambda x, k: x)
        assert np.array_equal(points, x) and np.array_equal(grid.half, half)
        blocks = study_blocks(grid)
        assert all(x.flags.c_contiguous and not x.flags.writeable for x, _ in blocks)
        # one row per element: the graded element 0, then 64 points each
        assert blocks[0][0].shape == (1, 8 * grid.head)
        assert all(x.shape == (k.stop - k.start, 64) for x, k in blocks[1:])
        # the graded first element, then 8 cells per element (none for N = 1)
        assert grid.head == 25
        assert half.size == grid.head + 8 * (n - 1)
        assert points[:grid.head].max() < mesh.nodes[1]
        assert n == 1 or points[grid.head:].min() > mesh.nodes[1]

    def fe_reference(self, grid, f):
        x = on_blocks(grid, lambda x, k: x)
        return f.evaluate(x.ravel()).reshape(x.shape), f.slope_at(x.ravel()).reshape(x.shape)

    def slopes_on(self, grid, f):
        # per-element data reach the points as a[k, None]
        return on_blocks(grid, lambda x, k: np.broadcast_to(f.slopes()[k, None], x.shape))

    @pytest.mark.parametrize("n", [8, 1024, 16384])
    def test_fe_values_and_slopes_are_bitwise(self, n):
        mesh = Mesh1D(n)
        grid = StudyGrid(mesh)
        rng = np.random.default_rng(n)
        for f in (interpolate(mesh, lambda x: x ** (1 / 3)),
                  FeFunction(mesh, rng.uniform(-1, 1, n + 1))):
            values, slopes = self.fe_reference(grid, f)
            got = on_blocks(grid, lambda x, k: _fe_at(f, x, k))
            assert got.tobytes() == values.tobytes()
            assert np.array_equal(self.slopes_on(grid, f), slopes)

    @pytest.mark.parametrize("n", [3, 5])
    def test_fe_values_off_power_of_two_within_4_ulps(self, n):
        # np.interp divides by the stored node difference, the slopes by h;
        # on the study profiles the two agree to 4 ulps of the value (data
        # steep against its values can differ by more, relative to them)
        mesh = Mesh1D(n)
        grid = StudyGrid(mesh)
        for q in (1 / 3, 0.45):
            f = interpolate(mesh, lambda x: x**q)
            values, slopes = self.fe_reference(grid, f)
            got = on_blocks(grid, lambda x, k: _fe_at(f, x, k))
            assert np.all(np.abs(got - values) <= 4 * np.spacing(values))
            assert np.array_equal(self.slopes_on(grid, f), slopes)

    def test_integrate_matches_integrate_cells_bitwise(self):
        mesh = Mesh1D(64)
        grid = StudyGrid(mesh)
        g = lambda x: np.abs(x ** (1 / 3) - 0.5) ** 1.1
        assert grid.integrate(lambda x, k: g(x)) == integrate_cells(
            gauss_rule(8), g, graded_grid(mesh))

    @pytest.mark.parametrize("n", [1, 2, 600, 1025])
    def test_per_cell_sums_match_the_whole_array_product(self, n):
        # a per-cell sum must not depend on where its block is cut: nonzero
        # values only at the block edges (the head's last cell, the grid's
        # last cell), so a sum that moved with its position would show
        grid = StudyGrid(Mesh1D(n))
        rng = np.random.default_rng(n)
        for _ in range(20):
            vals = np.zeros((grid.half.size, 8))
            vals[[grid.head - 1, -1]] = rng.standard_normal((2, 8)) ** 3
            sums = np.einsum("ij,j->i", vals, grid.rule.weights)
            whole = float(np.einsum("i,i->", sums, grid.half))
            assert grid.integrate(whole_grid_integrand(grid, vals)) == whole

    def test_rejects_non_finite_values(self):
        grid = StudyGrid(Mesh1D(4))
        vals = np.ones((grid.half.size, 8))
        vals[3, 2] = np.nan
        with pytest.raises(EvaluationError):
            grid.integrate(whole_grid_integrand(grid, vals))
        vals[3, 2] = np.inf
        with pytest.raises(EvaluationError):
            grid.integrate(whole_grid_integrand(grid, vals))
        vals[3, 2] = 1.0
        vals[-1, 7] = np.nan  # in the last block, not the head
        with pytest.raises(EvaluationError):
            grid.integrate(whole_grid_integrand(grid, vals))
