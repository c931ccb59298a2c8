"""Mesh and finite element function tests.

Derived expectations are computed by in-test oracles (a bisection root
finder for the cube root) rather than trusted from anywhere else.
"""

import numpy as np
import pytest

from maniafem.errors import EvaluationError
from maniafem.mesh import FeFunction, Mesh1D, interpolate


def bisect_root(target, lo=0.0, hi=1.0, iters=200):
    """Solve t^3 = target on [lo, hi] by bisection, to the last bit."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid**3 < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


CUBE_HALF = bisect_root(0.5)


def test_mesh_invariants():
    for n in (1, 2, 7, 64, 1024):
        mesh = Mesh1D(n)
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
        assert np.all(np.diff(mesh.nodes) > 0)
        assert abs(mesh.h * n - 1.0) <= 4 * np.finfo(float).eps
        assert mesh.nodes.shape == (n + 1,)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True])
def test_mesh_rejects_bad_sizes(bad):
    # a bool is no size, though True == 1
    with pytest.raises(ValueError, match="must be a positive integer"):
        Mesh1D(bad)


def test_evaluate_linear_interpolation():
    f = FeFunction(Mesh1D(2), [0.0, 0.5, 1.0])
    assert f.evaluate(0.25) == pytest.approx(0.25, abs=1e-16)
    with pytest.raises(ValueError):
        f.evaluate(1.5)


def test_evaluate_exact_at_nodes():
    # non-power-of-two meshes have nodes that are not k * h in floating
    # point; x = 1 on Mesh1D(5) is where interpolating with h is one ulp off
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 7, 10, 49, 100, 128):
        mesh = Mesh1D(n)
        f = FeFunction(mesh, rng.uniform(-1, 1, n + 1))
        out = f.evaluate(mesh.nodes)
        assert np.array_equal(out, f.nodal_values)
        assert [f.evaluate(x) for x in mesh.nodes] == list(f.nodal_values)


def test_evaluate_midpoint_of_root_interpolant():
    f = interpolate(Mesh1D(2), lambda x: x ** (1 / 3))
    # the bisection oracle is correct to one ulp of the true cube root
    assert abs(f.nodal_values[1] - CUBE_HALF) <= 2e-16
    assert f.nodal_values[1] == 0.7937005259840998
    expected = (CUBE_HALF + 1.0) / 2.0
    assert abs(f.evaluate(0.75) - expected) <= 1e-15
    assert abs(f.evaluate(0.75) - 0.8968502629920499) <= 1e-15


@pytest.mark.parametrize("n", [3, 5, 7, 1024])
def test_evaluate_agrees_with_barycentric_form(n):
    # vals[k] (1 - t) + vals[k + 1] t is accurate to 4u M and
    # vals[k] + slope (x - x_k) to 7u M, with u = eps/2 and M the larger
    # endpoint magnitude; observed differences stay near 2 eps M
    rng = np.random.default_rng(40 + n)
    mesh = Mesh1D(n)
    f = FeFunction(mesh, rng.uniform(-1, 1, n + 1))
    x = rng.random(100_000)
    k = mesh.element_indices(x)
    vals, nodes = f.nodal_values, mesh.nodes
    t = (x - nodes[k]) / (nodes[k + 1] - nodes[k])
    old = vals[k] * (1.0 - t) + vals[k + 1] * t
    scale = np.maximum(np.abs(vals[k]), np.abs(vals[k + 1]))
    assert np.all(np.abs(f.evaluate(x) - old) <= 5.5 * np.finfo(float).eps * scale)


def test_scalar_inputs_return_float():
    mesh = Mesh1D(4)
    f = FeFunction(mesh, [0.0, 0.1, 0.4, 0.9, 1.0])
    for y in (0.3, np.float64(0.3), np.array(0.3), 1.0):
        assert type(f.evaluate(y)) is float
        assert type(f.slope_at(y)) is float
    assert f.evaluate(np.array(0.3)) == f.evaluate(0.3)
    assert f.evaluate(np.array([[0.3]])).shape == (1, 1)


def test_nan_points_are_rejected():
    mesh = Mesh1D(4)
    f = FeFunction(mesh, [0.0, 0.1, 0.4, 0.9, 1.0])
    for y in (np.nan, [0.5, np.nan], np.array([[np.nan, 1.0]])):
        for op in (f.evaluate, f.slope_at, mesh.element_indices):
            with pytest.raises(ValueError):
                op(y)
    for y in (-1e-300, 1.0 + 1e-15, [0.2, -np.inf]):
        with pytest.raises(ValueError):
            f.evaluate(y)


def test_evaluate_is_continuous_at_nodes():
    rng = np.random.default_rng(11)
    mesh = Mesh1D(16)
    f = FeFunction(mesh, rng.uniform(0, 1, 17))
    eps = 1e-12
    for xj in mesh.nodes[1:-1]:
        assert abs(f.evaluate(xj - eps) - f.evaluate(xj + eps)) <= 1e-9


def test_slopes():
    f = FeFunction(Mesh1D(2), [0.0, 0.5, 1.0])
    assert f.slopes().tolist() == [1.0, 1.0]
    const = FeFunction(Mesh1D(4), np.full(5, 0.3))
    assert const.slopes().tolist() == [0.0] * 4
    root = interpolate(Mesh1D(2), lambda x: x ** (1 / 3))
    assert abs(root.slopes()[0] - 2.0 * CUBE_HALF) <= 4e-16
    assert root.slopes()[0] == 1.5874010519681996


def test_slope_telescoping_sum():
    rng = np.random.default_rng(5)
    for n in (4, 32, 256):
        mesh = Mesh1D(n)
        f = FeFunction(mesh, rng.uniform(-2, 2, n + 1))
        total = float(np.sum(mesh.h * f.slopes()))
        jump = f.nodal_values[-1] - f.nodal_values[0]
        assert abs(total - jump) <= 10 * n * np.finfo(float).eps


def test_interpolate_examples():
    ramp = interpolate(Mesh1D(2), lambda x: x)
    assert ramp.nodal_values.tolist() == [0.0, 0.5, 1.0]

    const = interpolate(Mesh1D(4), lambda x: np.ones_like(np.asarray(x, dtype=float)))
    assert const.nodal_values.tolist() == [1.0] * 5


@pytest.mark.parametrize("v", [lambda x: 1.0, lambda x: x[1:], lambda x: np.stack([x, x])])
def test_interpolate_rejects_a_wrong_shaped_callable(v):
    with pytest.raises(ValueError, match=r"expected 5 nodal values, got \("):
        interpolate(Mesh1D(4), v)


def test_interpolate_rejects_non_finite():
    with pytest.raises(EvaluationError):
        interpolate(Mesh1D(2), lambda x: np.where(np.asarray(x) > 0.4, np.nan, 1.0))


def test_interpolation_reproduces_fe_space_exactly():
    rng = np.random.default_rng(7)
    for n in (2, 5, 33):
        mesh = Mesh1D(n)
        f = FeFunction(mesh, rng.uniform(-1, 1, n + 1))
        again = interpolate(mesh, f.evaluate)
        assert np.array_equal(again.nodal_values, f.nodal_values)


def test_fefunction_validation():
    mesh = Mesh1D(3)
    with pytest.raises(ValueError):
        FeFunction(mesh, [0.0, 1.0])  # wrong length
    with pytest.raises(EvaluationError):
        FeFunction(mesh, [0.0, np.inf, 0.5, 1.0])
    f = FeFunction.from_interior(mesh, [0.2, 0.9])
    assert f.nodal_values.tolist() == [0.0, 0.2, 0.9, 1.0]


def test_nodal_values_are_immutable():
    f = FeFunction(Mesh1D(2), [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        f.nodal_values[1] = 0.9


def test_slope_at_matches_elementwise_slopes():
    rng = np.random.default_rng(13)
    mesh = Mesh1D(8)
    f = FeFunction(mesh, rng.uniform(0, 1, 9))
    ys = np.array([0.01, 0.125, 0.3, 0.99, 1.0])
    expected = f.slopes()[mesh.element_indices(ys)]
    assert np.array_equal(f.slope_at(ys), expected)
    assert f.slope_at(0.3) == f.slopes()[2]


def test_element_indices_follow_the_stored_nodes():
    # nodes[3] of Mesh1D(5) is 0.6000000000000001, so x = 0.6 lies in element 2
    mesh = Mesh1D(5)
    assert mesh.nodes[3] > 0.6
    assert mesh.element_indices(0.6) == 2
    f = FeFunction(mesh, [0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    assert f.slope_at(0.6) == f.slopes()[2]
    rng = np.random.default_rng(17)
    # the guess floor(x n) is corrected against the stored nodes for every n,
    # power-of-two or not
    for n in (3, 5, 10, 100, 1, 2, 4, 8, 16, 1024, 16384):
        nodes = Mesh1D(n).nodes
        if n & (n - 1) == 0:
            # nodes are exactly i/n: the premise of the oracle test that
            # compares the sampler where x = (k + u) h is exact
            # (test_matches_the_mesh_form_where_x_is_exact)
            assert np.array_equal(nodes, np.arange(n + 1) / n), n
        xs = np.concatenate([rng.random(10_000), nodes, [0.0, 1.0],
                             np.nextafter(nodes, -1.0)[1:], np.nextafter(nodes, 2.0)[:-1]])
        expected = np.minimum(np.searchsorted(nodes, xs, "right") - 1, n - 1)
        assert np.array_equal(Mesh1D(n).element_indices(xs), expected), n
