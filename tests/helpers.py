"""Shared test oracles."""

import numpy as np

from maniafem.quadrature import gauss_rule


def batch_energies(mesh, interior_grid, clamp=None, rule=None):
    """Vectorized energies for a batch of interior nodal vectors, by the
    m = 4 Gauss rule unless ``rule`` is given.

    Written independently of the package's assembly path so grid scans can
    serve as optimizer oracles.
    """
    rule = rule or gauss_rule(4)
    t = 0.5 * (rule.points + 1.0)
    w = 0.5 * rule.weights
    grid = np.atleast_2d(interior_grid)
    m = grid.shape[0]
    full = np.empty((m, mesh.n_elements + 1))
    full[:, 0], full[:, -1] = 0.0, 1.0
    full[:, 1:-1] = grid
    x = mesh.nodes[:-1, None] + mesh.h * t[None, :]
    v = full[:, :-1, None] * (1.0 - t) + full[:, 1:, None] * t
    dens = (v**3 - x[None, :, :]) ** 2
    s_k = mesh.h * (dens @ w)
    d = np.diff(full, axis=1) / mesh.h
    if clamp is not None:
        d = np.clip(d, -clamp, clamp)
    return np.sum(d**6 * s_k, axis=1)


def study_blocks(grid):
    """The (x, k) pairs ``grid.integrate`` hands its integrand, in order."""
    seen = []
    grid.integrate(lambda x, k: seen.append((x, k)) or np.zeros(x.shape))
    return seen


def on_blocks(grid, per_block):
    """``per_block(x, k)`` on every block of ``grid``, as one (cells, 8) array
    in grid order."""
    return np.concatenate([np.reshape(per_block(x, k), (-1, 8))
                           for x, k in study_blocks(grid)])


def study_cells(grid, k):
    """The cells of the study grid's elements ``k``: the graded head for
    element 0, then 8 cells per element."""
    start = grid.head + 8 * (k.start - 1) if k.start else 0
    return slice(start, grid.head + 8 * (k.stop - 1))


def whole_grid_integrand(grid, vals):
    """An integrand that hands ``grid.integrate`` the (cells, 8) array
    ``vals``, block by block."""
    return lambda x, k: vals[study_cells(grid, k)].reshape(x.shape)
