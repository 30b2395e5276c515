import numpy as np
import pytest

import vortexlab as vl


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def band_limited_field(grid, rng, kmax=3, amplitude=1.0):
    """Random smooth doubly periodic field from a few low Fourier modes."""
    xs, ys = grid.meshgrid()
    l1, l2 = grid.l1, grid.l2
    vals = np.zeros(grid.shape)
    for _ in range(6):
        kx = rng.integers(-kmax, kmax + 1)
        ky = rng.integers(-kmax, kmax + 1)
        phase = rng.uniform(0, 2 * np.pi)
        vals += rng.normal() * np.cos(2 * np.pi * (kx * xs / l1 + ky * ys / l2) + phase)
    vals *= amplitude / max(1.0, np.max(np.abs(vals)))
    return vl.ScalarField(grid, vals)


def small_torus_setup(n=8, with_vortices=True):
    """Tiny torus problem for calculus checks."""
    l = 2 * np.pi
    k = vl.coupling_from_pq(1.0, 2.0)
    grid = vl.Grid2D.periodic(l, l, n, n)
    if with_vortices:
        vortices = vl.VortexSet(up=((1.9, 2.3, 1),), down=((4.1, 3.7, 1),))
    else:
        vortices = vl.VortexSet()
    cfg = vl.SolveConfig(coupling=k, vortices=vortices, grid=grid)
    bg = vl.build_background(vortices, grid)
    return cfg, bg


def small_plane_setup(n=10, with_vortex=True, half_width=9.0):
    k = vl.coupling_from_pq(1.0, 2.0)
    grid = vl.Grid2D.dirichlet(half_width, n, n)
    vortices = vl.VortexSet(up=((0.0, 0.0, 1),)) if with_vortex else vl.VortexSet()
    cfg = vl.SolveConfig(coupling=k, vortices=vortices, grid=grid)
    bg = vl.build_background(vortices, grid, mu=cfg.resolved_mu())
    return cfg, bg


def random_state(cfg, rng, amplitude=0.4):
    """Random state; boundary ring zeroed on dirichlet grids."""
    w1 = rng.uniform(-amplitude, amplitude, cfg.grid.shape)
    w2 = rng.uniform(-amplitude, amplitude, cfg.grid.shape)
    if not cfg.grid.is_torus:
        for w in (w1, w2):
            w[0, :] = w[-1, :] = 0.0
            w[:, 0] = w[:, -1] = 0.0
    return vl.State(vl.ScalarField(cfg.grid, w1), vl.ScalarField(cfg.grid, w2))


def random_direction(cfg, rng, amplitude=1.0):
    d = random_state(cfg, rng, amplitude)
    return d.w1, d.w2
