import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import vortexlab as vl
from vortexlab.background import (
    plane_background,
    plane_log_u0,
    plane_log_u0_shift,
    plane_source,
    torus_background,
)
from vortexlab.discretization import integrate_values
from vortexlab.errors import NonPositiveMu, WrongDomainKind


# -- Plane backgrounds ------------------------------------------------------------

def test_plane_vacuum():
    grid = vl.Grid2D.dirichlet(5.0, 32, 32)
    vs = vl.VortexSet()
    bg = plane_background(vs, 16.0, grid)
    assert np.all(bg.exp_u0_up.values == 1.0)
    xg, yg = grid.meshgrid()
    assert not plane_source(vs.up, 16.0, xg, yg).any()
    assert not plane_source(vs.down, 16.0, xg, yg).any()


def test_plane_single_vortex_values():
    # grid with a node exactly at the origin and at (2, 0)
    grid = vl.Grid2D.dirichlet(5.0, 101, 101)
    vs = vl.VortexSet(up=((0.0, 0.0, 1),))
    bg = plane_background(vs, 4.0, grid)
    iy0, ix0 = 50, 50
    assert bg.exp_u0_up.values[iy0, ix0] == 0.0  # exact zero at the vortex node
    ix2 = 70  # x = 2
    assert bg.exp_u0_up.values[iy0, ix2] == pytest.approx(0.5, abs=1e-12)
    xg, yg = grid.meshgrid()
    assert plane_source(vs.up, 4.0, xg, yg)[iy0, ix0] == pytest.approx(1.0, abs=1e-12)
    # species 2 untouched
    assert np.all(bg.exp_u0_down.values == 1.0)


@pytest.mark.parametrize("mu", [4.0, 16.0, 64.0])
def test_plane_source_mass_independent_of_mu(mu):
    # each vortex contributes exactly 4 pi m, independently of mu
    integral, err = quad(lambda r: 4 * mu / (mu + r * r) ** 2 * 2 * np.pi * r, 0, np.inf)
    assert abs(integral - 4 * np.pi) < 1e-9
    # grid quadrature agrees once the truncation tail is small
    vs = vl.VortexSet(up=((1.0, 2.0, 1), (-3.0, 0.5, 2)))
    grid = vl.Grid2D.dirichlet(400.0, 1024, 1024)
    total = integrate_values(grid, plane_source(vs.up, mu, *grid.meshgrid()))
    assert abs(total - 4 * np.pi * vs.n1) < 1e-3 * 4 * np.pi * vs.n1


def test_plane_exp_u0_bounds():
    vs = vl.VortexSet(up=((1.0, 1.0, 2), (-2.0, 0.0, 1)), down=((0.5, -1.5, 1),))
    mu = 16.0
    grid = vl.Grid2D.dirichlet(8.0, 64, 64)
    bg = plane_background(vs, mu, grid)
    for f in (bg.exp_u0_up, bg.exp_u0_down):
        assert np.all(f.values >= 0.0)
        assert np.all(f.values <= 1.0)
    # boundary ring: 1 - exp(u0) <= mu * N / dist^2
    xs, ys = grid.meshgrid()
    ring = np.zeros(grid.shape, dtype=bool)
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    dist = np.full(grid.shape, np.inf)
    for x, y, _ in vs.up:
        dist = np.minimum(dist, np.hypot(xs - x, ys - y))
    bound = mu * vs.n1 / dist[ring] ** 2
    assert np.all(1.0 - bg.exp_u0_up.values[ring] <= bound + 1e-15)


def test_plane_rejects_bad_mu():
    grid = vl.Grid2D.dirichlet(5.0, 16, 16)
    with pytest.raises(NonPositiveMu):
        plane_background(vl.VortexSet(), 0.0, grid)


def test_nan_mu_is_named_from_the_library():
    # NaN fails every comparison, so the check must be written to fail on it;
    # the config refuses it before any solve
    with pytest.raises(NonPositiveMu, match="mu"):
        vl.SolveConfig(
            coupling=vl.coupling_from_pq(1.0, 2.0), vortices=vl.VortexSet(up=((0.0, 0.0, 1),)),
            grid=vl.Grid2D.dirichlet(9.0, 16, 16), mu=math.nan,
        )


def test_plane_log_shift_is_smooth_and_consistent():
    vs = ((0.3, -0.2, 2),)
    x = np.array([0.3, 1.0, 5.0])
    y = np.array([-0.2, 0.0, 1.0])
    shift = plane_log_u0_shift(vs, 4.0, 16.0, x, y)
    # finite at the vortex itself (log singularities cancel)
    assert shift[0] == pytest.approx(2 * math.log(4.0 / 16.0))
    u4 = plane_log_u0(vs, 4.0, x[1:], y[1:])
    u16 = plane_log_u0(vs, 16.0, x[1:], y[1:])
    assert shift[1:] == pytest.approx(u16 - u4, rel=1e-12)


# -- Torus Green's function ---------------------------------------------------------

@pytest.fixture(scope="module")
def green():
    return vl.torus_green(2 * np.pi, 2 * np.pi)


def test_green_double_periodicity(green, rng):
    x = rng.uniform(-10, 10, 100)
    y = rng.uniform(-10, 10, 100)
    base = green.greens(x, y)
    assert np.max(np.abs(green.greens(x + green.l1, y) - base)) < 1e-10
    assert np.max(np.abs(green.greens(x, y + green.l2) - base)) < 1e-10


def test_green_log_singularity_strength(green):
    # G - (1/2pi) ln|x| approaches a constant: variation < 1e-6 near 0
    theta = np.linspace(0.0, 2 * np.pi, 9)[:-1]
    vals = []
    for r in (1e-6, 1e-5, 1e-4):
        vals.append(
            green.greens(r * np.cos(theta), r * np.sin(theta)) - math.log(r) / (2 * np.pi)
        )
    vals = np.concatenate(vals)
    assert np.max(vals) - np.min(vals) < 1e-6


def test_green_laplacian_mean(green):
    # away from the source, Delta G = -1/|Omega|; 4th-order stencil oracle
    l1 = green.l1
    n = 256
    h = l1 / n
    xs = h * np.arange(n)
    xg, yg = np.meshgrid(xs, xs)
    px, py = 0.37 * l1, 0.61 * l1
    g = green.greens(xg - px, yg - py)

    def d2(a, ax):
        return (
            -np.roll(a, 2, ax) + 16 * np.roll(a, 1, ax) - 30 * a
            + 16 * np.roll(a, -1, ax) - np.roll(a, -2, ax)
        ) / (12 * h * h)

    lap = d2(g, 0) + d2(g, 1)
    dx = (xg - px + l1 / 2) % l1 - l1 / 2
    dy = (yg - py + l1 / 2) % l1 - l1 / 2
    far = np.hypot(dx, dy) > l1 / 4
    target = -1.0 / (green.l1 * green.l2)
    assert np.max(np.abs(lap[far] - target)) < 1e-6 * abs(target)


def _complex_series_greens(green, x, y):
    """Reference G: the theta1 series summed term by term with complex sin."""
    x = x - green.l1 * np.round(x / green.l1)
    y = y - green.l2 * np.round(y / green.l2)
    u = (np.pi / green.l1) * (x + 1j * y)
    theta = sum(
        (-1) ** n * green.nome ** ((n + 0.5) ** 2) * np.sin((2 * n + 1) * u)
        for n in range(green.series_terms)
    )
    return np.log(np.abs(2.0 * theta)) / (2 * np.pi) - y**2 / (2 * green.l1 * green.l2)


def test_green_matches_complex_series(green, rng):
    x = rng.uniform(-10, 10, 200)
    y = rng.uniform(-10, 10, 200)
    assert np.max(np.abs(green.greens(x, y) - _complex_series_greens(green, x, y))) < 1e-13


def test_green_separable_matches_meshgrid(green):
    # a row of x offsets against a column of y offsets gives the full grid
    grid = vl.Grid2D.periodic(green.l1, green.l2, 64, 32)
    xg, yg = grid.meshgrid()
    px, py = 1.3, 4.6
    full = green.greens(xg - px, yg - py)
    separable = green.greens(grid.xs[None, :] - px, grid.ys[:, None] - py)
    assert separable.shape == grid.shape
    assert np.max(np.abs(separable - full)) < 1e-14


def test_green_tall_cell_finite_and_periodic():
    # L2/L1 = 40: nome^((n+1/2)^2) underflows where cosh((2n+1)b) overflows
    green = vl.torus_green(1.0, 40.0)
    grid = vl.Grid2D.periodic(1.0, 40.0, 64, 64)
    xg, yg = grid.meshgrid()
    x, y = xg - 0.3, yg - 7.1
    base = green.greens(x, y)
    assert np.all(np.isfinite(base))
    assert np.max(np.abs(green.greens(x + green.l1, y) - base)) < 1e-10
    assert np.max(np.abs(green.greens(x, y + green.l2) - base)) < 1e-10
    bg = torus_background(vl.VortexSet(up=((0.3, 7.1, 1),)), grid)
    assert np.all(np.isfinite(bg.exp_u0_up.values))


@pytest.mark.parametrize("aspect", [0.5, 1.0, 2.0, 40.0])
def test_green_series_length_from_bound(aspect, rng):
    # the series stops at its own 1e-16 bound: 5 terms on a square cell,
    # and the terms a longer series adds are below rounding
    green = vl.torus_green(2 * np.pi, aspect * 2 * np.pi)
    if aspect == 1.0:
        assert green.series_terms == 5
    longer = dataclasses.replace(green, series_terms=8)
    x = rng.uniform(-10, 10, 500)
    y = rng.uniform(-10, 10, 500)
    assert np.array_equal(green.greens(x, y), longer.greens(x, y))
    grid = vl.Grid2D.periodic(green.l1, green.l2, 256, 256)
    px, py = 1.3, 0.4 * green.l2
    xs, ys = grid.xs[None, :] - px, grid.ys[:, None] - py
    assert np.array_equal(green.greens(xs, ys), longer.greens(xs, ys))


def test_torus_background_requires_torus():
    with pytest.raises(WrongDomainKind):
        torus_background(vl.VortexSet(), vl.Grid2D.dirichlet(3.0, 8, 8))


# -- Torus backgrounds ----------------------------------------------------------------

def test_torus_vacuum_background():
    grid = vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 32, 32)
    bg = torus_background(vl.VortexSet(), grid)
    assert np.all(bg.exp_u0_up.values == 1.0)


def test_torus_background_max_normalized():
    grid = vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 32, 32)
    vs = vl.VortexSet(up=((1.0, 1.0, 2),), down=((2.0, 3.0, 1),))
    bg = torus_background(vs, grid)
    assert np.all(bg.exp_u0_up.values <= 1.0)
    assert np.max(bg.exp_u0_up.values) == 1.0  # max-normalized
    assert np.max(bg.exp_u0_down.values) == 1.0


def test_torus_vortex_winding_charge(green):
    # flux of grad(u0) through a small circle around an m=1 vortex is 4 pi
    px, py = 2.0, 3.0
    radius, eps, n_angles = 0.3, 1e-5, 256
    theta = (np.arange(n_angles) + 0.5) * 2 * np.pi / n_angles

    def u0(x, y):
        return 4 * np.pi * green.greens(x - px, y - py)

    outer = u0(px + (radius + eps) * np.cos(theta), py + (radius + eps) * np.sin(theta))
    inner = u0(px + (radius - eps) * np.cos(theta), py + (radius - eps) * np.sin(theta))
    radial_derivative = (outer - inner) / (2 * eps)
    flux = radial_derivative.mean() * 2 * np.pi * radius
    # interior area term contributes -4 pi r^2 pi / |Omega|
    expected = 4 * np.pi - 4 * np.pi * np.pi * radius**2 / (green.l1 * green.l2)
    assert flux == pytest.approx(expected, rel=1e-3)


def test_torus_background_translation_equivariance():
    grid = vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 64, 64)
    vs = vl.VortexSet(up=((1.3, 2.1, 1), (4.0, 5.0, 1)))
    shift = grid.l1 / 2  # exactly 32 grid cells
    vs_shifted = vl.VortexSet(
        up=tuple(((x + shift) % grid.l1, y, m) for x, y, m in vs.up)
    )
    a = torus_background(vs, grid).exp_u0_up.values
    b = torus_background(vs_shifted, grid).exp_u0_up.values
    assert np.max(np.abs(np.roll(a, 32, axis=1) - b)) < 1e-9


def test_torus_background_matches_complex_series():
    grid = vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 64, 64)
    vs = vl.VortexSet(up=((1.3, 2.1, 1), (4.0, 5.0, 2)))
    green = vl.torus_green(grid.l1, grid.l2)
    xg, yg = grid.meshgrid()
    log_u0 = sum(4 * np.pi * m * _complex_series_greens(green, xg - x, yg - y) for x, y, m in vs.up)
    expected = np.exp(log_u0 - np.max(log_u0))
    bg = torus_background(vs, grid)
    assert np.max(np.abs(bg.exp_u0_up.values - expected)) < 1e-13


def test_torus_background_exact_zero_on_node():
    grid = vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 32, 32)
    ix, iy = 7, 12
    vs = vl.VortexSet(up=((float(grid.xs[ix]), float(grid.ys[iy]), 1),))
    bg = torus_background(vs, grid)
    assert bg.exp_u0_up.values[iy, ix] == 0.0


def test_torus_background_laplacian_identity():
    # Delta u0 = -4 pi N1/|Omega| away from the vortices (4th-order stencil)
    n = 256
    grid = vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, n, n)
    vs = vl.VortexSet(up=((1.9, 1.9, 1), (4.4, 3.5, 1)))
    bg = torus_background(vs, grid)
    with np.errstate(divide="ignore"):
        u0 = np.log(bg.exp_u0_up.values)
    h = grid.hx

    def d2(a, ax):
        return (
            -np.roll(a, 2, ax) + 16 * np.roll(a, 1, ax) - 30 * a
            + 16 * np.roll(a, -1, ax) - np.roll(a, -2, ax)
        ) / (12 * h * h)

    lap = d2(u0, 0) + d2(u0, 1)
    xs, ys = grid.meshgrid()
    dist = np.full(grid.shape, np.inf)
    for x, y, _ in vs.up:
        dx = (xs - x + grid.l1 / 2) % grid.l1 - grid.l1 / 2
        dy = (ys - y + grid.l2 / 2) % grid.l2 - grid.l2 / 2
        dist = np.minimum(dist, np.hypot(dx, dy))
    far = dist > 1.5
    target = -4 * np.pi * vs.n1 / grid.area
    assert np.max(np.abs(lap[far] - target)) < 1e-5 * abs(target)
