import math

import numpy as np
import pytest
import scipy.fft

import vortexlab as vl
from vortexlab.background import plane_source
from vortexlab.discretization import (
    _dst_by_fft,
    _dst_fold,
    _dst_unfold,
    coarsen,
    integrate_values,
    laplacian_values,
    prolong,
    solve_shifted_poisson,
)
from vortexlab.errors import NonPositiveShift, WrongDomainKind
from conftest import band_limited_field


def test_laplacian_of_constant_is_zero():
    for grid in (vl.Grid2D.periodic(2.0, 3.0, 16, 8), vl.Grid2D.dirichlet(1.0, 12, 12)):
        out = laplacian_values(grid, np.full(grid.shape, 4.2))
        assert np.max(np.abs(out)) < 1e-12


def test_spectral_laplacian_eigenfunction():
    l1 = 2 * np.pi
    grid = vl.Grid2D.periodic(l1, l1, 32, 32)
    xs, _ = grid.meshgrid()
    f = np.sin(2 * np.pi * xs / l1)
    out = laplacian_values(grid, f)
    expected = -((2 * np.pi / l1) ** 2) * f
    assert np.max(np.abs(out - expected)) < 1e-12


def test_five_point_exact_on_quadratic():
    grid = vl.Grid2D.dirichlet(1.0, 17, 17)
    xs, ys = grid.meshgrid()
    out = laplacian_values(grid, xs**2 + ys**2)
    interior = out[1:-1, 1:-1]
    assert np.max(np.abs(interior - 4.0)) < 1e-10
    assert not out[0, :].any()  # operator output lives on the interior


def test_integrate_constant_and_mode():
    l1, l2 = 2 * np.pi, 4 * np.pi
    grid = vl.Grid2D.periodic(l1, l2, 64, 32)
    assert integrate_values(grid, np.ones(grid.shape)) == pytest.approx(l1 * l2, rel=1e-15)
    xs, _ = grid.meshgrid()
    assert abs(integrate_values(grid, np.sin(2 * np.pi * xs / l1))) < 1e-12


def test_integrate_plane_source_mass():
    # with mu = 1 and R = 100 the tail outside the square is below 1e-4
    vs = vl.VortexSet(up=((3.0, -2.0, 1),))
    grid = vl.Grid2D.dirichlet(100.0, 1024, 1024)
    total = integrate_values(grid, plane_source(vs.up, 1.0, *grid.meshgrid()))
    assert abs(total - 4 * np.pi) < 1e-4 * 4 * np.pi


def test_integrate_refinement_monotone():
    vs = vl.VortexSet(up=((3.0, -2.0, 1),))
    errors = []
    for n in (128, 256, 512):
        grid = vl.Grid2D.dirichlet(100.0, n, n)
        source = plane_source(vs.up, 1.0, *grid.meshgrid())
        errors.append(abs(integrate_values(grid, source) - 4 * np.pi))
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize(
    "grid",
    [
        vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 32, 32),
        vl.Grid2D.periodic(2 * np.pi, 3 * np.pi, 16, 32),
        vl.Grid2D.dirichlet(3.0, 33, 33),
        # non-square: hx != hy, and odd (31) and even (16) interior counts
        vl.Grid2D.dirichlet(3.0, 33, 18),
        vl.Grid2D.dirichlet(3.0, 18, 33),
        # ny = 64: the sine transform of length 62 is the folded matrix product
        vl.Grid2D.dirichlet(3.0, 64, 64),
    ],
    ids=["torus", "torus-16x32", "plane", "plane-33x18", "plane-18x33", "plane-64"],
)
def test_poisson_preconditioner_round_trip(grid, rng):
    shift = 2.5
    r = rng.normal(size=grid.shape)
    if grid.kind is vl.GridKind.DIRICHLET_SQUARE:
        r[0, :] = r[-1, :] = r[:, 0] = r[:, -1] = 0.0
    f1 = solve_shifted_poisson(grid, r, shift)
    f2 = solve_shifted_poisson(grid, r.copy(), shift)
    back = shift * f1 - laplacian_values(grid, f1)
    if grid.kind is vl.GridKind.DIRICHLET_SQUARE:
        back[0, :] = back[-1, :] = back[:, 0] = back[:, -1] = 0.0
    assert np.max(np.abs(back - r)) < 1e-10 * max(1.0, np.max(np.abs(r)))
    assert np.array_equal(f1, f2)


@pytest.mark.parametrize("m", [*range(2, 71), 254, 255, 510, 511])
def test_folded_sine_transform_matches_fft(m, rng):
    # the folded product is the orthonormal DST-I in parity order (odd modes
    # first), and its inverse undoes it
    x = rng.normal(size=(m, 5))
    scale = np.max(np.abs(x))
    expected = scipy.fft.dst(x, type=1, axis=0, norm="ortho")
    expected = np.concatenate((expected[0::2], expected[1::2]))
    spec = _dst_fold(x)
    assert np.max(np.abs(spec - expected)) <= 1e-14 * scale
    back = np.empty_like(x)
    _dst_unfold(spec, back)
    assert np.max(np.abs(back - x)) <= 1e-14 * scale


def test_sine_transform_path_follows_fft_length():
    # 2(m + 1) = 64, 512, 1024 are fast FFT lengths; 34, 510, 1022 are not.
    # Past m = 2046 the folded product's m^2 cost makes the FFT the choice
    # at any length (2(m + 1) = 6142 = 2 * 37 * 83 is not fast)
    for m in (31, 255, 511, 3070):
        assert _dst_by_fft(m)
    for m in (16, 254, 510, 2046):
        assert not _dst_by_fft(m)


def test_poisson_preconditioner_fourier_mode():
    l1 = 2 * np.pi
    grid = vl.Grid2D.periodic(l1, l1, 32, 32)
    xs, _ = grid.meshgrid()
    shift = 4.0
    kx = 3 * (2 * np.pi / l1)
    r = np.cos(kx * xs)
    out = solve_shifted_poisson(grid, r, shift)
    assert np.max(np.abs(out - r / (shift + kx**2))) < 1e-12


def test_poisson_preconditioner_zero_and_shift_guard():
    grid = vl.Grid2D.periodic(1.0, 1.0, 8, 8)
    z = np.zeros(grid.shape)
    assert not solve_shifted_poisson(grid, z, 1.0).any()
    with pytest.raises(NonPositiveShift):
        solve_shifted_poisson(grid, z, 0.0)


def test_coarsen_halves_each_side_on_the_same_domain():
    torus = vl.Grid2D.periodic(2.0, 3.0, 128, 64)
    coarse = coarsen(torus)
    assert (coarse.nx, coarse.ny, coarse.kind) == (64, 32, torus.kind)
    assert (coarse.hx, coarse.hy) == (2.0 * torus.hx, 2.0 * torus.hy)
    assert (coarse.l1, coarse.l2) == (torus.l1, torus.l2)
    for n, half in ((129, 65), (128, 64)):
        plane = vl.Grid2D.dirichlet(9.0, n, n)
        coarse = coarsen(plane)
        assert (coarse.nx, coarse.ny, coarse.half_width) == (half, half, 9.0)
    # odd sides nest: every other fine node is a coarse node
    plane = vl.Grid2D.dirichlet(9.0, 129, 129)
    assert np.allclose(plane.xs[::2], coarsen(plane).xs, rtol=0.0, atol=1e-14)


def test_prolong_torus_is_trigonometric_interpolation(rng):
    fine = vl.Grid2D.periodic(2.0, 3.0, 64, 32)
    coarse = coarsen(fine)
    # band-limited on the coarse grid, Nyquist modes included: reproduced
    # exactly at every fine node
    def field(grid):
        x, y = grid.meshgrid()
        kx, ky = 2 * np.pi / grid.l1, 2 * np.pi / grid.l2
        return (0.3 + np.sin(3 * kx * x + 2 * ky * y) + 0.5 * np.cos(5 * ky * y - kx * x)
                + 0.25 * np.cos(16 * kx * x) + 0.125 * np.cos(8 * ky * y)
                + 0.0625 * np.cos(16 * kx * x) * np.cos(8 * ky * y))
    out = prolong(coarse, field(coarse), fine)
    assert out.shape == fine.shape
    assert np.max(np.abs(out - field(fine))) < 1e-13
    # arbitrary coarse values come back at the coarse nodes
    values = rng.normal(size=coarse.shape)
    assert np.max(np.abs(prolong(coarse, values, fine)[::2, ::2] - values)) < 1e-13


@pytest.mark.parametrize("n", [128, 129])
def test_prolong_plane_is_exact_on_bicubics(n):
    # separable cubic interpolation reproduces every bicubic polynomial, ring
    # included, whether or not the grids nest
    fine = vl.Grid2D.dirichlet(9.0, n, n)
    coarse = coarsen(fine)
    def field(grid):
        x, y = grid.meshgrid()
        a, b = x / 9.0, y / 9.0
        return (1.5 - a + 2.0 * a**2 - 0.75 * a**3) * (0.5 + b - 1.25 * b**2 + b**3) + a**3 * b**3
    assert np.max(np.abs(prolong(coarse, field(coarse), fine) - field(fine))) <= 1e-12


def test_prolong_plane_observed_order_is_fourth():
    # on a smooth field that no polynomial reproduces, the error falls by
    # 2^4 per halving of h (3.90 and 3.98 observed)
    def field(grid):
        x, y = grid.meshgrid()
        return np.exp(-(x**2 + y**2) / 8.0)
    errors = []
    for n in (65, 129, 257):
        fine = vl.Grid2D.dirichlet(9.0, n, n)
        coarse = coarsen(fine)
        errors.append(np.max(np.abs(prolong(coarse, field(coarse), fine) - field(fine))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 3.5), orders


@pytest.mark.parametrize("fine", [vl.Grid2D.periodic(2.0, 3.0, 64, 32), vl.Grid2D.dirichlet(9.0, 129, 129),
                                  vl.Grid2D.dirichlet(9.0, 128, 128)], ids=["torus", "plane-odd", "plane-even"])
def test_prolong_commutes_with_negation_bit_for_bit(fine, rng):
    # what keeps the species exchange exact across cascade levels
    coarse = coarsen(fine)
    values = rng.normal(size=coarse.shape)
    assert np.array_equal(prolong(coarse, -values, fine), -prolong(coarse, values, fine))


def test_integration_by_parts_on_torus(rng):
    grid = vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 64, 64)
    f = band_limited_field(grid, rng).values
    g = band_limited_field(grid, rng).values
    a = integrate_values(grid, f * laplacian_values(grid, g))
    b = integrate_values(grid, g * laplacian_values(grid, f))
    assert abs(a - b) < 1e-11


def test_stencil_matches_spectral_at_second_order():
    # 5-point periodic stencil converges to the spectral Laplacian at O(h^2)
    l1 = 2 * np.pi

    def stencil(vals, hx, hy):
        return (
            (np.roll(vals, -1, 1) - 2 * vals + np.roll(vals, 1, 1)) / hx**2
            + (np.roll(vals, -1, 0) - 2 * vals + np.roll(vals, 1, 0)) / hy**2
        )

    errors = []
    for n in (32, 64, 128):
        grid = vl.Grid2D.periodic(l1, l1, n, n)
        xs, ys = grid.meshgrid()
        f = np.exp(np.sin(xs)) * np.cos(ys)
        exact = laplacian_values(grid, f)
        approx = stencil(f, grid.hx, grid.hy)
        errors.append(np.max(np.abs(approx - exact)))
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert 1.8 <= order1 <= 2.2
    assert 1.8 <= order2 <= 2.2


def test_grid_constructors_validate():
    with pytest.raises(ValueError):
        vl.Grid2D.periodic(1.0, 1.0, 12, 16)  # not a power of two
    with pytest.raises(ValueError):
        vl.Grid2D.dirichlet(1.0, 3, 8)
    for sides in ((-1.0, 2.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="cell sides must be positive"):
            vl.Grid2D.periodic(*sides, 8, 8)
    for half_width in (0.0, -3.0):
        with pytest.raises(ValueError, match="half width must be positive"):
            vl.Grid2D.dirichlet(half_width, 8, 8)
    with pytest.raises(ValueError, match="positive finite spacings"):
        vl.Grid2D.periodic(math.inf, 1.0, 4, 4)
    with pytest.raises(ValueError, match="finite origin"):
        vl.Grid2D.dirichlet(math.inf, 8, 8)


@pytest.mark.parametrize(
    "nx, ny, x0, hx, kind, message",
    [
        (12, 16, 0.0, 0.5, vl.GridKind.PERIODIC_CELL, "power-of-two nx and ny, not 12 x 16"),
        (0, 0, 0.0, 0.5, vl.GridKind.PERIODIC_CELL, "power-of-two nx and ny, not 0 x 0"),
        (3, 8, 0.0, 0.5, vl.GridKind.DIRICHLET_SQUARE, "at least 4 x 4 nodes, not 3 x 8"),
        (8, 8, 0.0, 0.0, vl.GridKind.PERIODIC_CELL, "positive finite spacings"),
        (8, 8, 0.0, -1.0, vl.GridKind.DIRICHLET_SQUARE, "positive finite spacings"),
        (8, 8, 0.0, math.nan, vl.GridKind.DIRICHLET_SQUARE, "positive finite spacings"),
        (8, 8, 0.0, math.inf, vl.GridKind.PERIODIC_CELL, "positive finite spacings"),
        (8, 8, -math.inf, 0.5, vl.GridKind.DIRICHLET_SQUARE, "finite origin"),
    ],
)
def test_grid_checks_itself(nx, ny, x0, hx, kind, message):
    # the checks hold for a grid built directly, as read_fld builds one
    with pytest.raises(ValueError, match=message):
        vl.Grid2D(nx, ny, x0, x0, hx, hx, kind)


def test_grid_states_its_domain():
    cell = vl.Grid2D.periodic(2 * math.pi, 3 * math.pi, 8, 16)
    assert cell.is_torus and cell.require_torus() is cell
    assert (cell.l1, cell.l2) == (2 * math.pi, 3 * math.pi)
    assert cell.area == (2 * math.pi) * (3 * math.pi)
    with pytest.raises(WrongDomainKind):
        cell.require_plane()
    square = vl.Grid2D.dirichlet(2.5, 8, 12)
    assert not square.is_torus and square.require_plane() is square
    assert square.half_width == 2.5 and square.area == 25.0
    with pytest.raises(WrongDomainKind):
        square.require_torus()


def test_grid_recovers_its_extents_exactly(rng):
    # power-of-two nx, ny make hx*nx undo l1/nx bit for bit
    for _ in range(2000):
        l1, l2 = rng.uniform(1e-3, 1e3, 2)
        nx, ny = 2 ** rng.integers(1, 13, 2)
        cell = vl.Grid2D.periodic(l1, l2, int(nx), int(ny))
        assert (cell.l1, cell.l2, cell.area) == (l1, l2, l1 * l2)
        r = float(rng.uniform(1e-3, 1e3))
        square = vl.Grid2D.dirichlet(r, int(nx) + 3, int(ny) + 3)
        assert (square.half_width, square.area) == (r, (2.0 * r) ** 2)


def test_scalar_field_rejects_non_finite():
    grid = vl.Grid2D.periodic(1.0, 1.0, 4, 4)
    bad = np.zeros(grid.shape)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        vl.ScalarField(grid, bad)
