import math

import numpy as np
import pytest

import vortexlab as vl
from vortexlab.background import plane_source
from vortexlab.errors import NonPositiveShift
from conftest import band_limited_field


def test_laplacian_of_constant_is_zero():
    for grid in (vl.Grid2D.periodic(2.0, 3.0, 16, 8), vl.Grid2D.dirichlet(1.0, 12, 12)):
        f = vl.ScalarField(grid, np.full(grid.shape, 4.2))
        out = vl.apply_laplacian(f)
        assert np.max(np.abs(out.values)) < 1e-12


def test_spectral_laplacian_eigenfunction():
    l1 = 2 * np.pi
    grid = vl.Grid2D.periodic(l1, l1, 32, 32)
    xs, _ = grid.meshgrid()
    f = vl.ScalarField(grid, np.sin(2 * np.pi * xs / l1))
    out = vl.apply_laplacian(f)
    expected = -((2 * np.pi / l1) ** 2) * f.values
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_five_point_exact_on_quadratic():
    grid = vl.Grid2D.dirichlet(1.0, 17, 17)
    xs, ys = grid.meshgrid()
    f = vl.ScalarField(grid, xs**2 + ys**2)
    out = vl.apply_laplacian(f)
    interior = out.values[1:-1, 1:-1]
    assert np.max(np.abs(interior - 4.0)) < 1e-10
    assert not out.values[0, :].any()  # operator output lives on the interior


def test_integrate_constant_and_mode():
    l1, l2 = 2 * np.pi, 4 * np.pi
    grid = vl.Grid2D.periodic(l1, l2, 64, 32)
    assert vl.integrate(vl.ScalarField(grid, np.ones(grid.shape))) == pytest.approx(
        l1 * l2, rel=1e-15
    )
    xs, _ = grid.meshgrid()
    mode = vl.ScalarField(grid, np.sin(2 * np.pi * xs / l1))
    assert abs(vl.integrate(mode)) < 1e-12


def test_integrate_plane_source_mass():
    # with mu = 1 and R = 100 the tail outside the square is below 1e-4
    vs = vl.VortexSet(up=((3.0, -2.0, 1),))
    grid = vl.Grid2D.dirichlet(100.0, 1024, 1024)
    total = vl.integrate(vl.ScalarField(grid, plane_source(vs.up, 1.0, *grid.meshgrid())))
    assert abs(total - 4 * np.pi) < 1e-4 * 4 * np.pi


def test_integrate_refinement_monotone():
    vs = vl.VortexSet(up=((3.0, -2.0, 1),))
    errors = []
    for n in (128, 256, 512):
        grid = vl.Grid2D.dirichlet(100.0, n, n)
        source = vl.ScalarField(grid, plane_source(vs.up, 1.0, *grid.meshgrid()))
        errors.append(abs(vl.integrate(source) - 4 * np.pi))
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
    ],
    ids=["torus", "torus-16x32", "plane", "plane-33x18", "plane-18x33"],
)
def test_poisson_preconditioner_round_trip(grid, rng):
    shift = 2.5
    r = rng.normal(size=grid.shape)
    if grid.kind is vl.GridKind.DIRICHLET_SQUARE:
        r[0, :] = r[-1, :] = r[:, 0] = r[:, -1] = 0.0
    f1, f2 = vl.poisson_precondition(
        vl.ScalarField(grid, r), vl.ScalarField(grid, r.copy()), shift
    )
    back = shift * f1.values - vl.apply_laplacian(f1).values
    if grid.kind is vl.GridKind.DIRICHLET_SQUARE:
        back[0, :] = back[-1, :] = back[:, 0] = back[:, -1] = 0.0
    assert np.max(np.abs(back - r)) < 1e-10 * max(1.0, np.max(np.abs(r)))
    assert np.array_equal(f1.values, f2.values)


def test_poisson_preconditioner_fourier_mode():
    l1 = 2 * np.pi
    grid = vl.Grid2D.periodic(l1, l1, 32, 32)
    xs, _ = grid.meshgrid()
    shift = 4.0
    kx = 3 * (2 * np.pi / l1)
    r = np.cos(kx * xs)
    out, _ = vl.poisson_precondition(vl.ScalarField(grid, r), vl.ScalarField(grid, r), shift)
    assert np.max(np.abs(out.values - r / (shift + kx**2))) < 1e-12


def test_poisson_preconditioner_zero_and_shift_guard():
    grid = vl.Grid2D.periodic(1.0, 1.0, 8, 8)
    z = vl.ScalarField(grid, np.zeros(grid.shape))
    out, _ = vl.poisson_precondition(z, z, 1.0)
    assert not out.values.any()
    with pytest.raises(NonPositiveShift):
        vl.poisson_precondition(z, z, 0.0)


def test_integration_by_parts_on_torus(rng):
    grid = vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 64, 64)
    f = band_limited_field(grid, rng)
    g = band_limited_field(grid, rng)
    lf = vl.apply_laplacian(f)
    lg = vl.apply_laplacian(g)
    a = vl.integrate(vl.ScalarField(grid, f.values * lg.values))
    b = vl.integrate(vl.ScalarField(grid, g.values * lf.values))
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
        f = vl.ScalarField(grid, np.exp(np.sin(xs)) * np.cos(ys))
        exact = vl.apply_laplacian(f).values
        approx = stencil(f.values, grid.hx, grid.hy)
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


def test_scalar_field_rejects_non_finite():
    grid = vl.Grid2D.periodic(1.0, 1.0, 4, 4)
    bad = np.zeros(grid.shape)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        vl.ScalarField(grid, bad)
