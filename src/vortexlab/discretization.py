"""Uniform grids, Laplacians, quadrature and the shifted-Poisson preconditioner.

Two grid kinds are supported.  Periodic cells sample the torus at corner
nodes x_i = i*hx (the periodic edge is not duplicated) and use the exact
spectral Laplacian.  Dirichlet squares include the boundary ring in the node
set; the 5-point stencil reads the stored boundary values, and operator
output is defined on interior nodes only (zero on the ring).

The preconditioner (shift - Laplacian)^{-1} is the exact inverse of the same
discrete operator on both kinds: a spectral division on periodic cells, and
on Dirichlet squares one sine transform (DST-I along y) plus one block
tridiagonal LDL^T solve along x (Hockney's Fourier-analysis/tridiagonal
method).  Dirichlet grids with ny - 1 a power of two (ny = 513, 1025, ...)
give the fast DST-I lengths; other sizes work, more slowly.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.linalg.lapack

from .errors import GridMismatch, NonPositiveShift


class GridKind(enum.Enum):
    PERIODIC_CELL = "periodic_cell"
    DIRICHLET_SQUARE = "dirichlet_square"


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid; arrays over it are indexed [iy, ix], row-major."""

    nx: int
    ny: int
    x0: float
    y0: float
    hx: float
    hy: float
    kind: GridKind

    @staticmethod
    def periodic(l1: float, l2: float, nx: int, ny: int) -> "Grid2D":
        # power-of-two sizes keep the FFT path exact and fast
        if not (_is_power_of_two(nx) and _is_power_of_two(ny)):
            raise ValueError("periodic grids require power-of-two nx, ny")
        return Grid2D(nx, ny, 0.0, 0.0, l1 / nx, l2 / ny, GridKind.PERIODIC_CELL)

    @staticmethod
    def dirichlet(half_width: float, nx: int, ny: int) -> "Grid2D":
        if nx < 4 or ny < 4:
            raise ValueError("dirichlet grids need at least a 4x4 node set")
        h_x = 2.0 * half_width / (nx - 1)
        h_y = 2.0 * half_width / (ny - 1)
        return Grid2D(nx, ny, -half_width, -half_width, h_x, h_y, GridKind.DIRICHLET_SQUARE)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs, self.ys)


@dataclass
class ScalarField:
    """Grid-sampled real function.  Values must be finite; treat as immutable."""

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite values in ScalarField")


def require_same_grid(*fields: ScalarField) -> Grid2D:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatch("fields live on different grids")
    return grid


# -- Laplacians ---------------------------------------------------------------

def _wavenumbers(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    kx = 2.0 * np.pi * np.fft.rfftfreq(grid.nx, d=grid.hx)
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.hy)
    return kx, ky


def laplacian_values(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """Laplacian on raw arrays; spectral on periodic cells, 5-point on squares."""
    if grid.kind is GridKind.PERIODIC_CELL:
        kx, ky = _wavenumbers(grid)
        spec = np.fft.rfft2(values)
        spec *= -(kx[None, :] ** 2 + ky[:, None] ** 2)
        return np.fft.irfft2(spec, s=grid.shape)
    out = np.zeros_like(values)
    out[1:-1, 1:-1] = (
        (values[1:-1, 2:] - 2.0 * values[1:-1, 1:-1] + values[1:-1, :-2]) / grid.hx**2
        + (values[2:, 1:-1] - 2.0 * values[1:-1, 1:-1] + values[:-2, 1:-1]) / grid.hy**2
    )
    return out


def apply_laplacian(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, laplacian_values(f.grid, f.values))


# -- Quadrature ---------------------------------------------------------------

def integrate_values(grid: Grid2D, values: np.ndarray) -> float:
    # np.sum is pairwise: fixed reduction order, bit-reproducible
    return float(grid.cell_area * np.sum(values))


def integrate(f: ScalarField) -> float:
    """Product-rule quadrature; exact trapezoid on both grid kinds."""
    return integrate_values(f.grid, f.values)


# -- Shifted-Poisson solve ----------------------------------------------------

def _dirichlet_eigenvalues(n_interior: int, h: float) -> np.ndarray:
    k = np.arange(1, n_interior + 1)
    return (4.0 / h**2) * np.sin(k * np.pi / (2.0 * (n_interior + 1))) ** 2


@functools.lru_cache(maxsize=2)
def _x_tridiagonal_factor(grid: Grid2D, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """LDL^T factor of (shift + lam_y[k] - D_xx) for every y sine mode k.

    The modes are chained into one block-diagonal system, y mode major and x
    index minor (the row-major order of the transformed interior), with zero
    couplings between blocks.  The factor is read-only and shared.
    """
    my, mx = grid.ny - 2, grid.nx - 2
    lam_y = _dirichlet_eigenvalues(my, grid.hy)
    diag = np.repeat(shift + lam_y + 2.0 / grid.hx**2, mx)
    off = np.full(my * mx - 1, -1.0 / grid.hx**2)
    off[mx - 1::mx] = 0.0
    diag, off, info = scipy.linalg.lapack.dpttrf(diag, off, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise NonPositiveShift(f"shifted operator is not positive definite (dpttrf info {info})")
    diag.flags.writeable = False
    off.flags.writeable = False
    return diag, off


def solve_shifted_poisson(grid: Grid2D, rhs: np.ndarray, shift: float) -> np.ndarray:
    """Apply (shift*I - Laplacian)^{-1} to one raw array.

    Periodic cells divide by the spectral symbol.  On Dirichlet squares this is
    the exact inverse of the 5-point operator on the interior (zero on the
    ring): a DST-I along y diagonalizes D_yy, each y mode leaves a symmetric
    positive definite tridiagonal system in x, solved with a cached LDL^T
    factor, and an inverse DST-I along y returns to nodal values.  A DST-I of
    length n runs as an FFT of length 2(n + 1), hence the fast sizes in the
    module docstring.
    """
    if shift <= 0:
        raise NonPositiveShift(f"shift must be positive, got {shift}")
    if grid.kind is GridKind.PERIODIC_CELL:
        kx, ky = _wavenumbers(grid)
        spec = np.fft.rfft2(rhs)
        spec /= shift + kx[None, :] ** 2 + ky[:, None] ** 2
        return np.fft.irfft2(spec, s=grid.shape)
    diag, off = _x_tridiagonal_factor(grid, float(shift))
    spec = scipy.fft.dst(rhs[1:-1, 1:-1], type=1, axis=0)
    solved, _ = scipy.linalg.lapack.dpttrs(diag, off, spec.reshape(-1, 1), overwrite_b=1)
    out = np.zeros_like(rhs)
    out[1:-1, 1:-1] = scipy.fft.idst(solved.reshape(spec.shape), type=1, axis=0, overwrite_x=True)
    return out


def poisson_precondition(r1: ScalarField, r2: ScalarField, shift: float) -> tuple[ScalarField, ScalarField]:
    """Componentwise (shift*I - Laplacian)^{-1}, used to precondition Newton-CG."""
    grid = require_same_grid(r1, r2)
    return (
        ScalarField(grid, solve_shifted_poisson(grid, r1.values, shift)),
        ScalarField(grid, solve_shifted_poisson(grid, r2.values, shift)),
    )
