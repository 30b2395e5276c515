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
method).  The orthonormal DST-I is its own inverse, so the same transform
runs before and after the tridiagonal solve, the modes in natural order.
A DST-I of length m = ny - 2 runs as an FFT of length 2(m + 1) when that
length is a fast one (ny = 513, 1025, ...) or m is above 2046; otherwise
it is applied as the DST-I matrix folded by its symmetry, two half-size
matrix products.  ``_dst_by_fft`` makes that choice.

Coarse-to-fine solves halve a grid with ``coarsen`` and carry values back
with ``prolong``: trigonometric interpolation on periodic cells, separable
cubic (4-point Lagrange) interpolation on Dirichlet squares.  Points off the
grid are sampled bilinearly (``bilinear_sample``, the one point sampler),
a whole stack of fields over the same points in one call.

Every operator here takes the grid and raw arrays; a ``ScalarField`` only
carries a validated array with its grid between modules.

scipy is imported inside the Dirichlet-square functions that use it, so a
periodic-cell run loads numpy alone and a Dirichlet solve loads LAPACK
(``scipy.linalg.lapack``), plus ``scipy.fft`` only where it runs the FFT
sine transform.  Prolongation is numpy on both kinds.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonPositiveShift, WrongDomainKind


class GridKind(enum.Enum):
    PERIODIC_CELL = "periodic_cell"
    DIRICHLET_SQUARE = "dirichlet_square"


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def _check_nodes(kind: GridKind, nx: int, ny: int) -> None:
    if kind is GridKind.PERIODIC_CELL:
        # power-of-two sizes keep the FFT path exact and fast
        if not (_is_power_of_two(nx) and _is_power_of_two(ny)):
            raise ValueError(f"periodic grids require power-of-two nx and ny, not {nx} x {ny}")
    elif nx < 4 or ny < 4:
        raise ValueError(f"dirichlet grids need at least 4 x 4 nodes, not {nx} x {ny}")


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid; arrays over it are indexed [iy, ix], row-major.

    The grid is the domain, stored as its kind, node counts and sides: a
    periodic grid samples the l1 x l2 torus cell at x_i = i*hx, hx = l1/nx,
    a Dirichlet grid the [-R, R]^2 truncation square of the plane, whose
    sides l1 = l2 = 2R carry nx and ny nodes, ring included.  The origin,
    spacings, R and the area are derived.
    """

    kind: GridKind
    nx: int
    ny: int
    l1: float
    l2: float

    def __post_init__(self):
        # every grid, from the factories below or from a file, is checked here
        _check_nodes(self.kind, self.nx, self.ny)  # before hx and hy divide by them
        if not (0 < self.hx and 0 < self.hy and self.l1 < math.inf and self.l2 < math.inf
                and (self.is_torus or self.l1 == self.l2)):  # written so that NaN fails
            rule = ("cell sides must be positive and finite" if self.is_torus
                    else "half width must be positive and finite, the square's two sides 2R")
            raise ValueError(f"{rule}, not {self.l1} x {self.l2}")

    @staticmethod
    def periodic(l1: float, l2: float, nx: int, ny: int) -> "Grid2D":
        return Grid2D(GridKind.PERIODIC_CELL, nx, ny, l1, l2)

    @staticmethod
    def dirichlet(half_width: float, nx: int, ny: int) -> "Grid2D":
        return Grid2D(GridKind.DIRICHLET_SQUARE, nx, ny, 2.0 * half_width, 2.0 * half_width)

    @property
    def is_torus(self) -> bool:
        return self.kind is GridKind.PERIODIC_CELL

    @property
    def x0(self) -> float:
        return 0.0 if self.is_torus else -0.5 * self.l1

    @property
    def y0(self) -> float:
        return self.x0

    @property
    def hx(self) -> float:
        return self.l1 / (self.nx if self.is_torus else self.nx - 1)

    @property
    def hy(self) -> float:
        return self.l2 / (self.ny if self.is_torus else self.ny - 1)

    @property
    def half_width(self) -> float:
        """R of a Dirichlet grid's [-R, R]^2 square."""
        return -self.x0

    @property
    def area(self) -> float:
        """|Omega|: the cell area on the torus, (2R)^2 on the plane."""
        return self.l1 * self.l2 if self.is_torus else self.l1**2

    def require_torus(self) -> "Grid2D":
        if not self.is_torus:
            raise WrongDomainKind("operation requires a doubly periodic domain")
        return self

    def require_plane(self) -> "Grid2D":
        if self.is_torus:
            raise WrongDomainKind("operation requires a truncated-plane domain")
        return self

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


# -- Quadrature ---------------------------------------------------------------

def integrate_values(grid: Grid2D, values: np.ndarray) -> float:
    """Product-rule quadrature; exact trapezoid on both grid kinds."""
    # np.sum is pairwise: fixed reduction order, bit-reproducible
    return float(grid.cell_area * np.sum(values))


# -- Sampling and prolongation -------------------------------------------------

def bilinear_sample(grid: Grid2D, values: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at points (x, y) of one field (ny, nx), or of
    each field of a stack (..., ny, nx) with the cell indices and weights
    computed once: shape values.shape[:-2] + x.shape."""
    fx = (np.asarray(x) - grid.x0) / grid.hx
    fy = (np.asarray(y) - grid.y0) / grid.hy
    ix = np.clip(np.floor(fx).astype(int), 0, grid.nx - 2)
    iy = np.clip(np.floor(fy).astype(int), 0, grid.ny - 2)
    tx = fx - ix
    ty = fy - iy
    v00 = values[..., iy, ix]
    v01 = values[..., iy, ix + 1]
    v10 = values[..., iy + 1, ix]
    v11 = values[..., iy + 1, ix + 1]
    return (1 - ty) * ((1 - tx) * v00 + tx * v01) + ty * ((1 - tx) * v10 + tx * v11)


def coarsen(grid: Grid2D) -> Grid2D:
    """The same domain with every side halved: n/2 nodes on a periodic cell,
    (n + 1)//2 on a Dirichlet square, whose nodes then nest in the fine
    grid's when n is odd."""
    if grid.is_torus:
        return replace(grid, nx=grid.nx // 2, ny=grid.ny // 2)
    return replace(grid, nx=(grid.nx + 1) // 2, ny=(grid.ny + 1) // 2)


def _cubic_weights(n_coarse: int, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-point Lagrange (cubic) interpolation at the fractional coarse indices
    ``pos``: (first, weights), the index of each point's first coarse node
    and its four weights, shape (pos.size, 4).

    Each point weighs the four coarse nodes from ``first``, the stencil
    shifted inward at either end so that it never leaves the grid.
    """
    first = np.clip(np.floor(pos).astype(int) - 1, 0, n_coarse - 4)
    t = pos - first  # the point's offset from the stencil's first node
    weights = np.stack([np.prod([(t - j) / (k - j) for j in range(4) if j != k], axis=0)
                        for k in range(4)], axis=1)
    return first, weights


# output rows per block of a cubic pass: a block and its tap buffer stay in cache
_TAP_BLOCK = 64


def _cubic_pass(values: np.ndarray, taps: tuple[np.ndarray, np.ndarray], axis: int) -> np.ndarray:
    """Cubic interpolation of ``values`` along ``axis`` with ``taps`` =
    ``_cubic_weights(...)``: sum over k of weights[:, k] * values.take(first + k).

    Each output is accumulated from zero in tap order, the order in which a
    sparse matrix product with four nonzeros per row sums it, so the result
    is bit for bit that product's, signs of zero included.  A block of output
    rows is done at a time.
    """
    first, weights = taps
    shape = list(values.shape)
    shape[axis] = first.size
    out = np.zeros(shape)
    buffer = np.empty((min(_TAP_BLOCK, shape[0]), shape[1]))
    for start in range(0, shape[0], _TAP_BLOCK):
        rows = slice(start, start + _TAP_BLOCK)
        block = out[rows]
        tap = buffer[:len(block)]
        # along y a block gathers its own rows, each weighed by its own four
        # weights; along x it gathers columns of its rows, weighed per column
        src, index, w = ((values, first[rows], weights[rows, :, None]) if axis == 0
                         else (values[rows], first, weights))
        for k in range(4):
            # the indices are in range: "clip" only spares take its out buffer
            np.take(src, index + k, axis=axis, out=tap, mode="clip")
            tap *= w[:, k]
            block += tap
    return out


def prolong(coarse: Grid2D, values: np.ndarray, fine: Grid2D) -> np.ndarray:
    """Values on ``coarse`` carried onto every node of ``fine``, the grid it
    was coarsened from.

    On a periodic cell this is trigonometric interpolation: the rfft2
    spectrum zero-padded, each Nyquist mode split evenly between its + and
    - frequency so that the interpolant stays real and takes the coarse
    values at the coarse nodes.  On a Dirichlet square it is separable cubic
    interpolation, four weights per fine node (``_cubic_weights``) applied
    along y and then along x (``_cubic_pass``), bit for bit the product
    P_y @ values @ P_x^T of the two 1-D interpolation matrices: exact on
    bicubic polynomials, ring included, and needing no nesting.  An
    interpolant of higher order than the O(h^2) scheme is what lets nested
    iteration start the finer level within its discretization error.  Both
    are linear with weights that do not depend on the values, so negated
    values prolong to exactly the negated result.
    """
    if not coarse.is_torus:
        rows = _cubic_pass(values, _cubic_weights(coarse.ny, (fine.ys - coarse.y0) / coarse.hy), axis=0)
        return _cubic_pass(rows, _cubic_weights(coarse.nx, (fine.xs - coarse.x0) / coarse.hx), axis=1)
    ny, nx = values.shape
    spec = np.fft.rfft2(values)
    padded = np.zeros((fine.ny, fine.nx // 2 + 1), dtype=complex)
    half_y, half_x = ny // 2, nx // 2
    padded[:half_y, :half_x + 1] = spec[:half_y]
    padded[-half_y:, :half_x + 1] = spec[half_y:]
    padded[:, half_x] *= 0.5
    padded[-half_y] *= 0.5
    padded[half_y] = padded[-half_y]
    # irfft2 divides by the fine node count, 4 times the coarse one
    padded *= (fine.nx * fine.ny) / (nx * ny)
    return np.fft.irfft2(padded, s=fine.shape)


# -- Shifted-Poisson solve ----------------------------------------------------

def _dirichlet_eigenvalues(n_interior: int, h: float) -> np.ndarray:
    k = np.arange(1, n_interior + 1)
    return (4.0 / h**2) * np.sin(k * np.pi / (2.0 * (n_interior + 1))) ** 2


# longest DST-I applied as the folded matrix product: its cost grows like m^2
# per column, and past this length it lost to slow FFT lengths as well
_FOLD_MAX = 2046


def _dst_by_fft(m: int) -> bool:
    """Whether a DST-I of length m runs as an FFT rather than as the folded
    matrix product.

    The FFT has length 2(m + 1).  With one BLAS thread on a 2-core x86 VM it
    won where that length is fast (m = 511, 2047); the folded product won or
    tied at every other length measured from m = 126 to 2046, and lost at
    m = 2302, 3070 and 4094.  A fast length is one with no prime factor
    but 2, 3 and 5, which is what ``scipy.fft.next_fast_len(n, real=True)
    == n`` tests; the integer test spares a folded solve ``scipy.fft``.
    """
    n = 2 * (m + 1)
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return m > _FOLD_MAX or n == 1


# a length for each level of a four-level cascade (a 512^2 plane); the finest
# level's comes last in a solve, so nothing evicts it there
@functools.lru_cache(maxsize=4)
def _dst_halves(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd- and even-mode blocks of the orthonormal DST-I matrix of length m.

    S[k, j] = sqrt(2/(m+1)) sin(pi k j/(m+1)), k, j = 1..m, is symmetric and
    orthogonal, and S[k, m+1-j] = (-1)^(k+1) S[k, j].  So the odd rows need
    only the first ceil(m/2) columns (O) and the even rows the first
    floor(m/2) (E).  The sine argument is reduced modulo 2(m+1) in integers
    before it is scaled.  The blocks are read-only and shared.
    """
    n = m + 1
    k = np.arange(1, n)
    j = np.arange(1, n // 2 + 1)
    block = np.sqrt(2.0 / n) * np.sin(np.pi * (np.outer(k, j) % (2 * n)) / n)
    odd = np.ascontiguousarray(block[0::2])
    even = np.ascontiguousarray(block[1::2, : m // 2])
    odd.flags.writeable = False
    even.flags.writeable = False
    return odd, even


def _dst_fold(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I along axis 0, S x, written into ``out`` (which may be
    a view) or a new array.  S is its own inverse, so a second call returns x.

    The odd modes k = 1, 3, ... are O (x_top + x_bottom reversed, plus the
    middle row when m is odd), the even modes E (x_top - x_bottom reversed);
    each product writes its strided rows of ``out`` directly.
    """
    m = x.shape[0]
    p, q = m // 2, (m + 1) // 2
    odd, even = _dst_halves(m)
    top, bottom = x[:p], x[::-1][:p]
    folded = np.empty(x.shape)
    np.add(top, bottom, out=folded[:p])
    if q > p:
        folded[p] = x[p]
    np.subtract(top, bottom, out=folded[q:])
    if out is None:
        out = np.empty(x.shape)
    np.matmul(odd, folded[:q], out=out[0::2])
    np.matmul(even, folded[q:], out=out[1::2])
    return out


# the two shifts of one level: the finest level factors last in a solve, so
# nothing evicts its factors there, and the coarse levels' go as it starts
@functools.lru_cache(maxsize=2)
def _x_tridiagonal_factor(grid: Grid2D, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """LDL^T factor of (shift + lam_y[k] - D_xx) for every y sine mode k.

    The modes are chained into one block-diagonal system, y mode major and x
    index minor (the row-major order of the transformed interior), with zero
    couplings between blocks.  The factor is read-only and shared.
    """
    import scipy.linalg.lapack

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
    factor, and the same DST-I, its own inverse, returns to nodal values.
    The DST-I of length ny - 2 is an FFT when its FFT length is fast and the
    folded matrix product otherwise (module docstring).
    """
    if not 0 < shift < math.inf:  # written so that NaN fails
        raise NonPositiveShift(f"shift must be positive and finite, got {shift}")
    if grid.kind is GridKind.PERIODIC_CELL:
        kx, ky = _wavenumbers(grid)
        spec = np.fft.rfft2(rhs)
        spec /= shift + kx[None, :] ** 2 + ky[:, None] ** 2
        return np.fft.irfft2(spec, s=grid.shape)
    import scipy.linalg.lapack

    diag, off = _x_tridiagonal_factor(grid, float(shift))
    by_fft = _dst_by_fft(grid.ny - 2)
    # unnormalized, the FFT's DST-I is sqrt(2(m + 1)) S: the second call divides
    # by 2(m + 1), as scaling both (norm="ortho") made a call 1-2% slower
    if by_fft:
        import scipy.fft

        spec = scipy.fft.dst(rhs[1:-1, 1:-1], type=1, axis=0)
    else:
        spec = _dst_fold(rhs[1:-1, 1:-1])
    solved, _ = scipy.linalg.lapack.dpttrs(diag, off, spec.reshape(-1, 1), overwrite_b=1)
    solved = solved.reshape(spec.shape)
    out = np.zeros_like(rhs)
    if by_fft:
        out[1:-1, 1:-1] = scipy.fft.dst(solved, type=1, axis=0, norm="forward", overwrite_x=True)
    else:
        _dst_fold(solved, out[1:-1, 1:-1])
    return out
