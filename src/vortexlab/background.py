"""Singular background functions that absorb the Dirac vortex sources.

On the plane the background is mu-regularized and fully explicit:

    u0(x) = -sum_j m_j * ln(1 + mu |x-p_j|^-2),
    g0(x) =  sum_j 4 m_j mu / (mu + |x-p_j|^2)^2,   Delta u0 = -g0 + 4 pi sum m_j delta.

On the torus u0 is assembled from the doubly periodic Green's function with
Delta G = delta_0 - 1/|Omega|, realized in closed form through the first
Jacobi theta function.  Its series is summed in separable form,

    sin((2n+1)(a+ib)) = sin((2n+1)a) cosh((2n+1)b) + i cos((2n+1)a) sinh((2n+1)b),

a = pi x/L1, b = pi y/L1: on a grid each vortex costs a row of x factors, a
column of y factors, one product per node and term and one log|theta1| per
node.  The coefficient q^((n+1/2)^2) is carried in the exponent of the
cosh/sinh factors, exp((2n+1)|b| + (n+1/2)^2 ln q), so tall cells, where it
underflows and cosh overflows, stay finite.  Backgrounds are carried as
exp(u0) so that vortex points hold exact zeros instead of -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import Grid2D, ScalarField
from .errors import NonPositiveMu
from .model import VortexSet


@dataclass
class BackgroundData:
    """exp(u0) for both species, on the solver grid.

    u0 itself is not stored: the plane solver needs it only on the boundary
    ring, where it evaluates ``plane_log_u0`` directly.
    """

    exp_u0_up: ScalarField
    exp_u0_down: ScalarField
    mu: float | None = None


def default_mu(vortices: VortexSet) -> float:
    """Large enough that the coercivity condition 1 - g0 > 1/2 holds comfortably."""
    return 16.0 * max(1, vortices.n1, vortices.n2)


# -- Plane (mu-regularized) ----------------------------------------------------

def plane_log_u0(vortices, mu: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """u0 at arbitrary points; -inf exactly at vortex positions."""
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    for px, py, m in vortices:
        d2 = (x - px) ** 2 + (y - py) ** 2
        with np.errstate(divide="ignore"):
            out -= m * np.log1p(mu / d2)
    return out


def plane_log_u0_shift(vortices, mu_a: float, mu_b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """u0(mu_b) - u0(mu_a) = sum_j m_j ln((d^2+mu_a)/(d^2+mu_b)); smooth everywhere."""
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    for px, py, m in vortices:
        d2 = (x - px) ** 2 + (y - py) ** 2
        out += m * np.log((d2 + mu_a) / (d2 + mu_b))
    return out


def plane_source(vortices, mu: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g0 = sum_j 4 m_j mu / (mu + d^2)^2 at arbitrary points."""
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    for px, py, m in vortices:
        d2 = (x - px) ** 2 + (y - py) ** 2
        out += 4.0 * m * mu / (mu + d2) ** 2
    return out


def _plane_species(vortices, mu, xg, yg):
    exp_u0 = np.ones_like(xg)
    for px, py, m in vortices:
        d2 = (xg - px) ** 2 + (yg - py) ** 2
        # product form keeps exact zeros on nodes hit by a vortex
        exp_u0 *= (d2 / (mu + d2)) ** m
    return exp_u0


def plane_background(vortices: VortexSet, mu: float, grid: Grid2D) -> BackgroundData:
    """Explicit mu-regularized background sampled on a truncation-square grid."""
    if not 0 < mu < math.inf:  # written so that NaN fails
        raise NonPositiveMu(f"mu must be positive and finite, got {mu}")
    xg, yg = grid.meshgrid()
    return BackgroundData(
        exp_u0_up=ScalarField(grid, _plane_species(vortices.up, mu, xg, yg)),
        exp_u0_down=ScalarField(grid, _plane_species(vortices.down, mu, xg, yg)),
        mu=mu,
    )


# -- Torus (theta-function Green's function) ------------------------------------

@dataclass(frozen=True)
class TorusGreenEvaluator:
    """Doubly periodic G with Delta G = delta_0 - 1/|Omega| on an L1 x L2 cell.

    G(x, y) = (1/2pi) ln|theta1(pi(x+iy)/L1; q)| - y^2/(2 L1 L2) + const,
    with nome q = exp(-pi L2/L1).  The series over n converges like
    q^(n^2), so a handful of terms reaches machine precision.
    """

    l1: float
    l2: float
    nome: float
    series_terms: int

    def _reduced(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        # G is exactly periodic; fold into the centered cell so the series
        # stays well-conditioned in Im(u)
        x = x - self.l1 * np.round(x / self.l1)
        y = y - self.l2 * np.round(y / self.l2)
        return x, y

    def _log_abs_theta1_reduced(self, x, y) -> np.ndarray:
        """ln|theta1(pi(x+iy)/L1; q)| on reduced coordinates.

        Summed in the separable form of the module docstring.  x and y
        broadcast: a row of x of shape (1, nx) against a column of y of
        shape (ny, 1) gives the grid from 1-D factors.
        """
        a = (np.pi / self.l1) * x
        b = (np.pi / self.l1) * y
        abs_b = np.abs(b)
        log_nome = math.log(self.nome)
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        re = np.zeros(shape)
        im = np.zeros(shape)
        term = np.empty(shape)
        for n in range(self.series_terms):
            k = 2 * n + 1
            half = n + 0.5
            # twice the coefficient times e^{k|b|}/2: theta1 carries a factor 2
            big = np.exp(k * abs_b + half * half * log_nome)
            if n % 2:
                big = -big
            # 1 - e^{-2k|b|} through expm1: sinh keeps its relative accuracy near b = 0
            cosh_q = big * (1.0 + np.exp(-2.0 * k * abs_b))
            sinh_q = big * np.copysign(-np.expm1(-2.0 * k * abs_b), b)
            re += np.multiply(np.sin(k * a), cosh_q, out=term)
            im += np.multiply(np.cos(k * a), sinh_q, out=term)
        with np.errstate(divide="ignore"):
            return np.log(np.hypot(re, im))

    def greens(self, x, y) -> np.ndarray:
        x, y = self._reduced(x, y)
        log_theta = self._log_abs_theta1_reduced(x, y)
        return log_theta / (2.0 * np.pi) - y**2 / (2.0 * self.l1 * self.l2)


def torus_green(l1: float, l2: float) -> TorusGreenEvaluator:
    nome = math.exp(-math.pi * l2 / l1)
    # worst case Im(u) = pi*L2/(2 L1): term n decays like nome^(n^2 - 1/4);
    # stop once below 1e-16
    n = 2
    while nome ** (n * n - 0.25) > 1e-16 and n < 64:
        n += 1
    return TorusGreenEvaluator(l1=l1, l2=l2, nome=nome, series_terms=n + 1)


def _torus_species(vortices, green: TorusGreenEvaluator, grid: Grid2D):
    """Accumulate u0' = sum_j 4 pi m_j G(x - p_j), max-normalized, as exp(u0')."""
    log_u0 = np.zeros(grid.shape)
    for px, py, m in vortices:
        # a row of x offsets against a column of y offsets: the separable series
        log_u0 += 4.0 * np.pi * m * green.greens(grid.xs[None, :] - px, grid.ys[:, None] - py)
    # Aubin's function is unique up to a constant; pin max u0 = 0
    log_u0 -= np.max(log_u0)
    return np.exp(log_u0)


def torus_background(vortices: VortexSet, grid: Grid2D) -> BackgroundData:
    """Green's-function background: Delta u0 = -4 pi N/|Omega| + 4 pi sum delta."""
    green = torus_green(grid.require_torus().l1, grid.l2)
    return BackgroundData(
        exp_u0_up=ScalarField(grid, _torus_species(vortices.up, green, grid)),
        exp_u0_down=ScalarField(grid, _torus_species(vortices.down, green, grid)),
        mu=None,
    )


def build_background(vortices: VortexSet, grid: Grid2D, mu: float | None = None) -> BackgroundData:
    """Background on the domain the grid samples: the Green's-function one on a
    periodic cell, the mu-regularized one on a truncation square (mu defaults
    to ``default_mu`` and is only meaningful there)."""
    if grid.is_torus:
        return torus_background(vortices, grid)
    return plane_background(vortices, mu if mu is not None else default_mu(vortices), grid)
