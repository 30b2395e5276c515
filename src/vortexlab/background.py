"""Singular background functions that absorb the Dirac vortex sources.

On the plane the background is mu-regularized and fully explicit:

    u0(x) = -sum_j m_j * ln(1 + mu |x-p_j|^-2),
    g0(x) =  sum_j 4 m_j mu / (mu + |x-p_j|^2)^2,   Delta u0 = -g0 + 4 pi sum m_j delta.

On the torus u0 is assembled from the doubly periodic Green's function with
Delta G = delta_0 - 1/|Omega|, realized in closed form through the first
Jacobi theta function.  Backgrounds are carried as exp(u0) so that vortex
points hold exact zeros instead of -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import Grid2D, ScalarField
from .errors import NonPositiveMu
from .model import DomainSpec, VortexSet


@dataclass
class BackgroundData:
    """exp(u0) for both species, on the solver grid.

    On the plane ``log_up``/``log_down`` hold u0 itself (with -inf where a
    vortex sits exactly on a node); on the torus they are None.
    """

    exp_u0_up: ScalarField
    exp_u0_down: ScalarField
    mu: float | None = None
    log_up: np.ndarray | None = field(default=None, repr=False)
    log_down: np.ndarray | None = field(default=None, repr=False)

    def swapped(self) -> "BackgroundData":
        return BackgroundData(
            exp_u0_up=self.exp_u0_down,
            exp_u0_down=self.exp_u0_up,
            mu=self.mu,
            log_up=self.log_down,
            log_down=self.log_up,
        )


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
    return exp_u0, plane_log_u0(vortices, mu, xg, yg)


def plane_background(vortices: VortexSet, mu: float, grid: Grid2D) -> BackgroundData:
    """Explicit mu-regularized background sampled on a truncation-square grid."""
    if mu <= 0:
        raise NonPositiveMu(f"mu must be positive, got {mu}")
    xg, yg = grid.meshgrid()
    exp_up, log_up = _plane_species(vortices.up, mu, xg, yg)
    exp_dn, log_dn = _plane_species(vortices.down, mu, xg, yg)
    return BackgroundData(
        exp_u0_up=ScalarField(grid, exp_up),
        exp_u0_down=ScalarField(grid, exp_dn),
        mu=mu,
        log_up=log_up,
        log_down=log_dn,
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
        u = (np.pi / self.l1) * (x + 1j * y)
        theta = np.zeros_like(u)
        sign = 1.0
        for n in range(self.series_terms):
            half = n + 0.5
            theta += sign * self.nome ** (half * half) * np.sin((2 * n + 1) * u)
            sign = -sign
        theta *= 2.0
        with np.errstate(divide="ignore"):
            return np.log(np.abs(theta))

    def greens(self, x, y) -> np.ndarray:
        x, y = self._reduced(x, y)
        log_theta = self._log_abs_theta1_reduced(x, y)
        return log_theta / (2.0 * np.pi) - y**2 / (2.0 * self.l1 * self.l2)


def torus_green(domain: DomainSpec, series_terms: int | None = None) -> TorusGreenEvaluator:
    domain.require_torus()
    nome = math.exp(-math.pi * domain.l2 / domain.l1)
    if series_terms is None:
        # worst case Im(u) = pi*L2/(2 L1): term n decays like nome^(n^2 - 1/4);
        # stop once below 1e-16
        n = 2
        while nome ** (n * n - 0.25) > 1e-16 and n < 64:
            n += 1
        series_terms = max(8, n + 1)
    return TorusGreenEvaluator(l1=domain.l1, l2=domain.l2, nome=nome, series_terms=series_terms)


def _torus_species(vortices, green: TorusGreenEvaluator, xg, yg):
    """Accumulate u0' = sum_j 4 pi m_j G(x - p_j), max-normalized, as exp(u0')."""
    log_u0 = np.zeros_like(xg)
    for px, py, m in vortices:
        log_u0 += 4.0 * np.pi * m * green.greens(xg - px, yg - py)
    # Aubin's function is unique up to a constant; pin max u0 = 0
    log_u0 -= np.max(log_u0)
    return np.exp(log_u0)


def torus_background(vortices: VortexSet, domain: DomainSpec, grid: Grid2D) -> BackgroundData:
    """Green's-function background: Delta u0 = -4 pi N/|Omega| + 4 pi sum delta."""
    domain.require_torus()
    green = torus_green(domain)
    xg, yg = grid.meshgrid()
    exp_up = _torus_species(vortices.up, green, xg, yg)
    exp_dn = _torus_species(vortices.down, green, xg, yg)
    return BackgroundData(
        exp_u0_up=ScalarField(grid, exp_up),
        exp_u0_down=ScalarField(grid, exp_dn),
        mu=None,
    )


def build_background(vortices: VortexSet, domain: DomainSpec, grid: Grid2D,
                     mu: float | None = None) -> BackgroundData:
    """Dispatch on the domain kind; mu is only meaningful on the plane."""
    if domain.is_torus:
        return torus_background(vortices, domain, grid)
    return plane_background(vortices, mu if mu is not None else default_mu(vortices), grid)
