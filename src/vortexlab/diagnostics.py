"""Quantitative checks on converged solutions.

Every theorem-level statement becomes a number: quantized flux integrals,
forced exponential masses on the torus, the energy identity, exponential
decay-rate fits on the plane, and first-integral field reconstructions at the
amplitude level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import Grid2D, GridKind, ScalarField, integrate
from .errors import InsufficientDecayWindow
from .model import PhysicalParams, VortexSet, choleski_inverse
from .solver import LOG2, Solution, functional_gradient


@dataclass(frozen=True)
class DecayFit:
    rate: float
    r2: float
    gradient_rate: float
    gradient_r2: float


@dataclass(frozen=True)
class DiagnosticsReport:
    flux1: float
    flux2: float
    physical_flux1: float
    physical_flux2: float
    energy_integral: float
    residual_inf: float
    eta1_measured: float | None = None
    eta2_measured: float | None = None
    decay_rate: float | None = None
    decay_r2: float | None = None
    gradient_decay_rate: float | None = None
    gradient_decay_r2: float | None = None


# -- Integral identities ---------------------------------------------------------

def flux_report(sol: Solution) -> tuple[float, float]:
    """Dimensionless flux integrals; the exact values are (-pi N1, -pi N2)."""
    k = sol.config.coupling
    e1, e2 = sol.exp_u1.values, sol.exp_u2.values
    grid = sol.u1.grid
    flux1 = integrate(ScalarField(grid, k.k11 * e1 + k.k12 * e2 - 1.0))
    flux2 = integrate(ScalarField(grid, k.k21 * e1 + k.k22 * e2 - 1.0))
    return flux1, flux2


def eta_report(sol: Solution) -> tuple[float, float]:
    """Measured exponential masses; must match the closed forms eta1, eta2."""
    sol.config.domain.require_torus()
    return integrate(sol.exp_u1), integrate(sol.exp_u2)


def energy_report(sol: Solution) -> float:
    """int (e^{u1} + e^{u2} - 1); equals -pi (N1+N2)/2 since K has column sums 2."""
    grid = sol.u1.grid
    return integrate(ScalarField(grid, sol.exp_u1.values + sol.exp_u2.values - 1.0))


# -- Ring sampling and decay fits -------------------------------------------------

def bilinear_sample(grid: Grid2D, values: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    fx = (np.asarray(x) - grid.x0) / grid.hx
    fy = (np.asarray(y) - grid.y0) / grid.hy
    ix = np.clip(np.floor(fx).astype(int), 0, grid.nx - 2)
    iy = np.clip(np.floor(fy).astype(int), 0, grid.ny - 2)
    tx = fx - ix
    ty = fy - iy
    v00 = values[iy, ix]
    v01 = values[iy, ix + 1]
    v10 = values[iy + 1, ix]
    v11 = values[iy + 1, ix + 1]
    return (1 - ty) * ((1 - tx) * v00 + tx * v01) + ty * ((1 - tx) * v10 + tx * v11)


def ring_points(radii: np.ndarray, n_angles: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of shape (len(radii), n_angles) on origin-centered circles, at mid-cell angles."""
    theta = (np.arange(n_angles) + 0.5) * (2.0 * np.pi / n_angles)
    x = radii[:, None] * np.cos(theta)[None, :]
    y = radii[:, None] * np.sin(theta)[None, :]
    return x, y


def ring_means(grid: Grid2D, values: np.ndarray, radii: np.ndarray,
               n_angles: int = 720) -> np.ndarray:
    """Angular averages of a grid field over origin-centered circles."""
    x, y = ring_points(radii, n_angles)
    return bilinear_sample(grid, values, x, y).mean(axis=1)


def fit_log_slope(radii: np.ndarray, means: np.ndarray) -> tuple[float, float]:
    """Least squares of ln(means) against r; returns (rate, r_squared)."""
    good = means > 0.0
    if np.count_nonzero(good) < 8:
        raise InsufficientDecayWindow("fewer than 8 usable rings in the fit window")
    r = radii[good]
    logm = np.log(means[good])
    design = np.column_stack([r, np.ones_like(r)])
    coef, *_ = np.linalg.lstsq(design, logm, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((logm - fitted) ** 2))
    ss_tot = float(np.sum((logm - logm.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return -float(coef[0]), r2


def fit_exponential_decay(field: ScalarField, r_lo: float, r_hi: float,
                          n_rings: int = 32, n_angles: int = 720) -> tuple[float, float]:
    """Fit an exponential rate to ring averages of a positive quantity field."""
    radii = np.linspace(r_lo, r_hi, n_rings)
    means = ring_means(field.grid, field.values, radii, n_angles)
    return fit_log_slope(radii, means)


def _central_gradients(grid: Grid2D, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = np.zeros_like(values)
    gy = np.zeros_like(values)
    gx[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * grid.hx)
    gy[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2.0 * grid.hy)
    return gx, gy


def decay_fit(sol: Solution, n_rings: int = 32, n_angles: int = 720) -> DecayFit:
    """Fit the far-field rates of (u1+ln2)^2+(u2+ln2)^2 and of the gradients.

    The fit annulus is r in [0.5 R, 0.8 R]; the theorem guarantees a rate of
    at least (1-eps) sqrt(lambda0).
    """
    r_half = sol.config.domain.require_plane().half_width
    r_lo, r_hi = 0.5 * r_half, 0.8 * r_half
    grid = sol.u1.grid
    radii = np.linspace(r_lo, r_hi, n_rings)
    x, y = ring_points(radii, n_angles)
    dev1 = bilinear_sample(grid, sol.u1.values, x, y) + LOG2
    dev2 = bilinear_sample(grid, sol.u2.values, x, y) + LOG2
    inner_peak = float(max(np.max(np.abs(dev1[0])), np.max(np.abs(dev2[0]))))
    if inner_peak > 1e-3:
        raise InsufficientDecayWindow(
            f"|u + ln 2| = {inner_peak:.3g} at r = 0.5 R; enlarge the domain"
        )
    rate, r2 = fit_log_slope(radii, (dev1**2 + dev2**2).mean(axis=1))

    gx1, gy1 = _central_gradients(grid, sol.u1.values)
    gx2, gy2 = _central_gradients(grid, sol.u2.values)
    gsq = (
        bilinear_sample(grid, gx1, x, y) ** 2
        + bilinear_sample(grid, gy1, x, y) ** 2
        + bilinear_sample(grid, gx2, x, y) ** 2
        + bilinear_sample(grid, gy2, x, y) ** 2
    )
    grate, gr2 = fit_log_slope(radii, gsq.mean(axis=1))
    return DecayFit(rate=rate, r2=r2, gradient_rate=grate, gradient_r2=gr2)


# -- First-integral field maps -----------------------------------------------------

def field_maps(sol: Solution, params: PhysicalParams) -> dict[str, ScalarField]:
    """Amplitude-level reconstruction of the measurable fields (M = 1 units)."""
    grid = sol.u1.grid
    rho = params.average_density
    p, q = params.p, params.q
    eb = params.eb
    psi_up = rho * sol.exp_u1.values
    psi_dn = rho * sol.exp_u2.values
    return {
        "psi_up_sq": ScalarField(grid, psi_up),
        "psi_down_sq": ScalarField(grid, psi_dn),
        "B12": ScalarField(grid, 2 * (p + q) * psi_up + 2 * (p - q) * psi_dn - eb),
        "B12_tilde": ScalarField(grid, 2 * (p - q) * psi_up + 2 * (p + q) * psi_dn - eb),
        "b0": ScalarField(grid, (p + q) * psi_up + (p - q) * psi_dn + eb),
        "b0_tilde": ScalarField(grid, (p - q) * psi_up + (p + q) * psi_dn + eb),
    }


# -- Residual of the original system ------------------------------------------------

def _vortex_cell_mask(grid: Grid2D, vortices: VortexSet, halo: int = 2) -> np.ndarray:
    """True on nodes within ``halo`` cells of a vortex (delta sources live there)."""
    mask = np.zeros(grid.shape, dtype=bool)
    periodic = grid.kind is GridKind.PERIODIC_CELL
    for x, y, _ in vortices.up + vortices.down:
        ix = int(round((x - grid.x0) / grid.hx))
        iy = int(round((y - grid.y0) / grid.hy))
        for dy in range(-halo, halo + 1):
            for dx in range(-halo, halo + 1):
                jx, jy = ix + dx, iy + dy
                if periodic:
                    mask[jy % grid.ny, jx % grid.nx] = True
                elif 0 <= jx < grid.nx and 0 <= jy < grid.ny:
                    mask[jy, jx] = True
    return mask


def residual_norm(sol: Solution) -> float:
    """Inf-norm of the original-variable residual away from vortex cells.

    The transformed-system gradient maps back to the u-variable residual
    through the inverse Choleski transform; away from the masked cells the
    background identity holds and the two residuals coincide.
    """
    cfg = sol.config
    g1, g2 = functional_gradient(sol.state, cfg, sol.background)
    r1, r2 = choleski_inverse(g1, g2, cfg.coupling)
    mask = _vortex_cell_mask(cfg.grid, cfg.vortices)
    if not cfg.domain.is_torus:
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
    keep = ~mask
    return float(max(np.max(np.abs(r1.values[keep])), np.max(np.abs(r2.values[keep]))))


# -- Aggregate report ---------------------------------------------------------------

def build_report(sol: Solution, params: PhysicalParams) -> DiagnosticsReport:
    cfg = sol.config
    flux1, flux2 = flux_report(sol)
    energy = energy_report(sol)
    res = residual_norm(sol)
    eta1 = eta2 = None
    rate = r2 = grate = gr2 = None
    if cfg.domain.is_torus:
        eta1, eta2 = eta_report(sol)
    else:
        try:
            fit = decay_fit(sol)
            rate, r2, grate, gr2 = fit.rate, fit.r2, fit.gradient_rate, fit.gradient_r2
        except InsufficientDecayWindow:
            pass
    return DiagnosticsReport(
        flux1=flux1,
        flux2=flux2,
        physical_flux1=2.0 * params.p * flux1,
        physical_flux2=2.0 * params.p * flux2,
        energy_integral=energy,
        residual_inf=res,
        eta1_measured=eta1,
        eta2_measured=eta2,
        decay_rate=rate,
        decay_r2=r2,
        gradient_decay_rate=grate,
        gradient_decay_r2=gr2,
    )
