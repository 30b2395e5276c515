"""Quantitative checks on converged solutions.

Every theorem-level statement becomes a number: quantized flux integrals,
forced exponential masses on the torus, the energy identity, exponential
decay-rate fits on the plane, and first-integral field reconstructions at the
amplitude level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import Grid2D, ScalarField, bilinear_sample, integrate_values
from .errors import InsufficientDecayWindow
from .model import PhysicalParams, VortexSet, eigen_inverse_values
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
    flux1 = integrate_values(grid, k.k11 * e1 + k.k12 * e2 - 1.0)
    flux2 = integrate_values(grid, k.k21 * e1 + k.k22 * e2 - 1.0)
    return flux1, flux2


def eta_report(sol: Solution) -> tuple[float, float]:
    """Measured exponential masses; must match the closed forms eta1, eta2."""
    grid = sol.config.grid.require_torus()
    return integrate_values(grid, sol.exp_u1.values), integrate_values(grid, sol.exp_u2.values)


def energy_report(sol: Solution) -> float:
    """int (e^{u1} + e^{u2} - 1); equals -pi (N1+N2)/2 since K has column sums 2."""
    return integrate_values(sol.u1.grid, sol.exp_u1.values + sol.exp_u2.values - 1.0)


# -- Ring sampling and decay fits -------------------------------------------------

RING_ANGLES = 720  # samples per ring, at mid-cell angles
DECAY_RINGS = 32  # rings across the decay-fit annulus


def ring_points(radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of shape (len(radii), RING_ANGLES) on origin-centered circles, at mid-cell angles."""
    theta = (np.arange(RING_ANGLES) + 0.5) * (2.0 * np.pi / RING_ANGLES)
    x = radii[:, None] * np.cos(theta)[None, :]
    y = radii[:, None] * np.sin(theta)[None, :]
    return x, y


def ring_means(grid: Grid2D, values: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Angular averages over origin-centered circles of a grid field, or of
    each field of a stack (..., ny, nx): shape values.shape[:-2] + radii.shape."""
    x, y = ring_points(radii)
    rings = bilinear_sample(grid, values, x, y)
    # each field's own (rings, angles) reduction sums in the order of a field alone
    means = [field.mean(axis=1) for field in rings.reshape(-1, *x.shape)]
    return np.reshape(means, rings.shape[:-1])


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


def _with_gradients(grid: Grid2D, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """(u, du/dx, du/dy) of each species as one (2, 3, ny, nx) stack; the
    central differences are zero on the edges they cannot reach, and are
    written in place, so the stack is the only full-size array made."""
    fields = np.zeros((2, 3, *grid.shape))
    fields[0, 0], fields[1, 0] = u1, u2
    u = fields[:, 0]
    ddx = fields[:, 1, :, 1:-1]
    ddy = fields[:, 2, 1:-1, :]
    np.subtract(u[:, :, 2:], u[:, :, :-2], out=ddx)
    ddx /= 2.0 * grid.hx
    np.subtract(u[:, 2:, :], u[:, :-2, :], out=ddy)
    ddy /= 2.0 * grid.hy
    return fields


def decay_fit(sol: Solution) -> DecayFit:
    """Fit the far-field rates of (u1+ln2)^2+(u2+ln2)^2 and of the gradients.

    The fit annulus is r in [0.5 R, 0.8 R]; the theorem guarantees a rate of
    at least (1-eps) sqrt(lambda0).
    """
    r_half = sol.config.grid.require_plane().half_width
    grid = sol.u1.grid
    radii = np.linspace(0.5 * r_half, 0.8 * r_half, DECAY_RINGS)
    x, y = ring_points(radii)
    rings = bilinear_sample(grid, _with_gradients(grid, sol.u1.values, sol.u2.values), x, y)
    dev1 = rings[0, 0] + LOG2
    dev2 = rings[1, 0] + LOG2
    inner_peak = float(max(np.max(np.abs(dev1[0])), np.max(np.abs(dev2[0]))))
    if inner_peak > 1e-3:
        raise InsufficientDecayWindow(
            f"|u + ln 2| = {inner_peak:.3g} at r = 0.5 R; enlarge the domain"
        )
    rate, r2 = fit_log_slope(radii, (dev1**2 + dev2**2).mean(axis=1))
    gsq = rings[0, 1] ** 2 + rings[0, 2] ** 2 + rings[1, 1] ** 2 + rings[1, 2] ** 2
    grate, gr2 = fit_log_slope(radii, gsq.mean(axis=1))
    return DecayFit(rate=rate, r2=r2, gradient_rate=grate, gradient_r2=gr2)


# -- First-integral field maps -----------------------------------------------------

def _psi_sq(sol: Solution, params: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    rho = params.average_density
    return rho * sol.exp_u1.values, rho * sol.exp_u2.values


def b12_map(sol: Solution, params: PhysicalParams) -> ScalarField:
    """The ``B12`` map of ``field_maps`` alone, the one map that
    ``vortexlab solve --emit-fields`` writes."""
    psi_up, psi_dn = _psi_sq(sol, params)
    p, q = params.p, params.q
    return ScalarField(sol.u1.grid, 2 * (p + q) * psi_up + 2 * (p - q) * psi_dn - params.eb)


def field_maps(sol: Solution, params: PhysicalParams) -> dict[str, ScalarField]:
    """Amplitude-level reconstruction of the measurable fields (M = 1 units)."""
    grid = sol.u1.grid
    psi_up, psi_dn = _psi_sq(sol, params)
    p, q = params.p, params.q
    eb = params.eb
    return {
        "psi_up_sq": ScalarField(grid, psi_up),
        "psi_down_sq": ScalarField(grid, psi_dn),
        "B12": b12_map(sol, params),
        "B12_tilde": ScalarField(grid, 2 * (p - q) * psi_up + 2 * (p + q) * psi_dn - eb),
        "b0": ScalarField(grid, (p + q) * psi_up + (p - q) * psi_dn + eb),
        "b0_tilde": ScalarField(grid, (p - q) * psi_up + (p + q) * psi_dn + eb),
    }


# -- Residual of the original system ------------------------------------------------

def residual_nodes(grid: Grid2D, vortices: VortexSet, halo: int = 2) -> np.ndarray:
    """True on the nodes where ``residual_norm`` measures: more than ``halo``
    cells from every vortex (delta sources live there) and, on the plane, off
    the boundary ring.  It depends only on the grid and the vortices, so a
    grid that leaves no such node is refused (``ValueError``) before a solve.
    """
    mask = np.zeros(grid.shape, dtype=bool)
    for x, y, _ in vortices.up + vortices.down:
        ix = int(round((x - grid.x0) / grid.hx))
        iy = int(round((y - grid.y0) / grid.hy))
        for dy in range(-halo, halo + 1):
            for dx in range(-halo, halo + 1):
                jx, jy = ix + dx, iy + dy
                if grid.is_torus:
                    mask[jy % grid.ny, jx % grid.nx] = True
                elif 0 <= jx < grid.nx and 0 <= jy < grid.ny:
                    mask[jy, jx] = True
    if not grid.is_torus:
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
    if mask.all():
        raise ValueError(
            f"every node of the {grid.nx}x{grid.ny} grid lies in a vortex cell"
            f"{'' if grid.is_torus else ' or on the boundary ring'}, so no node is left"
            " for the residual; refine the grid"
        )
    return ~mask


def residual_norm(sol: Solution) -> float:
    """Inf-norm of the original-variable residual on ``residual_nodes``.

    The transformed-system gradient g maps back to the u-variable residual
    M g through the inverse eigenbasis transform, whatever basis the solver
    uses, since M M^T is fixed by K; away from the vortex cells the
    background identity holds and the two residuals coincide.  g is
    evaluated at ``sol.state``, so it is always the residual of that state.
    """
    cfg = sol.config
    g1, g2 = functional_gradient(sol.state, cfg, sol.background)
    r1, r2 = eigen_inverse_values(g1.values, g2.values, cfg.coupling)
    keep = residual_nodes(cfg.grid, cfg.vortices)
    return float(max(np.max(np.abs(r1[keep])), np.max(np.abs(r2[keep]))))


# -- Aggregate report ---------------------------------------------------------------

def build_report(sol: Solution, params: PhysicalParams) -> DiagnosticsReport:
    cfg = sol.config
    flux1, flux2 = flux_report(sol)
    energy = energy_report(sol)
    res = residual_norm(sol)
    eta1 = eta2 = None
    rate = r2 = grate = gr2 = None
    if cfg.grid.is_torus:
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
