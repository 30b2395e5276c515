"""Damped Newton minimization of the transformed vortex functional.

The elliptic system is solved in the Choleski variables (w1, w2), where it is
the Euler-Lagrange equation of a strictly convex functional.  On the torus

    I = int 1/2|grad w1|^2 + 1/2|grad w2|^2
        + (4 k11/det)(e^{u0' + s1} + e^{u0'' + s2}) - C1 w1 - C2 w2,

with s1 = sqrt(det) w1, s2 = (det w2 + k21 sqrt(det) w1)/k11 and

    C1 = (4/sqrt(det))(1 - pi N1/|Omega|),
    C2 = 2 - (4 pi/(|Omega| det))(k11 N2 - k21 N1).

On the truncated plane the exponential coefficients are halved (the -ln 2
vacuum shift is absorbed into the unknowns), the linear terms carry source
fields h1 = g0'/sqrt(det), h2 = (k11 g0'' - k21 g0')/det, and the unknowns
satisfy the Dirichlet data w = T(-u0) on the truncation boundary so that
u = -ln 2 there up to the exponentially small truncation error.

Two discretization choices matter for reproducibility:

* the plane source is anchored to a fixed reference split mu*:
  h = T(g0(mu*) + Lap_h(u0(mu*) - u0(mu))), where the shift
  u0(mu*) - u0(mu) = sum_j m_j ln((d^2+mu)/(d^2+mu*)) is smooth because the
  log singularities cancel.  The discrete systems for different mu are then
  exactly equivalent, so the recovered u is mu-independent down to solver
  tolerance while the scheme remains an O(h^2)-consistent realization of
  h = T(g0(mu));
* the vortex species are put into a canonical order before solving and the
  outputs swapped back, which makes the species-exchange symmetry of the
  system bit-exact.

Each Newton step solves H d = -g by CG preconditioned with (s - Lap)^{-1},
s = lambda0/2: spectral on the torus, one sine transform plus one tridiagonal
solve on the plane (see ``discretization``).  That inverse is exact, so
-Lap z = r - s z for the preconditioned residual z, and q = -Lap p follows
the recurrence q <- (r - s z) + beta q of the search direction p.  The
Hessian action is then q + A p with the pointwise multipliers A: an
iteration costs two preconditioner solves and no Laplacian.

The Newton loop evaluates each quantity once per iterate.  An Armijo trial
t = w + a d is evaluated directly: its exponentials, its -Lap t and its
functional value, whose quadratic part is da/2 <t, -Lap t> on the torus and
the 5-point edge energy on the plane.  The accepted trial, with all three,
is the next iterate, and its -Lap t becomes the next gradient in place.  So
a Newton step applies two Laplacians per Armijo trial and none besides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .background import (
    BackgroundData,
    build_background,
    default_mu,
    plane_log_u0,
    plane_log_u0_shift,
    plane_source,
)
from .discretization import (
    Grid2D,
    GridKind,
    ScalarField,
    laplacian_values,
    solve_shifted_poisson,
)
from .errors import (
    ConvergenceFailure,
    ExponentOverflow,
    InfeasibleDomain,
    LineSearchStalled,
    MaxIterationsExceeded,
)
from .model import (
    CouplingMatrix,
    DomainSpec,
    VortexSet,
    check_admissibility,
    choleski_forward_values,
    choleski_inverse_values,
    validate_vortex_positions,
)

LOG2 = math.log(2.0)
EXP_GUARD = 700.0
LOG_ZERO = -800.0  # stands in for ln(0) at exact vortex nodes; exp(-800.) == 0.0


@dataclass(frozen=True)
class SolveConfig:
    coupling: CouplingMatrix
    vortices: VortexSet
    domain: DomainSpec
    grid: Grid2D
    mu: float | None = None  # plane only; defaults to 16*max(1, N1, N2)
    tol_residual: float = 1e-10
    max_newton: int = 50
    cg_tol: float = 1e-3
    cg_max_iter: int = 400
    armijo_c: float = 1e-4
    armijo_backtrack: float = 0.5

    def __post_init__(self):
        if min(self.tol_residual, self.cg_tol, self.armijo_c) <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.armijo_backtrack < 1:
            raise ValueError("backtracking factor must lie in (0, 1)")
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1")
        if self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be >= 1")
        if self.domain.is_torus:
            if self.grid.kind is not GridKind.PERIODIC_CELL:
                raise ValueError("torus domain requires a periodic grid")
            if abs(self.grid.hx * self.grid.nx - self.domain.l1) > 1e-9 * self.domain.l1:
                raise ValueError("grid does not tile the cell in x")
            if abs(self.grid.hy * self.grid.ny - self.domain.l2) > 1e-9 * self.domain.l2:
                raise ValueError("grid does not tile the cell in y")
        else:
            if self.grid.kind is not GridKind.DIRICHLET_SQUARE:
                raise ValueError("plane domain requires a dirichlet grid")
            r = self.domain.half_width
            if abs(self.grid.x0 + r) > 1e-9 * r or abs(self.grid.hx * (self.grid.nx - 1) - 2 * r) > 1e-9 * r:
                raise ValueError("grid does not cover the truncation square")

    def resolved_mu(self) -> float:
        return self.mu if self.mu is not None else default_mu(self.vortices)


@dataclass
class State:
    """Choleski variables; on the plane the boundary ring carries fixed data."""

    w1: ScalarField
    w2: ScalarField


@dataclass(frozen=True)
class NewtonStep:
    iteration: int
    residual_inf: float
    functional: float
    step_size: float
    cg_iterations: int


@dataclass
class Solution:
    """Converged fields and solve metadata.

    ``final_residual`` and ``functional_value`` refer to the system actually
    solved (species in canonical order); the u fields are always in the
    caller's species order.
    """

    u1: ScalarField
    u2: ScalarField
    exp_u1: ScalarField  # e^{u1} with exact zeros at on-node vortices
    exp_u2: ScalarField
    state: State
    newton_iterations: int
    final_residual: float
    functional_value: float
    history: tuple[NewtonStep, ...]
    config: SolveConfig
    background: BackgroundData


def default_plane_half_width(k: CouplingMatrix, vortices: VortexSet) -> float:
    """Truncation radius making the committed boundary error < 1e-8."""
    return vortices.farthest_radius() + 18.0 / k.decay_rate


class _Problem:
    """Discrete functional/gradient/Hessian in raw-array form."""

    def __init__(self, cfg: SolveConfig, bg: BackgroundData):
        k = self.k = cfg.coupling
        self.grid = cfg.grid
        self.torus = cfg.domain.is_torus
        self.a1 = bg.exp_u0_up.values
        self.a2 = bg.exp_u0_down.values
        factor = 4.0 if self.torus else 2.0
        self.factor = factor
        self.coef_g1_e1 = factor * k.k11 / k.sqrt_det
        self.coef_g1_e2 = factor * k.k21 / k.sqrt_det
        self.coef_value = factor * k.k11 / k.det

        area = cfg.domain.area
        n1, n2 = cfg.vortices.n1, cfg.vortices.n2
        if self.torus:
            report = check_admissibility(k, n1, n2, area)
            if not report.feasible:
                raise InfeasibleDomain(
                    f"cell area {area:.6g} is below the existence threshold {report.threshold:.6g}"
                )
            self.c1 = (4.0 / k.sqrt_det) * (1.0 - math.pi * n1 / area)
            self.c2 = 2.0 - (4.0 * math.pi / (area * k.det)) * (k.k11 * n2 - k.k21 * n1)
            self.boundary_w1 = None
            self.boundary_w2 = None
            self.lin1 = None
            self.lin2 = None
        else:
            mu = bg.mu
            mu_star = default_mu(cfg.vortices)
            xg, yg = self.grid.meshgrid()
            # source anchored to the fixed reference split mu*: the shifted
            # systems for different mu are then exactly equivalent, so the
            # recovered u does not depend on mu beyond solver tolerance
            g1 = plane_source(cfg.vortices.up, mu_star, xg, yg)
            g2 = plane_source(cfg.vortices.down, mu_star, xg, yg)
            if mu != mu_star:
                shift1 = plane_log_u0_shift(cfg.vortices.up, mu, mu_star, xg, yg)
                shift2 = plane_log_u0_shift(cfg.vortices.down, mu, mu_star, xg, yg)
                g1 = g1 + laplacian_values(self.grid, shift1)
                g2 = g2 + laplacian_values(self.grid, shift2)
            h1, h2 = choleski_forward_values(g1, g2, k)
            self.lin1 = h1 - 4.0 / k.sqrt_det
            self.lin2 = h2 - 2.0
            self._zero_boundary(self.lin1)
            self._zero_boundary(self.lin2)
            # Dirichlet data w = T(-u0): makes u = -ln 2 exact on the ring
            # (u0 decays only like mu/r^2, so w = 0 there would pollute the
            # whole boundary layer)
            tv1 = np.zeros(self.grid.shape)
            tv2 = np.zeros(self.grid.shape)
            for ring in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
                tv1[ring] = -plane_log_u0(cfg.vortices.up, mu, xg[ring], yg[ring])
                tv2[ring] = -plane_log_u0(cfg.vortices.down, mu, xg[ring], yg[ring])
            self.boundary_w1, self.boundary_w2 = choleski_forward_values(tv1, tv2, k)

    # -- helpers --------------------------------------------------------------

    def initial_w(self) -> tuple[np.ndarray, np.ndarray]:
        if self.torus:
            return np.zeros(self.grid.shape), np.zeros(self.grid.shape)
        # the ring data is zero inside the ring
        return self.boundary_w1.copy(), self.boundary_w2.copy()

    @staticmethod
    def _zero_boundary(arr):
        arr[0, :] = arr[-1, :] = 0.0
        arr[:, 0] = arr[:, -1] = 0.0

    def exponentials(self, w1, w2) -> tuple[np.ndarray, np.ndarray]:
        s1, s2 = choleski_inverse_values(w1, w2, self.k)
        peak = max(np.max(s1), np.max(s2))
        if peak > EXP_GUARD:
            raise ExponentOverflow(f"exponent reached {peak:.3g}; iterate diverged")
        return self.a1 * np.exp(s1), self.a2 * np.exp(s2)

    def _edge_energy(self, u) -> float:
        """5-point edge energy of u, counting the edges to the boundary ring."""
        dx = np.diff(u, axis=1)
        dy = np.diff(u, axis=0)
        hx, hy = self.grid.hx, self.grid.hy
        return float(0.5 * hy / hx * np.sum(dx * dx) + 0.5 * hx / hy * np.sum(dy * dy))

    # -- functional, gradient, Hessian ----------------------------------------

    def neg_laplacian(self, v1, v2) -> tuple[np.ndarray, np.ndarray]:
        return -laplacian_values(self.grid, v1), -laplacian_values(self.grid, v2)

    def evaluate(self, w1, w2):
        """(exps, nlap, value) at w, with nlap = -Laplacian(w)."""
        exps = self.exponentials(w1, w2)
        nlap = self.neg_laplacian(w1, w2)
        return exps, nlap, self.value(w1, w2, exps, nlap)

    def value(self, w1, w2, exps, nlap) -> float:
        """Functional at w from its exponentials and nlap = -Laplacian(w)."""
        e1, e2 = exps
        da = self.grid.cell_area
        if self.torus:
            return 0.5 * da * _dot(w1, w2, *nlap) + da * float(
                np.sum(self.coef_value * (e1 + e2) - self.c1 * w1 - self.c2 * w2)
            )
        return self._edge_energy(w1) + self._edge_energy(w2) + da * float(
            np.sum(self.coef_value * ((e1 - self.a1) + (e2 - self.a2)))
            + np.sum(self.lin1 * w1 + self.lin2 * w2)
        )

    def gradient(self, exps, nlap) -> tuple[np.ndarray, np.ndarray]:
        """L2 gradient at w from its exponentials and nlap = -Laplacian(w),
        written into the nlap arrays."""
        e1, e2 = exps
        g1, g2 = nlap
        g1 += self.coef_g1_e1 * e1
        g1 += self.coef_g1_e2 * e2
        g2 += self.factor * e2
        if self.torus:
            g1 -= self.c1
            g2 -= self.c2
        else:
            g1 += self.lin1
            g2 += self.lin2
            self._zero_boundary(g1)
            self._zero_boundary(g2)
        return g1, g2

    def hessian_multipliers(self, e1, e2):
        k = self.k
        t = (self.factor / k.k11) * e2
        a11 = self.factor * k.k11 * e1 + k.k21**2 * t
        a12 = k.k21 * k.sqrt_det * t
        a22 = k.det * t
        return a11, a12, a22

    def hess_mv(self, mult, d1, d2, nlap1, nlap2, out) -> tuple[np.ndarray, np.ndarray]:
        """Hessian action on d, written into ``out``, given nlap = -Laplacian(d)."""
        a11, a12, a22 = mult
        h1, h2 = out
        np.multiply(a11, d1, out=h1)
        h1 += nlap1
        h1 += a12 * d2
        np.multiply(a12, d1, out=h2)
        h2 += nlap2
        h2 += a22 * d2
        if not self.torus:
            self._zero_boundary(h1)
            self._zero_boundary(h2)
        return h1, h2

    def precondition(self, r1, r2, shift) -> tuple[np.ndarray, np.ndarray]:
        return (
            solve_shifted_poisson(self.grid, r1, shift),
            solve_shifted_poisson(self.grid, r2, shift),
        )


def _dot(a1, a2, b1, b2) -> float:
    return float(np.sum(a1 * b1) + np.sum(a2 * b2))


def _pcg(problem: _Problem, mult, b1, b2, shift, tol_rel, max_iter):
    """Preconditioned CG for H d = b; raises if negative curvature shows up.

    Carries q = -Lap p by recurrence (module docstring), so the loop applies
    no Laplacian: two preconditioner solves per iteration.  b becomes the
    residual and is overwritten: pass arrays the caller no longer needs.
    """
    x1 = np.zeros_like(b1)
    x2 = np.zeros_like(b2)
    r1, r2 = b1, b2
    bnorm = math.sqrt(_dot(b1, b2, b1, b2))
    if bnorm == 0.0:
        return x1, x2, 0
    z1, z2 = problem.precondition(r1, r2, shift)
    p1, p2 = z1.copy(), z2.copy()
    q1 = r1 - shift * z1
    q2 = r2 - shift * z2
    rz = _dot(r1, r2, z1, z2)
    for it in range(1, max_iter + 1):
        # z is spent: the Hessian action takes its storage
        h1, h2 = problem.hess_mv(mult, p1, p2, q1, q2, out=(z1, z2))
        php = _dot(p1, p2, h1, h2)
        if php <= 0.0:
            raise ConvergenceFailure("CG detected nonpositive curvature in the Hessian")
        alpha = rz / php
        x1 += alpha * p1
        x2 += alpha * p2
        h1 *= alpha
        h2 *= alpha
        r1 -= h1
        r2 -= h2
        if math.sqrt(_dot(r1, r2, r1, r2)) <= tol_rel * bnorm:
            return x1, x2, it
        # free the spent buffer before the preconditioner allocates the next z
        del h1, h2, z1, z2
        z1, z2 = problem.precondition(r1, r2, shift)
        rz_new = _dot(r1, r2, z1, z2)
        beta = rz_new / rz
        rz = rz_new
        _advance(p1, q1, r1, z1, beta, shift)
        _advance(p2, q2, r2, z2, beta, shift)
    return x1, x2, max_iter


def _advance(p, q, r, z, beta, shift) -> None:
    """In place: p <- z + beta*p and q <- (r - shift*z) + beta*q; scales z."""
    p *= beta
    p += z
    q *= beta
    q += r
    z *= shift
    q -= z


def _canonical_orientation(cfg: SolveConfig) -> bool:
    """True if the species must be swapped to reach the canonical order."""
    key = (cfg.vortices.up, cfg.vortices.down)
    return (key[1], key[0]) < key


def _solve_canonical(cfg: SolveConfig, bg: BackgroundData, initial_state: State | None):
    problem = _Problem(cfg, bg)
    w1, w2 = problem.initial_w()
    if initial_state is not None:
        if problem.torus:
            w1 = initial_state.w1.values.copy()
            w2 = initial_state.w2.values.copy()
        else:
            w1[1:-1, 1:-1] = initial_state.w1.values[1:-1, 1:-1]
            w2[1:-1, 1:-1] = initial_state.w2.values[1:-1, 1:-1]

    shift = cfg.coupling.lambda0 / 2.0
    history = []
    converged = False
    exps, nlap, value = problem.evaluate(w1, w2)
    for it in range(cfg.max_newton + 1):
        g1, g2 = problem.gradient(exps, nlap)
        residual = float(max(np.max(np.abs(g1)), np.max(np.abs(g2))))
        if residual <= cfg.tol_residual:
            history.append(NewtonStep(it, residual, value, 0.0, 0))
            converged = True
            break
        if it == cfg.max_newton:
            raise MaxIterationsExceeded(
                f"residual {residual:.3g} > {cfg.tol_residual:.3g} after {it} Newton steps"
            )
        mult = problem.hessian_multipliers(*exps)
        # Eisenstat-Walker forcing: tighten the inner solve with the residual
        # so the outer iteration keeps its quadratic tail
        cg_rel = min(cfg.cg_tol, max(1e-8, residual))
        d1, d2, cg_its = _pcg(problem, mult, -g1, -g2, shift, cg_rel, cfg.cg_max_iter)
        del mult
        slope = problem.grid.cell_area * _dot(g1, g2, d1, d2)
        if slope >= 0.0:
            # inexact CG returned a non-descent direction; fall back to -grad
            d1, d2 = -g1, -g2
            slope = -problem.grid.cell_area * _dot(g1, g2, g1, g2)
        # allowance for the rounding noise of the functional itself; without it
        # the sufficient-decrease test spuriously fails once the predicted
        # decrease drops below ~eps*|I|
        noise = 16.0 * np.finfo(float).eps * (abs(value) + 1.0)
        alpha = 1.0
        while True:
            t1 = w1 + alpha * d1
            t2 = w2 + alpha * d2
            try:
                t_exps, t_nlap, trial = problem.evaluate(t1, t2)
            except ExponentOverflow:
                trial = math.inf
            if trial <= value + cfg.armijo_c * alpha * slope + noise:
                break
            # a rejected trial's arrays go before the next trial allocates
            t1 = t2 = t_exps = t_nlap = None
            alpha *= cfg.armijo_backtrack
            if alpha < 1e-14:
                raise LineSearchStalled("Armijo backtracking stalled below 1e-14")
        history.append(NewtonStep(it, residual, value, alpha, cg_its))
        w1, w2, exps, nlap, value = t1, t2, t_exps, t_nlap, trial
        # only the iterate's names keep its arrays; the spent direction goes
        # before the next CG allocates
        del t1, t2, t_exps, t_nlap, d1, d2

    assert converged
    return problem, w1, w2, exps, history


def _recover_fields(problem: _Problem, w1, w2, exps):
    """Map (w1, w2) back to u-variables; e^u comes from the iterate's
    exponentials, where exact zeros survive."""
    v1, v2 = choleski_inverse_values(w1, w2, problem.k)
    half = 1.0 if problem.torus else 0.5
    shift = 0.0 if problem.torus else LOG2
    a1, a2 = problem.a1, problem.a2
    with np.errstate(divide="ignore"):
        u1 = np.where(a1 > 0.0, np.log(a1) + v1 - shift, LOG_ZERO)
        u2 = np.where(a2 > 0.0, np.log(a2) + v2 - shift, LOG_ZERO)
    return u1, u2, half * exps[0], half * exps[1], v1, v2


def newton_solve(cfg: SolveConfig, bg: BackgroundData | None = None,
                 initial_state: State | None = None) -> Solution:
    """Solve the vortex system by damped Newton from w = 0.

    ``initial_state`` overrides the starting iterate (testing hook; by strict
    convexity the minimizer does not depend on it).
    """
    validate_vortex_positions(cfg.vortices, cfg.domain)
    user_bg = bg if bg is not None else build_background(
        cfg.vortices, cfg.domain, cfg.grid, mu=cfg.resolved_mu()
    )

    swap = _canonical_orientation(cfg)
    if swap:
        solve_cfg = replace(cfg, vortices=cfg.vortices.swapped())
        solve_bg = user_bg.swapped()
    else:
        solve_cfg, solve_bg = cfg, user_bg

    problem, w1, w2, exps, history = _solve_canonical(solve_cfg, solve_bg, initial_state)
    u1, u2, exp_u1, exp_u2, v1, v2 = _recover_fields(problem, w1, w2, exps)
    final = history[-1]

    if swap:
        u1, u2 = u2, u1
        exp_u1, exp_u2 = exp_u2, exp_u1
        v1, v2 = v2, v1
        # re-express the state in the caller's species order
        w1, w2 = choleski_forward_values(v1, v2, cfg.coupling)

    grid = cfg.grid
    state = State(ScalarField(grid, w1), ScalarField(grid, w2))
    return Solution(
        u1=ScalarField(grid, u1),
        u2=ScalarField(grid, u2),
        exp_u1=ScalarField(grid, exp_u1),
        exp_u2=ScalarField(grid, exp_u2),
        state=state,
        newton_iterations=final.iteration,
        final_residual=final.residual_inf,
        functional_value=final.functional,
        history=tuple(history),
        config=cfg,
        background=user_bg,
    )


# -- Public functional surface (spec operations) --------------------------------

def functional_value(state: State, cfg: SolveConfig, bg: BackgroundData) -> float:
    """Discrete value of the convex functional at the given state."""
    problem = _Problem(cfg, bg)
    return problem.evaluate(state.w1.values, state.w2.values)[2]


def functional_gradient(state: State, cfg: SolveConfig, bg: BackgroundData) -> tuple[ScalarField, ScalarField]:
    """Residual of the transformed system == L2 gradient of the functional."""
    problem = _Problem(cfg, bg)
    w1, w2 = state.w1.values, state.w2.values
    g1, g2 = problem.gradient(problem.exponentials(w1, w2), problem.neg_laplacian(w1, w2))
    return ScalarField(cfg.grid, g1), ScalarField(cfg.grid, g2)


def hessian_matvec(state: State, direction: tuple[ScalarField, ScalarField],
                   cfg: SolveConfig, bg: BackgroundData) -> tuple[ScalarField, ScalarField]:
    """Action of the second derivative of the functional at ``state``."""
    problem = _Problem(cfg, bg)
    exps = problem.exponentials(state.w1.values, state.w2.values)
    mult = problem.hessian_multipliers(*exps)
    d1, d2 = direction[0].values, direction[1].values
    nlap1, nlap2 = problem.neg_laplacian(d1, d2)
    h1, h2 = problem.hess_mv(mult, d1, d2, nlap1, nlap2, out=(np.empty_like(d1), np.empty_like(d2)))
    return ScalarField(cfg.grid, h1), ScalarField(cfg.grid, h2)


# -- Independent 1D radial oracle ------------------------------------------------

def radial_oracle(k: CouplingMatrix, n1: int, n2: int, rmax: float,
                  mesh: int = 4096) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the radially reduced system with all vortices at the origin.

    Uses the substitution u_i = 2 n_i ln r + t_i and a damped Newton iteration
    on the 1D finite-difference system with a direct sparse solve; entirely
    independent of the 2D minimization path.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("vortex numbers must be nonnegative")
    rate = k.decay_rate
    if rmax < 20.0 / rate:
        raise ValueError(f"rmax must be at least {20.0 / rate:.3g} for this coupling")
    if mesh < 64:
        raise ValueError(f"mesh {mesh} too coarse: the radial oracle needs at least 64 nodes")

    m = mesh
    h = rmax / (m - 1)
    r = h * np.arange(m)
    ns = (n1, n2)

    def rho(t, i):
        # e^{u_i} = r^{2 n_i} e^{t_i}; exact zero at r = 0 when n_i >= 1
        if ns[i] == 0:
            return np.exp(t)
        out = np.zeros_like(t)
        out[1:] = r[1:] ** (2 * ns[i]) * np.exp(t[1:])
        return out

    lap = _radial_laplacian(m, h, r)
    kk = np.array([[k.k11, k.k12], [k.k21, k.k22]])
    bc = np.array([-LOG2 - 2.0 * n * math.log(rmax) for n in ns])

    # start from the mu-regularized ansatz u = n ln(r^2/(1+r^2)) - ln 2
    t1 = -LOG2 - ns[0] * np.log1p(r**2)
    t2 = -LOG2 - ns[1] * np.log1p(r**2)
    t1[-1], t2[-1] = bc

    def residual(t1, t2):
        rho1, rho2 = rho(t1, 0), rho(t2, 1)
        f1 = lap @ t1 - 4.0 * (kk[0, 0] * rho1 + kk[0, 1] * rho2 - 1.0)
        f2 = lap @ t2 - 4.0 * (kk[1, 0] * rho1 + kk[1, 1] * rho2 - 1.0)
        f1[-1] = t1[-1] - bc[0]
        f2[-1] = t2[-1] - bc[1]
        return f1, f2, rho1, rho2

    # the discrete residual cannot drop below the rounding floor of the
    # second differences, ~eps*|t|/h^2
    scale = max(1.0, float(np.max(np.abs(t1))), float(np.max(np.abs(t2))))
    tol = max(1e-8, 64.0 * np.finfo(float).eps * scale / h**2)

    identity_last = scipy.sparse.csr_matrix(([1.0], ([m - 1], [m - 1])), shape=(m, m))
    lap_interior = lap.tolil()
    lap_interior[m - 1, :] = 0.0
    lap_interior = lap_interior.tocsr()

    for _ in range(60):
        f1, f2, rho1, rho2 = residual(t1, t2)
        fnorm = math.sqrt(float(np.dot(f1, f1) + np.dot(f2, f2)))
        if max(np.max(np.abs(f1)), np.max(np.abs(f2))) <= tol:
            u1 = np.where(r > 0, 2.0 * ns[0] * np.log(np.maximum(r, 1e-300)) + t1, t1)
            u2 = np.where(r > 0, 2.0 * ns[1] * np.log(np.maximum(r, 1e-300)) + t2, t2)
            if ns[0] > 0:
                u1[0] = LOG_ZERO
            if ns[1] > 0:
                u2[0] = LOG_ZERO
            return r, u1, u2
        d11 = rho1.copy()
        d22 = rho2.copy()
        d11[-1] = d22[-1] = 0.0
        jac = scipy.sparse.bmat(
            [
                [lap_interior - 4.0 * kk[0, 0] * scipy.sparse.diags(d11) + identity_last,
                 -4.0 * kk[0, 1] * scipy.sparse.diags(d22)],
                [-4.0 * kk[1, 0] * scipy.sparse.diags(d11),
                 lap_interior - 4.0 * kk[1, 1] * scipy.sparse.diags(d22) + identity_last],
            ],
            format="csc",
        )
        delta = scipy.sparse.linalg.spsolve(jac, -np.concatenate([f1, f2]))
        d1, d2 = delta[:m], delta[m:]
        eta = 1.0
        while eta > 1e-12:
            g1, g2, _, _ = residual(t1 + eta * d1, t2 + eta * d2)
            gnorm = math.sqrt(float(np.dot(g1, g1) + np.dot(g2, g2)))
            if gnorm <= (1.0 - 1e-4 * eta) * fnorm:
                break
            eta *= 0.5
        else:
            raise ConvergenceFailure("radial Newton line search stalled")
        t1 = t1 + eta * d1
        t2 = t2 + eta * d2
    raise ConvergenceFailure("radial Newton did not reach tolerance in 60 iterations")


def _radial_laplacian(m: int, h: float, r: np.ndarray) -> scipy.sparse.csr_matrix:
    """Conservative stencil for u'' + u'/r with a regularity row at r = 0."""
    rows, cols, vals = [], [], []
    # r = 0: 2D Laplacian of a radial function with u'(0) = 0
    rows += [0, 0]
    cols += [0, 1]
    vals += [-4.0 / h**2, 4.0 / h**2]
    for j in range(1, m - 1):
        r_minus = r[j] - 0.5 * h
        r_plus = r[j] + 0.5 * h
        sub = r_minus / (r[j] * h**2)
        sup = r_plus / (r[j] * h**2)
        rows += [j, j, j]
        cols += [j - 1, j, j + 1]
        vals += [sub, -(sub + sup), sup]
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(m, m))
