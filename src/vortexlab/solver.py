"""Damped Newton minimization of the transformed vortex functional.

The elliptic system is solved in the eigenbasis variables (w1, w2) of K,
where it is the Euler-Lagrange equation of a strictly convex functional:
u - u0 = M w with M = [[alpha, beta], [alpha, -beta]] along K's eigenvectors
(1, 1) and (1, -1), and M M^T = (det/k11) K (``model``).  On the torus

    I = int 1/2|grad w1|^2 + 1/2|grad w2|^2
        + kappa (e^{u0' + s1} + e^{u0'' + s2}) - C1 w1 - C2 w2,

with kappa = 4 k11/det, (s1, s2) = M w and (C1, C2) = M^{-1} (c1, c2),
c_i = 4(1 - pi N_i/|Omega|).

On the truncated plane the exponential coefficients are halved (the -ln 2
vacuum shift is absorbed into the unknowns), the linear term is
M^{-1}(g0 - 4) with the source g0 of each species, and the unknowns satisfy
the Dirichlet data w = M^{-1}(-u0) on the truncation boundary so that
u = -ln 2 there up to the exponentially small truncation error.

Two discretization choices matter for reproducibility:

* the plane source is anchored to a fixed reference split mu*: g0(mu) is
  realized as g0(mu*) + Lap_h(u0(mu*) - u0(mu)), where the shift
  u0(mu*) - u0(mu) = sum_j m_j ln((d^2+mu)/(d^2+mu*)) is smooth because the
  log singularities cancel.  The discrete systems for different mu are then
  exactly equivalent, so the recovered u is mu-independent down to solver
  tolerance while the scheme remains O(h^2)-consistent;
* exchanging the species keeps w1 and negates w2.  Every odd quantity (w2,
  e1 - e2, the second gradient component) only changes sign, and IEEE
  negation is exact, so the exchange symmetry holds bit for bit.

Each Newton step solves H d = -g by CG preconditioned with (s_i - Lap)^{-1}
per component: spectral on the torus; on the plane an orthonormal sine
transform, one tridiagonal solve and the same transform again, as it is
its own inverse.  The sine transform is an FFT or, where that FFT length
is slow, two half-size matrix products (see ``discretization``).  The
shifts s_i are the diagonal of the multipliers kappa M^T diag(e) M at the
vacuum e = (1, 1) on the plane,
(2 lambda1, 2 lambda2), and at the cell means eta_i/|Omega| on the torus:
one shift per mode of the linearized far field.  The inverse is
exact, so -Lap z_i = r_i - s_i z_i, and q = -Lap p follows the recurrence
q_i <- (r_i - s_i z_i) + beta q_i of the search direction p.  The Hessian
action is then q + A p with the pointwise multipliers A: an iteration costs
two preconditioner solves and no Laplacian.

The Newton loop evaluates each quantity once per iterate.  An Armijo trial
t = w + a d is evaluated directly: its exponentials, its -Lap t and its
functional value, whose quadratic part is da/2 <t, -Lap t> on the torus and
the 5-point edge energy on the plane.  The accepted trial, with all three,
is the next iterate, and its -Lap t becomes the next gradient in place.  So
a Newton step applies two Laplacians per Armijo trial and none besides.

A solve runs coarse to fine (nested iteration).  Its grid is halved, side by
side, while the coarser grid keeps at least ``COARSEST_SIDE`` nodes per side:
n/2 on the torus, (n + 1)//2 on the plane, whose grids then nest when n is
odd.  The coarsest level starts from w = 0; each level's converged w is
prolonged onto the next finer grid as that level's start (``prolong``:
spectral zero-padding on the torus, separable cubic interpolation of the
interior on the plane, whose ring keeps the level's own Dirichlet data).  The
functional is strictly convex on every grid, so each level's minimizer is
the next level's near neighbour, and by mesh independence the solve's own
grid needs only the last, quadratic Newton steps.  A torus level's
background is the finer one's [::2, ::2], normalization included, so every
level's w approximates the same function; a plane level builds its own.
Every level stops at ``tol_residual``: a coarse level is cheap, and a
converged one is what lets the finer torus levels start converged.  A coarse
level that reaches ``max_newton`` hands its iterate on instead of failing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

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
    ScalarField,
    coarsen,
    laplacian_values,
    prolong,
    solve_shifted_poisson,
)
from .errors import (
    ConvergenceFailure,
    ExponentOverflow,
    InfeasibleDomain,
    LineSearchStalled,
    MaxIterationsExceeded,
    NonPositiveMu,
)
from .model import (
    AdmissibilityReport,
    CouplingMatrix,
    VortexSet,
    check_admissibility,
    eigen_forward_values,
    eigen_inverse_values,
    validate_vortex_positions,
)

LOG2 = math.log(2.0)
EXP_GUARD = 700.0
LOG_ZERO = -800.0  # stands in for ln(0) at exact vortex nodes; exp(-800.) == 0.0
# inner solve and line search: fixed, so a config states only the problem
CG_TOL = 1e-3  # cap on the Eisenstat-Walker forcing term
CG_MAX_ITER = 400
ARMIJO_C = 1e-4  # sufficient-decrease constant
ARMIJO_BACKTRACK = 0.5  # step factor per rejected trial
ORACLE_MESH = 8192  # nodes of the 1D radial oracle
COARSEST_SIDE = 64  # fewest nodes per side of a coarse level


@dataclass(frozen=True)
class SolveConfig:
    """The problem (K, the vortices, the domain) and the Newton stopping rule."""

    coupling: CouplingMatrix
    vortices: VortexSet
    grid: Grid2D  # the domain: a periodic grid is the torus cell, a Dirichlet grid the plane's square
    mu: float | None = None  # plane only; defaults to 16*max(1, N1, N2)
    tol_residual: float = 1e-10
    max_newton: int = 50

    def __post_init__(self):
        if not 0 < self.tol_residual < math.inf:  # written so that NaN fails
            raise ValueError("tol_residual must be positive and finite")
        if isinstance(self.max_newton, bool) or not isinstance(self.max_newton, numbers.Integral):
            raise ValueError(f"max_newton must be an integer, got {self.max_newton!r}")
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1")
        if self.mu is not None and self.grid.is_torus:
            raise ValueError("mu applies only to plane domains")
        if self.mu is not None and not 0 < self.mu < math.inf:  # written so that NaN fails
            raise NonPositiveMu(f"mu must be positive and finite, got {self.mu}")

    def resolved_mu(self) -> float:
        return self.mu if self.mu is not None else default_mu(self.vortices)


@dataclass
class State:
    """Eigenbasis variables; on the plane the boundary ring carries fixed data."""

    w1: ScalarField
    w2: ScalarField


@dataclass(frozen=True)
class NewtonStep:
    iteration: int  # counted from 0 on each level
    residual_inf: float
    functional: float
    step_size: float
    cg_iterations: int
    grid: tuple[int, int]  # (nx, ny) of the level this step ran on


@dataclass
class Solution:
    """Converged state and solve metadata; u and e^u = h a exp(M w) (h = 1 on
    the torus, 1/2 on the plane, a = e^{u0}) are computed from ``state``, so
    exact zeros of a survive in e^u and ln 0 becomes ``LOG_ZERO`` in u.

    ``history`` lists the Newton steps of every level, coarsest first; the
    finest level, the solve's own grid, comes last.  ``final_residual`` and
    ``functional_value`` refer to the transformed system on that grid;
    ``final_residual`` is the inf-norm of its gradient in (w1, w2).  All
    three summaries read the last entry of ``history``, so
    ``newton_iterations`` counts the finest level's steps only.
    """

    state: State
    history: tuple[NewtonStep, ...]
    config: SolveConfig
    background: BackgroundData
    u1: ScalarField = field(init=False)
    u2: ScalarField = field(init=False)
    exp_u1: ScalarField = field(init=False)  # e^{u1} with exact zeros at on-node vortices
    exp_u2: ScalarField = field(init=False)

    def __post_init__(self):
        grid = self.config.grid
        half, shift = (1.0, 0.0) if grid.is_torus else (0.5, LOG2)
        a = (self.background.exp_u0_up.values, self.background.exp_u0_down.values)
        v = eigen_inverse_values(self.state.w1.values, self.state.w2.values, self.config.coupling)
        # a exp(M w) before u, as the iterate had it: after u, glibc trimmed the heap and
        # a 512^2 plane solve took ~25k more page faults
        exps = [ai * np.exp(vi) for ai, vi in zip(a, v)]
        with np.errstate(divide="ignore"):
            u = [np.where(ai > 0.0, np.log(ai) + vi - shift, LOG_ZERO) for ai, vi in zip(a, v)]
        self.u1, self.u2 = (ScalarField(grid, ui) for ui in u)
        self.exp_u1, self.exp_u2 = (ScalarField(grid, half * ei) for ei in exps)

    @property
    def newton_iterations(self) -> int:
        return self.history[-1].iteration

    @property
    def final_residual(self) -> float:
        return self.history[-1].residual_inf

    @property
    def functional_value(self) -> float:
        return self.history[-1].functional


def default_plane_half_width(k: CouplingMatrix, vortices: VortexSet) -> float:
    """Truncation radius making the committed boundary error < 1e-8."""
    return vortices.farthest_radius() + 18.0 / k.decay_rate


def require_feasible(cfg: SolveConfig) -> AdmissibilityReport:
    """The torus cell's admissibility report; ``InfeasibleDomain`` when the
    cell area is below the existence threshold."""
    area = cfg.grid.area
    report = check_admissibility(cfg.coupling, cfg.vortices.n1, cfg.vortices.n2, area)
    if not report.feasible:
        raise InfeasibleDomain(f"cell area {area:.6g} is below the existence threshold {report.threshold:.6g}")
    return report


class _Problem:
    """Discrete functional/gradient/Hessian in raw-array form."""

    def __init__(self, cfg: SolveConfig, bg: BackgroundData):
        k = self.k = cfg.coupling
        self.grid = cfg.grid
        self.torus = cfg.grid.is_torus
        self.a1 = bg.exp_u0_up.values
        self.a2 = bg.exp_u0_down.values
        kappa = self.coef_value = (4.0 if self.torus else 2.0) * k.k11 / k.det
        alpha, beta = k.eigen_scales
        # kappa M^T e is the exponential part of the gradient, kappa M^T diag(e) M its Hessian
        self.coef_g = (kappa * alpha, kappa * beta)
        self.coef_a = (kappa * alpha * alpha, kappa * alpha * beta, kappa * beta * beta)

        area = cfg.grid.area
        n1, n2 = cfg.vortices.n1, cfg.vortices.n2
        if self.torus:
            report = require_feasible(cfg)
            self.c1, self.c2 = eigen_forward_values(
                4.0 * (1.0 - math.pi * n1 / area), 4.0 * (1.0 - math.pi * n2 / area), k
            )
            # the flux identities fix the cell means of e^{u_i} to eta_i/|Omega|
            reference = (report.eta1 / area, report.eta2 / area)
        else:
            mu = self.mu = bg.mu
            self.vortices = cfg.vortices
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
            self.lin1, self.lin2 = eigen_forward_values(g1 - 4.0, g2 - 4.0, k)
            self._zero_boundary(self.lin1)
            self._zero_boundary(self.lin2)
            reference = (1.0, 1.0)  # the vacuum
        # one preconditioner shift per component: the diagonal of the far-field
        # multipliers, which the eigenbasis makes (nearly) diagonal
        a11, _, a22 = self.hessian_multipliers(*reference)
        self.shifts = (a11, a22)

    # -- helpers --------------------------------------------------------------

    def initial_w(self) -> tuple[np.ndarray, np.ndarray]:
        w1 = np.zeros(self.grid.shape)
        w2 = np.zeros(self.grid.shape)
        if not self.torus:
            # Dirichlet data w = M^{-1}(-u0): makes u = -ln 2 exact on the ring
            # (u0 decays only like mu/r^2, so w = 0 there would pollute the
            # whole boundary layer).  The iterate's ring carries it from here on.
            xg, yg = self.grid.meshgrid()
            for ring in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
                w1[ring], w2[ring] = eigen_forward_values(
                    -plane_log_u0(self.vortices.up, self.mu, xg[ring], yg[ring]),
                    -plane_log_u0(self.vortices.down, self.mu, xg[ring], yg[ring]), self.k)
        return w1, w2

    @staticmethod
    def _zero_boundary(arr):
        arr[0, :] = arr[-1, :] = 0.0
        arr[:, 0] = arr[:, -1] = 0.0

    def exponentials(self, w1, w2) -> tuple[np.ndarray, np.ndarray]:
        s1, s2 = eigen_inverse_values(w1, w2, self.k)
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
        """Functional at w from its exponentials and nlap = -Laplacian(w);
        the plane's edge energy does not read nlap."""
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
        c1, c2 = self.coef_g
        g1 += c1 * (e1 + e2)
        g2 += c2 * (e1 - e2)
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
        """kappa M^T diag(e) M: (a11, a12, a22), on arrays or scalars."""
        c11, c12, c22 = self.coef_a
        total = e1 + e2
        return c11 * total, c12 * (e1 - e2), c22 * total

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

    def precondition(self, r1, r2) -> tuple[np.ndarray, np.ndarray]:
        """(shifts_i - Lap)^{-1} r_i, component by component."""
        s1, s2 = self.shifts
        return solve_shifted_poisson(self.grid, r1, s1), solve_shifted_poisson(self.grid, r2, s2)


def _dot(a1, a2, b1, b2) -> float:
    return float(np.sum(a1 * b1) + np.sum(a2 * b2))


def _pcg(problem: _Problem, mult, b1, b2, tol_rel, max_iter):
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
    s1, s2 = problem.shifts
    z1, z2 = problem.precondition(r1, r2)
    p1, p2 = z1.copy(), z2.copy()
    q1 = r1 - s1 * z1
    q2 = r2 - s2 * z2
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
        z1, z2 = problem.precondition(r1, r2)
        rz_new = _dot(r1, r2, z1, z2)
        beta = rz_new / rz
        rz = rz_new
        _advance(p1, q1, r1, z1, beta, s1)
        _advance(p2, q2, r2, z2, beta, s2)
    return x1, x2, max_iter


def _advance(p, q, r, z, beta, shift) -> None:
    """In place: p <- z + beta*p and q <- (r - shift*z) + beta*q; scales z."""
    p *= beta
    p += z
    q *= beta
    q += r
    z *= shift
    q -= z


def _start(problem: _Problem, previous: tuple[Grid2D, np.ndarray, np.ndarray] | None):
    """A level's starting iterate: w = 0, or the w of ``previous`` =
    (grid, w1, w2), prolonged when that grid is coarser; the plane's ring
    keeps the level's Dirichlet data either way."""
    w1, w2 = problem.initial_w()
    if previous is not None:
        grid, v1, v2 = previous
        inner = np.s_[:, :] if problem.torus else np.s_[1:-1, 1:-1]
        for w, v in ((w1, v1), (w2, v2)):
            if grid != problem.grid:
                v = prolong(grid, v, problem.grid)
            w[inner] = v[inner]
    return w1, w2


def _newton(problem: _Problem, previous, tol: float, max_newton: int, finest: bool):
    """Damped Newton from ``_start(problem, previous)`` until the residual
    is at most ``tol``.

    After ``max_newton`` steps the finest level raises; a coarse level hands
    its iterate on as it is, since it only gives the next level its start.
    """
    # the start is made here, so that no caller's name keeps it once the
    # first accepted step replaces it
    w1, w2 = _start(problem, previous)
    history = []
    grid = (problem.grid.nx, problem.grid.ny)
    exps, nlap, value = problem.evaluate(w1, w2)
    for it in range(max_newton + 1):
        g1, g2 = problem.gradient(exps, nlap)
        residual = float(max(np.max(np.abs(g1)), np.max(np.abs(g2))))
        if residual <= tol or (it == max_newton and not finest):
            history.append(NewtonStep(it, residual, value, 0.0, 0, grid))
            break
        if it == max_newton:
            raise MaxIterationsExceeded(
                f"residual {residual:.3g} > {tol:.3g} after {it} Newton steps"
            )
        mult = problem.hessian_multipliers(*exps)
        # the multipliers were the exponentials' last use, and the accepted
        # trial brings its own: two fields off CG's peak
        del exps
        # Eisenstat-Walker forcing: tighten the inner solve with the residual
        # so the outer iteration keeps its quadratic tail
        cg_rel = min(CG_TOL, max(1e-8, residual))
        d1, d2, cg_its = _pcg(problem, mult, -g1, -g2, cg_rel, CG_MAX_ITER)
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
            if trial <= value + ARMIJO_C * alpha * slope + noise:
                break
            # a rejected trial's arrays go before the next trial allocates
            t1 = t2 = t_exps = t_nlap = None
            alpha *= ARMIJO_BACKTRACK
            if alpha < 1e-14:
                raise LineSearchStalled("Armijo backtracking stalled below 1e-14")
        history.append(NewtonStep(it, residual, value, alpha, cg_its, grid))
        w1, w2, exps, nlap, value = t1, t2, t_exps, t_nlap, trial
        # only the iterate's names keep its arrays; the spent direction goes
        # before the next CG allocates
        del t1, t2, t_exps, t_nlap, d1, d2
    return w1, w2, history


def _levels(cfg: SolveConfig, bg: BackgroundData) -> list[tuple[Grid2D, BackgroundData]]:
    """(grid, background) of each cascade level, coarsest first, ending with
    the solve's own.

    Sides halve while the coarser level keeps at least ``COARSEST_SIDE``
    nodes per side.  A torus background is the finer one's [::2, ::2]: the
    corner nodes nest and the finer normalization carries over, so every
    level's w approximates the same function.  A plane background is built
    on its own level.
    """
    levels = [(cfg.grid, bg)]
    # a halved side, n//2 (n even on the torus) or (n + 1)//2, keeps
    # COARSEST_SIDE nodes exactly when n >= 2*COARSEST_SIDE - 1
    while min(levels[0][0].nx, levels[0][0].ny) >= 2 * COARSEST_SIDE - 1:
        fine_bg = levels[0][1]
        grid = coarsen(levels[0][0])
        if grid.is_torus:
            level_bg = BackgroundData(ScalarField(grid, fine_bg.exp_u0_up.values[::2, ::2]),
                                      ScalarField(grid, fine_bg.exp_u0_down.values[::2, ::2]))
        else:
            level_bg = build_background(cfg.vortices, grid, mu=bg.mu)
        levels.insert(0, (grid, level_bg))
    return levels


def newton_solve(cfg: SolveConfig, bg: BackgroundData | None = None,
                 initial_state: State | None = None) -> Solution:
    """Solve the vortex system by damped Newton, coarse to fine.

    The problem is first solved on a chain of coarser grids (``_levels``),
    each level starting from the prolonged solution of the one below, the
    coarsest from w = 0; the solve's own grid then runs only the last steps.
    ``initial_state`` overrides the starting iterate on the solve's own grid
    and skips the coarse levels (testing hook; by strict convexity the
    minimizer does not depend on it).
    """
    validate_vortex_positions(cfg.vortices, cfg.grid)
    if bg is None:
        bg = build_background(cfg.vortices, cfg.grid, mu=cfg.resolved_mu())
    levels = [(cfg.grid, bg)] if initial_state is not None else _levels(cfg, bg)

    history = []
    previous = None if initial_state is None else (cfg.grid, initial_state.w1.values,
                                                   initial_state.w2.values)
    while levels:
        # popped, so that each coarse background goes with its level
        grid, level_bg = levels.pop(0)
        problem = _Problem(replace(cfg, grid=grid), level_bg)
        w1, w2, steps = _newton(problem, previous, cfg.tol_residual, cfg.max_newton, finest=not levels)
        history.extend(steps)
        previous = grid, w1, w2
    state = State(ScalarField(cfg.grid, w1), ScalarField(cfg.grid, w2))
    return Solution(state=state, history=tuple(history), config=cfg, background=bg)


# -- Public functional surface (spec operations) --------------------------------

def functional_value(state: State, cfg: SolveConfig, bg: BackgroundData) -> float:
    """Discrete value of the convex functional at the given state."""
    problem = _Problem(cfg, bg)
    w1, w2 = state.w1.values, state.w2.values
    # the plane's quadratic part is the edge energy: it reads no -Lap w
    nlap = problem.neg_laplacian(w1, w2) if problem.torus else None
    return problem.value(w1, w2, problem.exponentials(w1, w2), nlap)


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

def require_oracle_mesh(mesh: int) -> None:
    """``ValueError`` when ``mesh`` is below the radial oracle's floor of 64 nodes."""
    if mesh < 64:
        raise ValueError(f"mesh {mesh} too coarse: the radial oracle needs at least 64 nodes")


def radial_oracle(k: CouplingMatrix, n1: int, n2: int, rmax: float,
                  mesh: int = ORACLE_MESH) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the radially reduced system with all vortices at the origin.

    Uses the substitution u_i = 2 n_i ln r + t_i and a damped Newton iteration
    on the 1D finite-difference system; entirely independent of the 2D path.
    Both species are carried as one (2, mesh) array t.  Interleaved as
    (t_1j, t_2j), they give a Jacobian of bandwidth (2, 2): LAPACK ``gbsv``.
    """
    import scipy.linalg

    if n1 < 0 or n2 < 0:
        raise ValueError("vortex numbers must be nonnegative")
    if not 20.0 / k.decay_rate <= rmax < math.inf:  # written so that NaN fails
        raise ValueError(f"rmax must be finite and at least {20.0 / k.decay_rate:.3g} for this coupling")
    require_oracle_mesh(mesh)

    m = mesh
    h = rmax / (m - 1)
    r = h * np.arange(m)
    ns = np.array([[n1], [n2]])
    # e^{u_i} = r^{2 n_i} e^{t_i}; the weight keeps the exact zero at r = 0 when n_i >= 1
    weights = np.array([r ** (2 * n1), r ** (2 * n2)])
    lower, diagonal, upper = _radial_laplacian(m, h, r)
    kk = np.array([[k.k11, k.k12], [k.k21, k.k22]])
    bc = -LOG2 - 2.0 * ns[:, 0] * math.log(rmax)
    band = np.zeros((5, 2 * m))  # the Jacobian J in LAPACK band storage, band[2 + a - b, b] = J[a, b]
    band[0, 2:] = np.repeat(upper, 2)
    band[4, :-2] = np.repeat(lower, 2)

    # start from the mu-regularized ansatz u = n ln(r^2/(1+r^2)) - ln 2
    t = -LOG2 - ns * np.log1p(r**2)
    t[:, -1] = bc

    def residual(t):
        rho = weights * np.exp(t)
        f = diagonal * t
        f[:, 1:] += lower * t[:, :-1]
        f[:, :-1] += upper * t[:, 1:]
        f -= 4.0 * (kk[:, :1] * rho[0] + kk[:, 1:] * rho[1] - 1.0)
        f[:, -1] = t[:, -1] - bc
        return f, rho

    # the discrete residual cannot drop below the rounding floor of the
    # second differences, ~eps*|t|/h^2
    scale = max(1.0, float(np.max(np.abs(t))))
    tol = max(1e-8, 64.0 * np.finfo(float).eps * scale / h**2)

    for _ in range(60):
        f, rho = residual(t)
        if np.max(np.abs(f)) <= tol:
            u = np.where(r > 0, 2.0 * ns * np.log(np.maximum(r, 1e-300)) + t, t)
            u[ns[:, 0] > 0, 0] = LOG_ZERO
            return r, u[0], u[1]
        rho[:, -1] = 0.0  # the Dirichlet row of the Jacobian is the identity alone
        band[1, 1::2], band[3, ::2] = -4.0 * kk[0, 1] * rho[1], -4.0 * kk[1, 0] * rho[0]  # species coupling
        band[2] = (diagonal - 4.0 * kk.diagonal()[:, None] * rho).T.ravel()
        delta = scipy.linalg.solve_banded((2, 2), band, -f.T.ravel()).reshape(m, 2).T
        fnorm = np.linalg.norm(f)
        eta = 1.0
        while eta > 1e-12:
            if np.linalg.norm(residual(t + eta * delta)[0]) <= (1.0 - 1e-4 * eta) * fnorm:
                break
            eta *= 0.5
        else:
            raise ConvergenceFailure("radial Newton line search stalled")
        t = t + eta * delta
    raise ConvergenceFailure("radial Newton did not reach tolerance in 60 iterations")


def _radial_laplacian(m: int, h: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals ``(lower, diagonal, upper)`` of the conservative stencil for
    u'' + u'/r: a regularity row at r = 0, and the identity as the last row,
    the Dirichlet row t[m - 1] = data."""
    rj = r[1:-1]
    sub = (rj - 0.5 * h) / (rj * h**2)
    sup = (rj + 0.5 * h) / (rj * h**2)
    # r = 0: 2D Laplacian of a radial function with u'(0) = 0
    diagonal = np.concatenate([[-4.0 / h**2], -(sub + sup), [1.0]])
    upper = np.concatenate([[4.0 / h**2], sup])
    lower = np.append(sub, 0.0)
    return lower, diagonal, upper
