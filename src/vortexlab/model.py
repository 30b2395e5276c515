"""Problem data: couplings, vortex configurations, domains, admissibility.

Everything here is dimensionless.  The two coupling constants (p, q) enter
only through the symmetric 2x2 matrix

    K = (1/p) [[p+q, p-q], [p-q, p+q]],

whose eigenvalues are 2 and 2q/p.  The slowest decay constant of the far
field is lambda0 = 4*min(2, 2q/p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import ScalarField, require_same_grid
from .errors import (
    DecoupledSystem,
    NotPositiveDefinite,
    UnphysicalCoupling,
    WrongDomainKind,
)


@dataclass(frozen=True)
class PhysicalParams:
    """Couplings plus the mean electron density; eB follows from nu = pi/p."""

    p: float
    q: float
    average_density: float = 1.0

    def __post_init__(self):
        _validate_pq(self.p, self.q)
        if self.average_density <= 0:
            raise ValueError("average_density must be positive")

    @property
    def eb(self) -> float:
        """External field times charge: eB = 2*pi*rho/nu with nu = pi/p."""
        return 2.0 * self.p * self.average_density

    @property
    def filling_factor(self) -> float:
        return math.pi / self.p


def _validate_pq(p: float, q: float) -> None:
    if p == 0 or q == 0:
        raise NotPositiveDefinite("p and q must be nonzero")
    if p == q:
        raise DecoupledSystem("p == q decouples the two species")
    if p * q <= 0:
        raise NotPositiveDefinite(f"p*q must be positive, got p={p}, q={q}")
    if p < 0:
        # p, q < 0 gives the same K, but the filling factor pi/p would be
        # negative; refuse rather than silently reinterpret
        raise UnphysicalCoupling(f"p must be positive, got p={p}")


@dataclass(frozen=True)
class CouplingMatrix:
    k11: float
    k12: float
    k21: float
    k22: float
    det: float
    lambda1: float
    lambda2: float
    lambda0: float

    @property
    def sqrt_det(self) -> float:
        return math.sqrt(self.det)

    @property
    def decay_rate(self) -> float:
        """Rate sqrt(2 min(lambda1, lambda2)) at which the linearized far field u + ln 2 decays."""
        return math.sqrt(2.0 * min(self.lambda1, self.lambda2))


def coupling_from_pq(p: float, q: float) -> CouplingMatrix:
    """Build K from the two coupling constants, with spectral data attached."""
    _validate_pq(p, q)
    k11 = (p + q) / p
    k12 = (p - q) / p
    det = k11 * k11 - k12 * k12  # = 4q/p
    lambda1 = 2.0
    lambda2 = 2.0 * q / p
    return CouplingMatrix(
        k11=k11,
        k12=k12,
        k21=k12,
        k22=k11,
        det=det,
        lambda1=lambda1,
        lambda2=lambda2,
        lambda0=4.0 * min(lambda1, lambda2),
    )


# -- Vortex configurations ----------------------------------------------------

Vortex = tuple[float, float, int]  # (x, y, multiplicity)


def _normalize_vortices(raw) -> tuple[Vortex, ...]:
    out = []
    for entry in raw:
        x, y, m = entry
        m = int(m)
        if m < 1:
            raise ValueError(f"multiplicity must be >= 1, got {m}")
        out.append((float(x), float(y), m))
    return tuple(out)


@dataclass(frozen=True)
class VortexSet:
    """Positions and multiplicities of the two vortex species."""

    up: tuple[Vortex, ...] = ()
    down: tuple[Vortex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "up", _normalize_vortices(self.up))
        object.__setattr__(self, "down", _normalize_vortices(self.down))

    @property
    def n1(self) -> int:
        return sum(m for _, _, m in self.up)

    @property
    def n2(self) -> int:
        return sum(m for _, _, m in self.down)

    def swapped(self) -> "VortexSet":
        return VortexSet(up=self.down, down=self.up)

    def farthest_radius(self) -> float:
        radii = [math.hypot(x, y) for x, y, _ in self.up + self.down]
        return max(radii) if radii else 0.0


def merge_coincident(vortices, tol: float = 1e-12) -> tuple[Vortex, ...]:
    """Merge points closer than tol into one vortex with summed multiplicity."""
    merged: list[list] = []
    for x, y, m in _normalize_vortices(vortices):
        for entry in merged:
            if math.hypot(entry[0] - x, entry[1] - y) <= tol:
                entry[2] += m
                break
        else:
            merged.append([x, y, m])
    return tuple((x, y, m) for x, y, m in merged)


# -- Domains ------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Either a doubly periodic L1 x L2 cell or a [-R, R]^2 truncation square."""

    kind: str  # "torus" | "plane"
    l1: float = 0.0
    l2: float = 0.0
    half_width: float = 0.0

    @staticmethod
    def torus(l1: float, l2: float) -> "DomainSpec":
        if l1 <= 0 or l2 <= 0:
            raise ValueError("cell sides must be positive")
        return DomainSpec(kind="torus", l1=float(l1), l2=float(l2))

    @staticmethod
    def plane(half_width: float) -> "DomainSpec":
        if half_width <= 0:
            raise ValueError("half width must be positive")
        return DomainSpec(kind="plane", half_width=float(half_width))

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    @property
    def area(self) -> float:
        if self.is_torus:
            return self.l1 * self.l2
        return (2.0 * self.half_width) ** 2

    def require_torus(self) -> "DomainSpec":
        if not self.is_torus:
            raise WrongDomainKind("operation requires a doubly periodic domain")
        return self

    def require_plane(self) -> "DomainSpec":
        if self.is_torus:
            raise WrongDomainKind("operation requires a truncated-plane domain")
        return self


def validate_vortex_positions(vortices: VortexSet, domain: DomainSpec) -> None:
    for x, y, _ in vortices.up + vortices.down:
        if domain.is_torus:
            if not (0.0 <= x < domain.l1 and 0.0 <= y < domain.l2):
                raise ValueError(f"vortex ({x}, {y}) outside the fundamental cell")
        else:
            r = domain.half_width
            if not (-r < x < r and -r < y < r):
                raise ValueError(f"vortex ({x}, {y}) outside the truncation square")


# -- Existence threshold (doubly periodic case) --------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    threshold: float
    eta1: float
    eta2: float
    feasible: bool


def check_admissibility(k: CouplingMatrix, n1: int, n2: int, area: float) -> AdmissibilityReport:
    """Existence gate for the periodic cell.

    A solution exists iff both forced exponential masses

        eta1 = |Omega|/2 - (k22*N1 - k12*N2)*pi/det
        eta2 = |Omega|/2 - (k11*N2 - k21*N1)*pi/det

    are positive, i.e. iff the area exceeds the reported threshold.
    """
    if area <= 0:
        raise ValueError("area must be positive")
    if n1 < 0 or n2 < 0:
        raise ValueError("vortex numbers must be nonnegative")
    t1 = (2.0 * math.pi / k.det) * (k.k22 * n1 - k.k12 * n2)
    t2 = (2.0 * math.pi / k.det) * (k.k11 * n2 - k.k21 * n1)
    eta1 = area / 2.0 - (k.k22 * n1 - k.k12 * n2) * math.pi / k.det
    eta2 = area / 2.0 - (k.k11 * n2 - k.k21 * n1) * math.pi / k.det
    return AdmissibilityReport(
        threshold=max(t1, t2, 0.0),
        eta1=eta1,
        eta2=eta2,
        feasible=bool(eta1 > 0.0 and eta2 > 0.0),
    )


# -- Choleski change of variables ----------------------------------------------

def choleski_forward_values(v1: np.ndarray, v2: np.ndarray, k: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(v1, v2) -> (w1, w2) = (v1/sqrt(det), (k11*v2 - k21*v1)/det) on raw arrays."""
    return v1 / k.sqrt_det, (k.k11 * v2 - k.k21 * v1) / k.det


def choleski_inverse_values(w1: np.ndarray, w2: np.ndarray, k: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of choleski_forward_values on raw arrays."""
    sdet = k.sqrt_det
    return sdet * w1, (k.det * w2 + k.k21 * sdet * w1) / k.k11


def choleski_forward(v1: ScalarField, v2: ScalarField, k: CouplingMatrix) -> tuple[ScalarField, ScalarField]:
    """choleski_forward_values on fields, pointwise."""
    grid = require_same_grid(v1, v2)
    w1, w2 = choleski_forward_values(v1.values, v2.values, k)
    return ScalarField(grid, w1), ScalarField(grid, w2)


def choleski_inverse(w1: ScalarField, w2: ScalarField, k: CouplingMatrix) -> tuple[ScalarField, ScalarField]:
    """Inverse of choleski_forward."""
    grid = require_same_grid(w1, w2)
    v1, v2 = choleski_inverse_values(w1.values, w2.values, k)
    return ScalarField(grid, v1), ScalarField(grid, v2)
