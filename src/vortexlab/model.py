"""Problem data: couplings, vortex configurations, admissibility.

The domain is not restated here: a ``discretization.Grid2D`` is either the
torus cell or the truncation square of the plane.

Everything here is dimensionless.  The two coupling constants (p, q) enter
only through the symmetric 2x2 matrix

    K = (1/p) [[p+q, p-q], [p-q, p+q]],

whose eigenvalues are lambda1 = 2 along (1, 1) and lambda2 = 2q/p along
(1, -1).  The slowest decay constant of the far field is
lambda0 = 4*min(2, 2q/p).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .discretization import Grid2D
from .errors import DecoupledSystem, NotPositiveDefinite, UnphysicalCoupling


@dataclass(frozen=True)
class PhysicalParams:
    """Couplings plus the mean electron density; eB follows from nu = pi/p."""

    p: float
    q: float
    average_density: float = 1.0

    def __post_init__(self):
        CouplingMatrix(self.p, self.q)  # refuses the couplings K refuses, with its messages
        if not 0 < self.average_density < math.inf:  # written so that NaN fails
            raise ValueError("average_density must be positive and finite")
        # 2(p + q) rho bounds eB = 2 p rho and the B12 coefficients 2(p +- q) rho, as p, q > 0
        rho = self.average_density
        if not 2.0 * (self.p + self.q) * rho < math.inf:
            raise ValueError(f"average_density {rho} makes eB or the B12 coefficients overflow")

    @property
    def eb(self) -> float:
        """External field times charge: eB = 2*pi*rho/nu with nu = pi/p."""
        return 2.0 * self.p * self.average_density

    @property
    def filling_factor(self) -> float:
        return math.pi / self.p


@dataclass(frozen=True)
class CouplingMatrix:
    p: float
    q: float

    def __post_init__(self):
        p, q = self.p, self.q
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError(f"p and q must be finite, got p={p}, q={q}")
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
        if not all(math.isfinite(x) for x in (self.k11, self.k12, self.det)):  # q/p so large that K overflows
            raise ValueError(f"p={p}, q={q} give a coupling matrix K that is not finite")

    @property
    def k11(self) -> float:
        return (self.p + self.q) / self.p

    @property
    def k12(self) -> float:
        return (self.p - self.q) / self.p

    k21 = k12  # K is symmetric
    k22 = k11
    lambda1 = 2.0  # the eigenvalue along (1, 1)

    @property
    def det(self) -> float:
        return self.k11 * self.k11 - self.k12 * self.k12  # = 4q/p

    @property
    def lambda2(self) -> float:  # the eigenvalue along (1, -1)
        return 2.0 * self.q / self.p

    @property
    def eigen_scales(self) -> tuple[float, float]:
        """(alpha, beta) = sqrt(det*lambda_i/(2 k11)), the scales of the eigenbasis map."""
        return tuple(math.sqrt(self.det * lam / (2.0 * self.k11)) for lam in (self.lambda1, self.lambda2))

    @property
    def lambda0(self) -> float:
        """4 min(lambda1, lambda2), the slowest decay constant of the far field."""
        return 4.0 * min(self.lambda1, self.lambda2)

    @property
    def decay_rate(self) -> float:
        """Rate sqrt(2 min(lambda1, lambda2)) at which the linearized far field u + ln 2 decays."""
        return math.sqrt(2.0 * min(self.lambda1, self.lambda2))


def coupling_from_pq(p: float, q: float) -> CouplingMatrix:
    """Build K from the two coupling constants, with spectral data attached."""
    return CouplingMatrix(p, q)


# -- Vortex configurations ----------------------------------------------------

Vortex = tuple[float, float, int]  # (x, y, multiplicity)


def _normalize_vortices(raw) -> tuple[Vortex, ...]:
    out = []
    for entry in raw:
        x, y, m = entry
        if isinstance(m, bool) or not isinstance(m, numbers.Integral):
            raise ValueError(f"multiplicity must be an integer, got {m!r}")
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


def validate_vortex_positions(vortices: VortexSet, grid: Grid2D) -> None:
    for x, y, _ in vortices.up + vortices.down:
        if grid.is_torus:
            if not (0.0 <= x < grid.l1 and 0.0 <= y < grid.l2):
                raise ValueError(f"vortex ({x}, {y}) outside the fundamental cell")
        else:
            r = grid.half_width
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
    if not 0 < area < math.inf:  # written so that NaN fails
        raise ValueError("area must be positive and finite")
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


# -- Eigenbasis change of variables ---------------------------------------------
# v = M w, M = [[alpha, beta], [alpha, -beta]] along K's eigenvectors (1, 1) and
# (1, -1), M M^T = (det/k11) K.  Exchanging v1 and v2 keeps w1 and negates w2.

def eigen_forward_values(v1, v2, k: CouplingMatrix):
    """(v1, v2) -> (w1, w2) = ((v1 + v2)/(2 alpha), (v1 - v2)/(2 beta)) on raw arrays or scalars."""
    alpha, beta = k.eigen_scales
    return (v1 + v2) / (2.0 * alpha), (v1 - v2) / (2.0 * beta)


def eigen_inverse_values(w1, w2, k: CouplingMatrix):
    """(w1, w2) -> (v1, v2) = (alpha w1 + beta w2, alpha w1 - beta w2) on raw arrays or scalars."""
    alpha, beta = k.eigen_scales
    a = alpha * w1
    b = beta * w2
    return a + b, a - b
