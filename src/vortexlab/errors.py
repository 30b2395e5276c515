"""Exception hierarchy shared by all vortexlab modules."""


class VortexLabError(Exception):
    """Base class for all errors raised by this package."""


class DecoupledSystem(VortexLabError):
    """p == q removes the inter-species coupling; the solver does not handle it."""


class NotPositiveDefinite(VortexLabError):
    """p*q <= 0 makes the coupling matrix indefinite."""


class UnphysicalCoupling(VortexLabError):
    """p <= 0 contradicts the positive filling factor pi/p."""


class NonPositiveMu(VortexLabError):
    """The background regularization scale mu must be > 0."""


class WrongDomainKind(VortexLabError):
    """Operation requested on a torus where a plane is required, or vice versa."""


class NonPositiveShift(VortexLabError):
    """Preconditioner shift must be > 0."""


class InfeasibleDomain(VortexLabError):
    """Cell area below the existence threshold; no solution exists."""


class ExponentOverflow(VortexLabError):
    """An exponential argument exceeded 700: the iterate has diverged."""


class MaxIterationsExceeded(VortexLabError):
    """Newton loop hit its iteration budget before reaching tolerance."""


class LineSearchStalled(VortexLabError):
    """Backtracking reduced the step below 1e-14 without sufficient decrease."""


class SolverError(VortexLabError):
    """The solver raised a bare ValueError on a config that passed validation."""


class ConvergenceFailure(VortexLabError):
    """An iteration broke down: the 1D radial solver did not converge, or CG
    met nonpositive curvature in the Newton Hessian."""


class InsufficientDecayWindow(VortexLabError):
    """Fields have not decayed enough at half the box radius to fit a rate."""


class NotRadiallyReducible(VortexLabError):
    """Vortices are not coincident at the origin; no radial reduction exists."""


class ConfigError(VortexLabError):
    """Malformed or inconsistent run configuration."""
