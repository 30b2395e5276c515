"""vortexlab: multivortex solutions of the coupled double-layer vortex equations.

Solves Delta u_i = 4(k_i1 e^{u1} + k_i2 e^{u2} - 1) + 4 pi sum_j delta_{p_j}
on a doubly periodic cell or a truncated plane by convex minimization, and
verifies the existence threshold, uniqueness, exponential decay and flux
quantization as machine-checkable diagnostics.
"""

from .background import (
    BackgroundData,
    TorusGreenEvaluator,
    build_background,
    default_mu,
    plane_background,
    torus_background,
    torus_green,
)
from .diagnostics import (
    DecayFit,
    DiagnosticsReport,
    build_report,
    decay_fit,
    energy_report,
    eta_report,
    field_maps,
    flux_report,
    residual_norm,
)
from .discretization import Grid2D, GridKind, ScalarField
from .model import (
    AdmissibilityReport,
    CouplingMatrix,
    PhysicalParams,
    VortexSet,
    check_admissibility,
    coupling_from_pq,
    merge_coincident,
)
from .solver import (
    SolveConfig,
    Solution,
    State,
    default_plane_half_width,
    functional_gradient,
    functional_value,
    hessian_matvec,
    newton_solve,
    radial_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
