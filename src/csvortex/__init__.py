"""Multiple-vortex solutions of bi-level Chern-Simons-Higgs master equations.

Topological solutions on the truncated plane for any species count, and the
two constrained solutions on a doubly periodic cell for a single species,
with independent verification of flux quantization, exponential decay,
maximum-principle bounds, the feasibility condition, and the large-coupling
limit.
"""

from .background import (
    BackgroundPlane,
    BackgroundTorus,
    VortexSet,
    plane_background,
    torus_background,
    vortex_node_mask,
)
from .diagnostics import (
    BoundCheck,
    DecayFit,
    QuantizedIntegral,
    SolveReport,
    decay_fit,
    max_principle_check,
    quantized_integrals_plane,
    quantized_integrals_torus,
)
from .errors import (
    AdmissibilityError,
    BoundaryTrappingError,
    ConfigError,
    CsvortexError,
    DiagnosticFailure,
    DomainError,
    InfeasibleError,
    MountainPassCollapseError,
    NonConvergenceError,
    NonFiniteFieldError,
)
from .fields import (
    GridDomain,
    ScalarField,
    read_field,
    write_csv,
    write_field,
)
from .model import ModelParams
from .plane import (
    PlaneSolveOpts,
    PlaneState,
    solve_plane,
)
from .torus import (
    Feasibility,
    TorusSolveOpts,
    TorusState,
    feasibility,
    gamma,
    minimize_torus,
    mountain_pass,
    reduced_energy_J,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
