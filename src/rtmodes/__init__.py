"""Linear Rayleigh-Taylor growth rates for viscous compressible slabs.

The pipeline: barotropic pressure laws -> hydrostatic two-fluid profile ->
per-frequency quadratic forms (E0, E1, J) -> constrained minimum mu(s) ->
monotone fixed point s = lambda(|xi|, s) -> dispersion curve and its maximum
Lambda -> 3D growing solutions (periodic lattice pairs or Fourier synthesis)
-> energy-based growth and stability verification.
"""

__version__ = "0.1.0"

from .eos import PressureLaw, admissible
from .errors import (
    ConfigurationError,
    DomainError,
    LayoutError,
    RangeError,
    SolverError,
    VacuumError,
)
from .profile import (
    FluidViscosity,
    SlabGeometry,
    SteadyProfile,
    ViscosityLaw,
    build_profile,
    verify_hydrostatic,
)
from .mesh import Mesh
from .forms import FormSet, assemble
from .eigen import EigenResult, bottom_eig, c2_diagnostic, smallest_eig
from .dispersion import (
    DispersionCurve,
    LatticeResult,
    ModeSolution,
    Stable,
    growth_rate,
    lattice_modes,
    sweep,
)
from .synthesis import (
    BumpProfile,
    NonperiodicField,
    NormalMode3D,
    PeriodicField,
    extend_to_plane,
)
from .evolution import (
    ModeTrajectory,
    PeriodicStabilityReport,
    energy_identity_check,
    generic_growth_envelope,
    growth_bound_check,
    integrate,
    mode_initial_data,
    pencil_consistency,
    periodic_stability_check,
    spectral_k_constants,
)
from .config import RunConfig, load_config
