"""Linear Rayleigh-Taylor growth rates for viscous compressible slabs.

The pipeline: barotropic pressure laws -> hydrostatic two-fluid profile ->
per-frequency quadratic forms (E0, E1, J) -> constrained minimum mu(s) ->
monotone fixed point s = lambda(|xi|, s) -> dispersion curve and its maximum
Lambda -> 3D growing solutions (periodic lattice pairs or Fourier synthesis)
-> energy-based growth and stability verification.

Importing the package runs the modules up to the dispersion sweep and the
configuration.  ``synthesis`` and ``evolution`` are entered in
``sys.modules`` unexecuted: their code runs when an attribute of either is
first read, and the package resolves their exports on first access through
its module ``__getattr__`` (PEP 562).  A process that never touches them,
such as ``rtmodes dispersion``, never compiles them.
"""

__version__ = "0.1.0"

import importlib.util
import sys

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
from .config import RunConfig, load_config


def _deferred(name):
    """``rtmodes.<name>``, entered in sys.modules; its code runs on the first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


synthesis = _deferred("synthesis")
evolution = _deferred("evolution")
_DEFERRED = dict.fromkeys(("BumpProfile", "NonperiodicField", "PeriodicField"), synthesis) | dict.fromkeys(
    ("ModeTrajectory", "PeriodicStabilityReport", "energy_identity_check",
     "generic_growth_envelope", "growth_bound_check", "integrate", "mode_initial_data",
     "pencil_consistency", "periodic_stability_check", "spectral_k_constants"),
    evolution,
)


def __getattr__(name):
    """An export of ``synthesis`` or ``evolution``, read from its module (which runs it once)."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_DEFERRED[name], name)


def __dir__():
    return sorted([*globals(), *_DEFERRED])
