"""A metamorphic oracle from dimensional scaling: a change of units moves every rate exactly.

Scale lengths by a, gravity by b and density by c.  Then m and ell go to
a m and a ell, g to b g, rho0 to c rho0, a polytropic K to a b c^(1 - gamma) K,
a tabulated law's (rho, P) samples to (c rho, a b c P), each viscosity
coefficient to a^(3/2) b^(1/2) c^(1 - p) times itself (p its exponent) and
sigma to a^2 b c sigma.  Time goes to sqrt(a / b) t, so

    lambda'(|xi| / a) = sqrt(b / a) lambda(|xi|),  xi_c' = xi_c / a,  L_c' = a L_c.

With the same elements per side, every discrete form scales exactly too
(Chen et al., *ACM Computing Surveys* 51(1), 2018, review metamorphic testing;
Barenblatt, *Scaling, Self-Similarity, and Intermediate Asymptotics*, 1996, the
dimensional analysis), so a relation that fails names an assembly error that
breaks dimensional consistency.  At 64 elements per side the rates agree
within 1.3e-11 relative on every config and scaling here.  The tolerance is
1e-9, below the estimated resolution of the inertia test that decides each
rate (about 2e-9 relative on the default config at 256 elements per side).

A dimensionally consistent error passes every scaling, and density scaling
alone (a = b = 1) cannot see an error in how a form depends on |xi|: the two
mutations below, which every other scaling catches, read about 1e-11 there.
"""

import math

import numpy as np
import pytest

from rtmodes import dispersion
from rtmodes.dispersion import growth_rate, lattice_modes, sweep
from rtmodes.eos import PressureLaw
from rtmodes.mesh import Mesh
from rtmodes.profile import FluidViscosity, SlabGeometry, ViscosityLaw, build_profile

RTOL = 1e-9
ELEMENTS = 64
XI = 1.0
SCALINGS = [(2.0, 3.0, 1.0), (0.37, 5.0, 1.0), (1.0, 1.0, 7.0), (3.0, 0.2, 0.5)]
TABLE_RHO = np.geomspace(0.2, 5.0, 24)
# each fluid: pressure law ("poly", K, gamma) or ("table", rho, P), then the (c, p)
# of its shear and bulk viscosity laws
CONFIGS = {
    "default": dict(sigma=0.1, lower=("poly", 2.0, 1.0), upper=("poly", 1.0, 1.0),
                    eps=(0.1, 0.0), delta=(0.0, 0.0)),
    "gamma-bulk-power": dict(sigma=0.1, lower=("poly", 2.0, 1.4), upper=("poly", 1.0, 1.2),
                             eps=(0.1, 0.5), delta=(0.05, 0.0)),
    "sigma0": dict(sigma=0.0, lower=("poly", 2.0, 1.0), upper=("poly", 1.0, 1.0),
                   eps=(0.1, 0.0), delta=(0.0, 0.0)),
    "tabulated": dict(sigma=0.1, lower=("table", TABLE_RHO, 2.0 * TABLE_RHO**1.4),
                      upper=("poly", 1.0, 1.2), eps=(0.1, 0.0), delta=(0.0, 0.0)),
}


def slab(config, a=1.0, b=1.0, c=1.0):
    """(profile, mesh) of ``config`` in units scaled by (a, b, c)."""
    def law(spec):
        if spec[0] == "table":
            return PressureLaw.tabulated(c * spec[1], a * b * c * spec[2])
        _, K, gamma = spec
        return PressureLaw.polytropic(a * b * c ** (1.0 - gamma) * K, gamma)

    def viscosity(coefficient, p):
        return ViscosityLaw(a**1.5 * b**0.5 * c ** (1.0 - p) * coefficient, p=p)

    fluid = FluidViscosity(eps=viscosity(*config["eps"]), delta=viscosity(*config["delta"]))
    geometry = SlabGeometry(m=a, ell=a, g=b, sigma=a * a * b * c * config["sigma"])
    profile = build_profile(law(config["lower"]), law(config["upper"]), c, geometry, (fluid, fluid))
    return profile, Mesh.uniform(a, a, n_per_side=ELEMENTS, order=2)


def rel(scaled, base, factor):
    """Relative defect of ``scaled = factor * base``."""
    return abs(scaled - factor * base) / abs(factor * base)


def span(profile):
    """The frequency window of a short sweep: (0.02, 0.98) xi_c, or (0.05, 2.5) at sigma = 0."""
    if profile.geometry.sigma > 0:
        return 0.02 * profile.xi_c, 0.98 * profile.xi_c
    return 0.05, 2.5


@pytest.fixture(scope="module")
def base():
    """config name -> (profile, mesh, rate at XI, 6-sample sweep, lattice at 1.5 L_c or None)."""
    out = {}
    for name, config in CONFIGS.items():
        profile, mesh = slab(config)
        lattice = (lattice_modes(profile, mesh, 1.5 * profile.L_c)
                   if profile.geometry.sigma > 0 else None)
        out[name] = (profile, mesh, growth_rate(profile, mesh, XI).lam,
                     sweep(profile, mesh, *span(profile), n=6), lattice)
    return out


@pytest.mark.parametrize("a, b, c", SCALINGS)
@pytest.mark.parametrize("name", CONFIGS)
def test_rates_and_critical_scales_follow_the_units(base, name, a, b, c):
    profile, _, lam, curve, lattice = base[name]
    scaled, mesh = slab(CONFIGS[name], a, b, c)
    assert rel(growth_rate(scaled, mesh, XI / a).lam, lam, math.sqrt(b / a)) <= RTOL
    moved = sweep(scaled, mesh, *(x / a for x in span(profile)), n=6)
    assert rel(moved.Lambda, curve.Lambda, math.sqrt(b / a)) <= RTOL
    assert rel(moved.argmax_xi, curve.argmax_xi, 1.0 / a) <= RTOL
    if lattice is None:         # sigma = 0: no critical frequency, no small-period stability
        assert scaled.xi_c == profile.xi_c == math.inf and scaled.L_c == profile.L_c == 0.0
        return
    assert rel(scaled.xi_c, profile.xi_c, 1.0 / a) <= RTOL
    assert rel(scaled.L_c, profile.L_c, a) <= RTOL
    # below L_c the lattice is certified stable; above it, its fastest rate moves
    assert lattice_modes(scaled, mesh, 0.9 * scaled.L_c).certificate
    moved = lattice_modes(scaled, mesh, 1.5 * scaled.L_c)
    assert not moved.certificate and moved.unstable_count == lattice.unstable_count > 0
    assert rel(moved.Lambda_L, lattice.Lambda_L, math.sqrt(b / a)) <= RTOL


_assemble = dispersion.assemble      # the mutants below wrap the real assembly


def _cubed_tension(profile, mesh, xi):
    """The forms with the surface-tension mass sigma xi^3 / 2 in place of sigma xi^2 / 2."""
    forms = _assemble(profile, mesh, xi)
    forms.E0.data[forms.E0.kd, forms.psi0_dof] += profile.geometry.sigma * (xi**3 - xi**2) / 2.0
    return forms


def _viscous_drift(profile, mesh, xi):
    """The forms with 1e-6 |xi| J added to E1."""
    forms = _assemble(profile, mesh, xi)
    forms.E1.data += 1e-6 * xi * forms.J.data
    return forms


@pytest.mark.parametrize("mutant", [_cubed_tension, _viscous_drift])
def test_a_dimensionally_wrong_form_breaks_the_relation(monkeypatch, mutant):
    # the tension mutant reads 5e-2 to 2e-1, the viscous one 2e-7 to 6e-7, at every
    # scaling that moves lengths or gravity; density scaling alone reads about 1e-11
    monkeypatch.setattr(dispersion, "assemble", mutant)
    profile, mesh = slab(CONFIGS["default"])
    lam = growth_rate(profile, mesh, XI).lam
    for a, b, c in SCALINGS:
        scaled, scaled_mesh = slab(CONFIGS["default"], a, b, c)
        defect = rel(growth_rate(scaled, scaled_mesh, XI / a).lam, lam, math.sqrt(b / a))
        assert (defect > RTOL) == (a != 1 or b != 1), (a, b, c, defect)
