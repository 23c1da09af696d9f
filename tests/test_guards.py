"""Library entry guards, the lines that are not guards, and the fault detectors that input reaches.

Each public entry point that refuses an argument is called once with a bad
one and must raise its typed error; the configuration refuses these values
first on the CLI path, so only a library call reaches them.
"""

import numpy as np
import pytest

import rtmodes as rt
from rtmodes import _kernels
from rtmodes.errors import ConfigurationError, DomainError, RangeError, SolverError
from rtmodes.profile import by_side
from rtmodes.residuals import ode_second_derivatives, strong_form_residual


@pytest.fixture(scope="module")
def case(profile):
    """A small mesh, a growing mode on it, a periodic field and a short trajectory."""
    mesh = rt.Mesh.uniform(1.0, 1.0, 8)
    mode = rt.growth_rate(profile, mesh, 1.0)
    traj = rt.integrate(mode.forms, *rt.mode_initial_data(mode), 0.1, 0.3)
    return {"profile": profile, "mesh": mesh, "mode": mode, "traj": traj,
            "field": rt.PeriodicField(profile, mesh, 1.0)}


def _eval_at_half(c, values, deriv=0):
    return c["mesh"].eval_nodal(values, 0.5, deriv=deriv)


def _bootstrap(c, s):
    x = np.array([0.3, 0.6])
    m = c["mode"]
    return ode_second_derivatives(c["profile"].fields(x), 1.0, c["mesh"], m.phi, m.psi, 1.0, s,
                                  -m.lam**2, x)


def _residual(c, mesh, s):
    m = rt.growth_rate(c["profile"], mesh, 1.0)
    return strong_form_residual(c["profile"], mesh, m.phi, m.psi, 1.0, s, -m.lam**2)


def _build_at(c, rho_minus):
    lower, upper = c["profile"].laws[-1], c["profile"].laws[+1]
    return rt.build_profile(lower, upper, rho_minus, c["profile"].geometry)


GUARDS = {
    "dpbtrf of a vector": (lambda c: _kernels.dpbtrf(np.ones(3)), ValueError,
                           "dpbtrf needs a band"),
    "lattice at L = 0": (lambda c: rt.lattice_modes(c["profile"], c["mesh"], 0.0),
                         ConfigurationError, "period scale L must be > 0"),
    "polytropic pressure 0": (lambda c: rt.PressureLaw.polytropic(1.0, 1.0).pressure_inverse(0.0),
                              RangeError, "pressure must be > 0"),
    "interface density 0": (lambda c: _build_at(c, 0.0), DomainError,
                            "interface density must be > 0"),
    "energy quadrature": (lambda c: rt.energy_identity_check(c["traj"], "simpson"), DomainError,
                          "quadrature must be"),
    "slab depth 0": (lambda c: rt.Mesh.uniform(0.0, 1.0, 8), ConfigurationError,
                     "slab depths must be > 0"),
    "no elements": (lambda c: rt.Mesh.uniform(1.0, 1.0, 0), ConfigurationError,
                    "n_per_side must be >= 1"),
    "-1 elements": (lambda c: rt.Mesh.uniform(1.0, 1.0, -1), ConfigurationError,
                    "n_per_side must be >= 1"),
    "zero half-width": (lambda c: rt.Mesh.uniform(1.5e-323, 1.0, 2), ConfigurationError,
                        "too thin for 2 elements per side"),
    "element order 3": (lambda c: rt.Mesh.uniform(1.0, 1.0, 8, order=3), ConfigurationError,
                        "element order must be 1 or 2"),
    "point outside the slab": (lambda c: c["mesh"].locate(1.5), DomainError,
                               "outside the slab"),
    "nodal array length": (lambda c: _eval_at_half(c, np.zeros(3)), DomainError,
                           "wrong length"),
    "third derivative": (lambda c: _eval_at_half(c, np.zeros(c["mesh"].n_nodes), deriv=3),
                         DomainError, "deriv must be 0, 1, or 2"),
    "bootstrap at s = 0": (lambda c: _bootstrap(c, 0.0), DomainError,
                           "positive family parameter"),
    "residual on order 1": (lambda c: _residual(c, rt.Mesh.uniform(1.0, 1.0, 8, order=1), 1.0),
                            DomainError, "order >= 2 elements"),
    "residual at s = 0": (lambda c: _residual(c, c["mesh"], 0.0), DomainError,
                          "positive family parameter"),
    "points in 2D": (lambda c: c["field"].eta(np.zeros((4, 2))), DomainError,
                     "trailing dimension of 3"),
    "norm of w": (lambda c: c["field"].sobolev_norm("w"), DomainError,
                  "which must be eta, v, or q"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_library_guard_raises_its_typed_error(case, name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=message):
        call(case)


def test_second_derivative_on_order_one_mesh_is_zero():
    mesh = rt.Mesh.uniform(1.0, 1.0, 4, order=1)
    x = np.array([-0.3, 0.0, 0.6])
    out = mesh.eval_nodal(mesh.nodes**2, x, deriv=2)
    assert out.shape == x.shape and np.all(out == 0.0)


def test_by_side_of_no_points_keeps_trailing_axes():
    seen = []

    def evaluate(x3, side):
        seen.append(side)
        return np.stack([x3, x3], axis=-1)

    out = by_side(np.empty(0), evaluate)
    assert out.shape == (0, 2) and seen == [+1]


def test_zero_data_stays_zero_under_the_envelope(case):
    traj = rt.integrate(case["mode"].forms, np.zeros(case["mode"].forms.n),
                        np.zeros(case["mode"].forms.n), 0.1, 0.3)
    assert rt.generic_growth_envelope(traj, case["mode"].lam) == (True, 0.0)


# -- fault detectors: each stops a run whose numbers could not be trusted --------


def test_overflowing_trajectory_is_a_solver_error(case):
    # the energies of data this large overflow at the first step; numpy's
    # overflow warning is silenced so that the detector, not the warning, ends the run
    u0, v0 = rt.mode_initial_data(case["mode"])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError, match="trajectory blew up"):
        rt.integrate(case["mode"].forms, 1e200 * u0, 1e200 * v0, 0.1, 0.3)


# a table whose pressure rises from 1 to 2 while rho rises by `width`: P' is so large that
# one ulp of rho moves h and P past the inversion and interface tolerances
def _steep_table(width):
    return rt.PressureLaw.tabulated(1.0 + width * np.linspace(0.0, 1.0, 6),
                                    np.linspace(1.0, 2.0, 6))


def test_steep_table_enthalpy_inversion_misses_its_tolerance():
    law = _steep_table(1e-5)
    h = np.linspace(*law.enthalpy_range(), 2003)[1:-1]
    with pytest.raises(RangeError, match="failed to meet tolerance"):
        law.enthalpy_inverse_vec(h)


def test_steep_table_interface_pressures_do_not_match():
    rho_minus = 1.0 + 1e-9
    lower = rt.PressureLaw.polytropic(1.7 / rho_minus, 1.0)
    geometry = rt.SlabGeometry(m=1.0, ell=1e-3, g=1e-3, sigma=0.1)
    with pytest.raises(ConfigurationError, match="interface pressure mismatch"):
        rt.build_profile(lower, _steep_table(1e-8), rho_minus, geometry)
