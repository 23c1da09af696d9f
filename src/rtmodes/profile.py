"""Hydrostatic two-fluid steady states on the slab (-m, 0) u (0, ell).

The density profile solves d(P(rho0))/dx3 = -g rho0 with pressure continuity
at the interface x3 = 0, constructed by inverting the enthalpy:
rho0(x3) = h^{-1}(h(rho0_interface) - g x3) on each side.  The profile also
carries the viscosity coefficient fields eps0, delta0, the critical
frequency xi_c = sqrt(g [rho0] / sigma) used by the dispersion analysis and
the critical period scale L_c = sqrt(sigma / (g [rho0])) of the lattices.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .eos import PressureLaw, admissible
from .errors import ConfigurationError, DomainError, RangeError, VacuumError


@dataclass(frozen=True)
class SlabGeometry:
    """Slab depths, gravity and surface tension."""

    m: float
    ell: float
    g: float
    sigma: float = 0.0

    def __post_init__(self):
        if self.m <= 0 or self.ell <= 0:
            raise ConfigurationError("slab depths m, ell must be > 0")
        if self.g <= 0:
            raise ConfigurationError("gravitational acceleration g must be > 0")
        if self.sigma < 0:
            raise ConfigurationError("surface tension sigma must be >= 0")


class ViscosityLaw:
    """Smooth density dependence c * rho**p of a viscosity coefficient.

    p = 0 (the default) is the constant law c, exactly.
    """

    def __init__(self, c, p=0.0):
        self.c, self.p = float(c), float(p)

    def __call__(self, rho):
        out = self.c * np.asarray(rho, dtype=float) ** self.p
        return out if out.ndim else float(out)

    def derivative(self, rho):
        out = self.c * self.p * np.asarray(rho, dtype=float) ** (self.p - 1.0)
        return out if out.ndim else float(out)

    def __repr__(self):
        return f"ViscosityLaw({self.c}, p={self.p})"


@dataclass(frozen=True)
class FluidViscosity:
    """Shear (eps > 0) and bulk (delta >= 0) viscosity laws for one fluid."""

    eps: ViscosityLaw = field(default_factory=lambda: ViscosityLaw(0.1))
    delta: ViscosityLaw = field(default_factory=lambda: ViscosityLaw(0.0))


_FIELDS = ("rho", "rho_prime", "P", "dp", "pr", "pr_prime", "gop",
           "eps", "eps_prime", "delta", "delta_prime")


def by_side(x3, evaluate):
    """Evaluate a piecewise-smooth quantity on each fluid's own domain.

    Runs ``evaluate(x3[mask], side)`` on x3 < 0 with side = -1 (the lower
    fluid; its breaks take derivatives from the element on the left) and on
    x3 >= 0 with side = +1, and stitches the results back in place.
    ``evaluate`` may return trailing axes, which the result keeps.
    """
    x3 = np.asarray(x3, dtype=float)
    upper = x3 >= 0
    parts = [(mask, np.asarray(evaluate(x3[mask], side)))
             for side, mask in ((-1, ~upper), (+1, upper)) if np.any(mask)]
    if not parts:
        return np.asarray(evaluate(x3, +1))
    out = np.empty(x3.shape + parts[0][1].shape[1:], dtype=np.result_type(*(v for _, v in parts)))
    for mask, vals in parts:
        out[mask] = vals
    return out


class SteadyProfile:
    """Hydrostatic steady state with closed-form evaluators.

    ``density`` and ``fields`` take x3 (scalar or array) and an optional
    ``side`` (+1 upper, -1 lower) to disambiguate the interface point x3 = 0.
    Both are compositions of the enthalpy inverse, so any mesh may sample
    them without interpolation error.
    """

    def __init__(self, geometry, lower, upper, rho_minus, rho_plus, viscosity):
        self.geometry = geometry
        self.laws = {-1: lower, +1: upper}
        self.rho_minus = float(rho_minus)
        self.rho_plus = float(rho_plus)
        self.visc = {-1: viscosity[0], +1: viscosity[1]}
        self._h_at_interface = {
            -1: lower.enthalpy(rho_minus),
            +1: upper.enthalpy(rho_plus),
        }
        self.rho_jump = self.rho_plus - self.rho_minus
        g, sigma = geometry.g, geometry.sigma
        self.xi_c = math.sqrt(g * self.rho_jump / sigma) if sigma > 0 else math.inf
        # reference frequency of evolve and verify: min(1, xi_c / 2), 1 when xi_c is infinite
        self.xi_ref = min(1.0, 0.5 * self.xi_c)
        # critical period scale: for L <= L_c every nonzero lattice magnitude 1/L
        # reaches xi_c; a jump rounded to 0 is rejected by build_profile, not here
        self.L_c = (math.sqrt(sigma / (g * self.rho_jump))
                    if sigma > 0 and self.rho_jump > 0 else 0.0)

    # -- fields --------------------------------------------------------

    def _on_sides(self, x3, side, evaluate):
        """``evaluate(x3, side)`` in one pass when ``side`` is given, else once
        per fluid through :func:`by_side` (x3 = 0 then needs a side)."""
        x3 = np.asarray(x3, dtype=float)
        if np.any((x3 < -self.geometry.m) | (x3 > self.geometry.ell)):
            raise DomainError("x3 outside the slab [-m, ell]")
        if side is not None:
            return evaluate(x3, int(side))
        if np.any(x3 == 0.0):
            raise DomainError("x3 = 0 is ambiguous; pass side=+1 or side=-1")
        return by_side(x3, evaluate)

    def density(self, x3, side=None):
        """rho0(x3) = h^{-1}(h(rho_interface) - g x3) on each side."""
        out = self._on_sides(x3, side, lambda x, s: self.laws[s].enthalpy_inverse_vec(
            self._h_at_interface[s] - self.geometry.g * x))
        return out if out.ndim else float(out)

    def _field_columns(self, x3, side):
        """The fields of one fluid at x3, stacked along a trailing axis in _FIELDS order."""
        law, visc, g = self.laws[side], self.visc[side], self.geometry.g
        r = np.asarray(self.density(x3, side))
        dp = np.asarray(law.dpressure(r))
        r_p = -g * r / dp
        return np.stack([
            r, r_p, law.pressure(r), dp, dp * r,
            (np.asarray(law.d2pressure(r)) * r + dp) * r_p, g / dp,
            visc.eps(r), np.asarray(visc.eps.derivative(r)) * r_p,
            visc.delta(r), np.asarray(visc.delta.derivative(r)) * r_p,
        ], axis=-1)

    def fields(self, x3, side=None):
        """Every coefficient field at x3 from one density evaluation.

        The only coefficient evaluator: with ``side`` given it makes one pass,
        otherwise it splits the points once by fluid (x3 < 0 lower, x3 > 0
        upper).  Returns a dict of arrays shaped like x3 (floats for scalar
        x3): ``rho`` = rho0; ``rho_prime`` = -g rho0 / P'(rho0), from the
        hydrostatic ODE; ``P``; ``dp`` = P'(rho0); ``pr`` = P'(rho0) rho0;
        ``pr_prime`` = (P' rho0)' by the chain rule; ``gop`` = g / P'(rho0);
        and ``eps``, ``eps_prime``, ``delta``, ``delta_prime``, the viscosity
        laws at rho0 and their x3-derivatives eps'(rho0) rho0' (no numerical
        differentiation).
        """
        cols = self._on_sides(x3, side, self._field_columns)
        return {name: v if v.ndim else float(v) for name, v in zip(_FIELDS, np.moveaxis(cols, -1, 0))}


def build_profile(lower, upper, rho_minus, geometry, viscosity=None):
    """Construct and validate the hydrostatic profile.

    Parameters
    ----------
    lower, upper : PressureLaw
        Pressure laws of the lower and upper fluids.
    rho_minus : float
        Lower-fluid density at the interface; must be admissible.
    geometry : SlabGeometry
    viscosity : (FluidViscosity, FluidViscosity), optional
        Lower and upper viscosity laws; defaults to constant eps = 0.1,
        delta = 0 on both sides (the analysis fixes no particular values).

    Raises
    ------
    ConfigurationError
        If rho_minus is not admissible (no heavy-over-light interface), or
        rho0, eps0 or delta0 is not finite (or eps0 <= 0, delta0 < 0) in the slab.
    VacuumError
        If m or ell exceed the enthalpy range of the corresponding side.
    """
    if viscosity is None:
        viscosity = (FluidViscosity(), FluidViscosity())
    if rho_minus <= 0:
        raise ConfigurationError("interface density rho_minus must be > 0")
    if not admissible(lower, upper, rho_minus):
        raise ConfigurationError(
            "rho_minus = %g is not admissible: need P_-(rho) > P_+(rho) with "
            "P_-(rho) in the image of P_+" % rho_minus
        )
    rho_plus = upper.pressure_inverse(lower.pressure(rho_minus))

    g = geometry.g
    h_lo, h_hi = lower.enthalpy_range()
    h_m = lower.enthalpy(rho_minus) + g * geometry.m
    if not (h_lo < h_m < h_hi):
        raise VacuumError("lower", "depth m = %g exceeds the lower enthalpy range" % geometry.m)
    h_lo, h_hi = upper.enthalpy_range()
    h_l = upper.enthalpy(rho_plus) - g * geometry.ell
    if not (h_lo < h_l < h_hi):
        raise VacuumError("upper", "depth ell = %g reaches vacuum in the upper fluid" % geometry.ell)

    profile = SteadyProfile(geometry, lower, upper, rho_minus, rho_plus, viscosity)

    p_minus = lower.pressure(rho_minus)
    p_plus = upper.pressure(rho_plus)
    if abs(p_plus - p_minus) > 1e-10 * abs(p_minus):
        raise ConfigurationError(
            "interface pressure mismatch %.3e exceeds tolerance" % abs(p_plus - p_minus)
        )
    if profile.rho_jump <= 0:
        raise ConfigurationError("density jump across the interface must be > 0")
    # rho0 is monotone in x3 on each side and c rho^p in rho: each fluid's
    # extremes sit at its slab end and at the interface
    for side, name, end in ((-1, "lower", -geometry.m), (+1, "upper", geometry.ell)):
        x3 = np.array([end, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            rho = profile.density(x3, side=side)
            eps, delta = profile.visc[side].eps(rho), profile.visc[side].delta(rho)
        for what, value, ok, need in (
                (f"the {name} fluid's density", rho, rho < np.inf, ""),
                (f"viscosity.{name}.eps", eps, (0 < eps) & (eps < np.inf), " and > 0"),
                (f"viscosity.{name}.delta", delta, (0 <= delta) & (delta < np.inf), " and >= 0")):
            if not np.all(ok):
                i = int(np.argmin(ok))
                raise ConfigurationError("%s is %g at x3 = %g: it must be finite%s"
                                         % (what, value[i], x3[i], need))
    return profile


def verify_hydrostatic(profile, n_check=64, h_fd=1e-4):
    """Max residual of d(P(rho0))/dx3 + g rho0 over interior check points.

    Uses centered differences of step ``h_fd``; the residual is O(h_fd^2)
    for smooth pressure laws.
    """
    geom = profile.geometry
    out = 0.0
    for s, a, b in ((-1, -geom.m, 0.0), (+1, 0.0, geom.ell)):
        pad = max(2 * h_fd, 1e-3 * (b - a))
        x = np.linspace(a + pad, b - pad, n_check)
        dP = (profile.fields(x + h_fd, side=s)["P"] - profile.fields(x - h_fd, side=s)["P"]) / (2 * h_fd)
        resid = np.abs(dP + geom.g * profile.density(x, side=s))
        out = max(out, float(np.max(resid)))
    return out
