"""Growth rates per frequency: where the modified family stops being negative.

For each frequency magnitude mu(s) is strictly increasing, so the fixed
point s = sqrt(-mu(s)) is unique and is the growth rate of a true growing
mode.  mu(s) < -s^2 holds exactly when Q(s) = E0 + s E1 + s^2 J is not
positive definite, so the rate is the point where a banded Cholesky
factorization of Q(s) starts to succeed, with no eigensolver inside the
loop.  The bracket starts cold at [1e-8, 2 sqrt(g |xi|)]; the upper end is
always definite because E0 + g |xi| J >= 0 holds exactly at the matrix
level.  Inverse iteration with the factor at the upper end gives a vector x,
and the positive root p(x) of the scalar quadratic x^T Q(s) x = 0 (the
Rayleigh functional) raises the lower end with no factorization: Q(p(x))
cannot be definite.  :func:`eigen._refine` stops at a relative width of
about 1e-11 and returns the definite end as the rate.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eigen import _factor, _refine
from .errors import ConfigurationError, DomainError, SolverError
from .forms import assemble
from .residuals import jump_residuals, strong_form_residual

_S_LO = 1e-8


@dataclass
class Stable:
    """Marker result: no growing mode at this frequency magnitude."""

    xi: float
    reason: str
    factorizations: int = 0


@dataclass
class ModeSolution:
    """A growing normal mode in the reduced frame xi = (|xi|, 0).

    phi, psi are nodal profiles of the J-normalized minimizer; theta
    vanishes identically in this frame and is reintroduced by rotation in
    the synthesis stage.  A solution keeps its data, not its pencil: the
    residual diagnostics are computed from ``profile`` and ``mesh`` each
    time they are read, and ``forms`` re-assembles the pencil of the solve
    on each access.
    """

    xi: np.ndarray                # 2D frequency vector, reduced frame
    lam: float
    phi: np.ndarray
    psi: np.ndarray
    psi0: float
    fixed_point_residual: float
    bracket: tuple                # certified (lo, hi) around lambda; lam = hi factors
    factorizations: int           # banded Cholesky factorizations of Q(s)
    minimizer: np.ndarray = field(repr=False)
    profile: object = field(repr=False)
    mesh: object = field(repr=False)

    @property
    def xi_mag(self):
        return float(np.hypot(self.xi[0], self.xi[1]))

    @property
    def forms(self):
        """The pencil of the solve, re-assembled from the per-mesh cache on each access.

        Each read returns a new FormSet, bit-identical to the one solved;
        the solution caches none, so hold the result while it is needed.
        """
        return assemble(self.profile, self.mesh, self.xi_mag)

    @property
    def ode_residual(self):
        """Strong-form defect of (phi, psi); nan on order-1 meshes (no pointwise second derivative)."""
        if self.mesh.order < 2:
            return math.nan
        return strong_form_residual(self.profile, self.mesh, self.phi, self.psi,
                                    self.xi_mag, self.lam, -self.lam**2)

    @property
    def jump_residuals(self):
        """Defects of the four interface conditions; see :func:`residuals.jump_residuals`."""
        return jump_residuals(self.profile, self.mesh, self.phi, self.psi,
                              self.xi_mag, self.lam)


def _rayleigh_functional(forms, x):
    """Positive root p(x) of x^T Q(s) x = 0 for a J-normalized x.

    Q(p(x)) is not positive definite, so p(x) <= lambda for every x.  When
    x^T E0 x >= 0 there is no positive root and the value returned is <= 0,
    below every lower end the refinement holds (E1 is definite, so b > 0).
    """
    c = float(x @ (forms.E0 @ x))
    b = float(x @ (forms.E1 @ x))
    return -2.0 * c / (b + math.sqrt(max(b * b - 4.0 * c, 0.0)))


def growth_rate(profile, mesh, xi_mag):
    """Solve for the growing mode at one frequency, or certify stability.

    Returns a :class:`ModeSolution` with lambda the fixed point s = sqrt(-mu(s)),
    or :class:`Stable` when sigma > 0 and xi >= xi_c (no growing mode
    exists) or when Q(s) is already positive definite at vanishing s; the
    latter warns, since it means a rate below 1e-8 or a mesh too coarse.
    """
    if xi_mag <= 0:
        raise DomainError("frequency magnitude must be > 0")
    sigma = profile.geometry.sigma
    if sigma > 0 and xi_mag >= profile.xi_c:
        return Stable(xi_mag, "sigma |xi|^2 >= g [rho0]: surface tension closes the window")

    forms = assemble(profile, mesh, xi_mag)
    E0b, E1b, Jb = forms._bands
    band_at = lambda s: E0b + s * E1b + s**2 * Jb

    if _factor(band_at(_S_LO)) is not None:
        warnings.warn(
            "Q(%g) is positive definite at xi = %g: either the growth rate is below %g "
            "or the mesh is too coarse to resolve the mode" % (_S_LO, xi_mag, _S_LO),
            RuntimeWarning,
        )
        return Stable(xi_mag, "modified energy nonnegative as s -> 0", factorizations=1)

    s_hi = 2.0 * math.sqrt(forms.g * xi_mag)
    factor = _factor(band_at(s_hi))
    if factor is None:
        raise SolverError("Q(s) is not definite at s = 2 sqrt(g |xi|)", {"xi": xi_mag})
    lam, s_lo, x, count = _refine(
        forms, band_at, s_hi, factor, _S_LO,
        lambda x: _rayleigh_functional(forms, x), np.ones(forms.n))
    mu = float(x @ (forms.E0 @ x)) + lam * float(x @ (forms.E1 @ x))
    phi, psi = forms.to_nodal(x)
    return ModeSolution(
        xi=np.array([xi_mag, 0.0]),
        lam=lam,
        phi=phi,
        psi=psi,
        psi0=forms.psi_trace(x),
        fixed_point_residual=abs(lam - math.sqrt(max(-mu, 0.0))),
        bracket=(s_lo, lam),
        factorizations=count + 2,
        minimizer=x,
        profile=profile,
        mesh=mesh,
    )


@dataclass
class DispersionCurve:
    """Sampled dispersion relation lambda(|xi|) with its maximum."""

    xi: np.ndarray
    lam: np.ndarray
    psi0: np.ndarray
    residual: np.ndarray
    Lambda: float
    argmax_xi: float
    fit_correction: float      # Lambda minus the best sampled rate
    factorizations: int        # banded Cholesky factorizations over every solved rate
    bracket_rel_max: float     # widest certified rate bracket, relative to its rate
    stable_count: int          # samples found Stable, recorded as 0.0 rows
    argmax_mode: ModeSolution | None = field(repr=False, default=None)

    @property
    def endpoint_rates(self):
        return float(self.lam[0]), float(self.lam[-1])


def _cost(r):
    """(factorizations, relative bracket width) of one growth_rate result; width 0 if Stable."""
    if isinstance(r, Stable):
        return r.factorizations, 0.0
    return r.factorizations, 1.0 - r.bracket[0] / r.bracket[1]


def sweep(profile, mesh, xi_min, xi_max, n=48):
    """Log-spaced dispersion sweep over [xi_min, xi_max].

    Records the sampled maximum Lambda with a quadratic-fit refinement
    around the argmax (the refined frequency is solved, never
    extrapolated), and the endpoint rates for the zero-limit check.
    """
    if not (0 < xi_min < xi_max):
        raise ConfigurationError("need 0 < xi_min < xi_max")
    if n < 1:
        raise ConfigurationError("a sweep needs n >= 1 samples")
    sigma = profile.geometry.sigma
    if sigma > 0 and xi_max > profile.xi_c:
        raise ConfigurationError(
            "xi_max exceeds the critical frequency %.6g" % profile.xi_c
        )
    mags = np.geomspace(xi_min, xi_max, n)
    rows = []
    solved = []                 # (factorizations, relative bracket width) per solve
    argmax_mode = None
    stable_count = 0
    for m in mags:
        r = growth_rate(profile, mesh, float(m))
        solved.append(_cost(r))
        if isinstance(r, Stable):
            rows.append((m, 0.0, 0.0, 0.0))
            stable_count += 1
            continue
        rows.append((m, r.lam, r.psi0, r.fixed_point_residual))
        if argmax_mode is None or r.lam > argmax_mode.lam:
            argmax_mode = r
    arr = np.array(rows)
    xi_s, lam_s = arr[:, 0], arr[:, 1]
    k = int(np.argmax(lam_s))
    Lambda = float(lam_s[k])
    argmax_xi = float(xi_s[k])
    fit_correction = 0.0

    if n >= 3 and 0 < k < n - 1:
        x3 = xi_s[k - 1 : k + 2]
        y3 = lam_s[k - 1 : k + 2]
        denom = (x3[0] - x3[1]) * (x3[0] - x3[2]) * (x3[1] - x3[2])
        if denom != 0:
            a = (x3[2] * (y3[1] - y3[0]) + x3[1] * (y3[0] - y3[2]) + x3[0] * (y3[2] - y3[1])) / denom
            b = (x3[2] ** 2 * (y3[0] - y3[1]) + x3[1] ** 2 * (y3[2] - y3[0]) + x3[0] ** 2 * (y3[1] - y3[2])) / denom
            if a < 0:
                xv = -b / (2 * a)
                if x3[0] < xv < x3[2]:
                    r = growth_rate(profile, mesh, float(xv))
                    solved.append(_cost(r))
                    if not isinstance(r, Stable) and r.lam > Lambda:
                        fit_correction = r.lam - Lambda
                        Lambda, argmax_xi, argmax_mode = r.lam, float(xv), r

    return DispersionCurve(
        xi=xi_s, lam=lam_s, psi0=arr[:, 2], residual=arr[:, 3],
        Lambda=Lambda, argmax_xi=argmax_xi, fit_correction=fit_correction,
        factorizations=sum(c for c, _ in solved),
        bracket_rel_max=max(w for _, w in solved),
        stable_count=stable_count,
        argmax_mode=argmax_mode,
    )


@dataclass
class LatticeResult:
    """Rates on the frequency lattice (1/L) Z^2, or a stability certificate."""

    L: float
    points: np.ndarray          # columns k1, k2, |xi|, lambda
    magnitudes: np.ndarray
    rates: np.ndarray
    Lambda_L: float
    certificate: bool           # True: empty unstable set (small-L stability)
    modes: dict = field(repr=False, default_factory=dict)

    @property
    def unstable_count(self):
        return int(np.sum(self.points[:, 3] > 0)) if self.points.size else 0


def lattice_modes(profile, mesh, L, xi_max=None):
    """Enumerate unstable lattice frequencies and their rates.

    Rates depend on |xi| only, so lattice points are grouped by magnitude
    and each magnitude is solved once.  For sigma > 0 the enumeration is
    capped by xi_c; for sigma = 0 a finite cap ``xi_max`` must be supplied,
    and a cap that admits no lattice point is an error, not a certificate.
    When sigma > 0 and L <= L_c = sqrt(sigma / (g [rho0])) the unstable set is
    empty and a stability certificate is returned.
    """
    if L <= 0:
        raise ConfigurationError("period scale L must be > 0")
    sigma = profile.geometry.sigma
    if sigma > 0:
        # the small-period dichotomy is on L itself: at or below L_c
        # the smallest nonzero magnitude 1/L already reaches xi_c, so the cap
        # admits no lattice point and the certificate below is returned
        cap = profile.xi_c if L > profile.L_c else 0.0
    else:
        if xi_max is None:
            raise ConfigurationError("sigma = 0 leaves the lattice unbounded; pass xi_max")
        cap = float(xi_max)

    kmax = int(math.floor(cap * L)) + 1
    pts = []
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if k1 == 0 and k2 == 0:
                continue
            mag = math.hypot(k1, k2) / L
            if mag < cap:
                pts.append((k1, k2, mag))

    if not pts:
        if sigma == 0:
            raise ConfigurationError(
                "xi_max = %g admits no lattice frequency: the smallest lattice "
                "magnitude is 1/L = %g" % (cap, 1.0 / L))
        return LatticeResult(
            L=L, points=np.zeros((0, 4)), magnitudes=np.zeros(0), rates=np.zeros(0),
            Lambda_L=0.0, certificate=True,
        )

    mags = sorted({round(p[2], 12) for p in pts})
    rate_of = {}
    modes = {}
    for m in mags:
        r = growth_rate(profile, mesh, float(m))
        if isinstance(r, Stable):
            rate_of[m] = 0.0
        else:
            rate_of[m] = r.lam
            modes[m] = r
    rows = [(k1, k2, mag, rate_of[round(mag, 12)]) for k1, k2, mag in pts]
    rows.sort(key=lambda t: (t[2], t[0], t[1]))
    points = np.array(rows)
    rates = np.array([rate_of[m] for m in mags])
    return LatticeResult(
        L=L, points=points, magnitudes=np.array(mags), rates=rates,
        Lambda_L=float(rates.max()), certificate=False, modes=modes,
    )
