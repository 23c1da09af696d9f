"""Growth rates per frequency: where the modified family stops being negative.

For each frequency magnitude mu(s) is strictly increasing, so the fixed
point s = sqrt(-mu(s)) is unique and is the growth rate of a true growing
mode.  mu(s) < -s^2 holds exactly when Q(s) = E0 + s E1 + s^2 J is not
positive definite, so the rate is the point where :mod:`eigen`'s banded
Cholesky factorization of Q(s) (:func:`_q_factor`) starts to succeed, with
no eigensolver inside the loop.  A single rate starts cold at [1e-8,
2 sqrt(g |xi|)]; the upper end is always definite because E0 + g |xi| J >= 0
holds exactly at the matrix level.  Inverse iteration with the factor at the
upper end gives a vector x, and the positive root p(x) of the scalar
quadratic x^T Q(s) x = 0 (the Rayleigh functional) raises the lower end with
no factorization: Q(p(x)) cannot be definite.  :func:`eigen._refine` stops
at a relative width of about 1e-11 and returns the definite end as the rate.

Sweeps, lattices and the radial nodes of a synthesized field solve ascending
magnitudes by continuation (Allgower & Georg 1990): each rate starts warm
from the last ones (:func:`_rates_along`), its lower end p(x) of the last
minimizer and its first trial just above an interpolated guess.  Every end
of a warm bracket is certified as a cold one is, so the rates agree with
cold solves to the resolution of the inertia test, with about 40% fewer
factorizations.  No result here counts them: :mod:`eigen` counts every
factorization where it is made.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eigen import _band, _factor, _normalize, _refine
from .errors import ConfigurationError, DomainError, SolverError, storable
from .forms import assemble
from .residuals import jump_residuals, strong_form_residual

_S_LO = 1e-8
_WARM_STEP = 1e-3     # a warm start's first trial sits this fraction above its guess


@dataclass
class Stable:
    """Marker result: no growing mode at this frequency magnitude."""

    xi: float
    reason: str
    bracket_rel = 0.0           # no bracket: no rate was refined


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

    xi_mag: float                 # |xi|; the reduced-frame frequency is (xi_mag, 0)
    lam: float
    phi: np.ndarray
    psi: np.ndarray
    psi0: float
    fixed_point_residual: float
    bracket: tuple                # certified (lo, hi) around lambda; lam = hi factors
    minimizer: np.ndarray = field(repr=False)
    profile: object = field(repr=False)
    mesh: object = field(repr=False)

    @property
    def bracket_rel(self):
        """Relative width 1 - lo/hi of the certified bracket around lambda."""
        return 1.0 - self.bracket[0] / self.bracket[1]

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


def _q_factor(forms, s):
    """:func:`eigen._factor` of Q(s) = E0 + s E1 + s^2 J, summed in that order; None if not definite."""
    return _factor(_band((1.0, forms.E0), (s, forms.E1), (s**2, forms.J)))


def _rayleigh_functional(forms, x):
    """Positive root p(x) of x^T Q(s) x = 0 for a J-normalized x.

    Q(p(x)) is not positive definite, so p(x) <= lambda for every x.  When
    x^T E0 x >= 0 there is no positive root and the value returned is <= 0,
    below every lower end the refinement holds (E1 is definite, so b > 0).
    """
    c = float(x @ (forms.E0 @ x))
    b = float(x @ (forms.E1 @ x))
    return -2.0 * c / (b + math.sqrt(max(b * b - 4.0 * c, 0.0)))


def growth_rate(profile, mesh, xi_mag, start=None):
    """Solve for the growing mode at one frequency, or certify stability.

    Returns a :class:`ModeSolution` with lambda the fixed point s = sqrt(-mu(s)),
    or :class:`Stable` when sigma > 0 and xi >= xi_c (no growing mode
    exists) or when Q(s) is already positive definite at vanishing s; the
    latter warns, since it means a rate below 1e-8 or a mesh too coarse.

    ``start = (lambda_guess, x_prev)`` starts warm: x_prev (a minimizer of a
    nearby frequency, re-normalized here) gives the certified lower end
    p(x_prev), which, when above 1e-8, also stands in for the Q(1e-8) test;
    the first trial factors at lambda_guess (1 + 1e-3), and each failure
    raises the lower end and widens the step fourfold, up to the cold upper
    end 2 sqrt(g |xi|).  Without ``start`` the bracket starts cold.
    """
    if xi_mag <= 0:
        raise DomainError("frequency magnitude must be > 0")
    sigma = profile.geometry.sigma
    if sigma > 0 and xi_mag >= profile.xi_c:
        return Stable(xi_mag, "sigma |xi|^2 >= g [rho0]: surface tension closes the window")

    forms = assemble(profile, mesh, xi_mag)
    rayleigh = lambda x: _rayleigh_functional(forms, x)
    guess, x, s_lo = math.inf, np.ones(forms.n), _S_LO
    if start is not None:
        guess, x = start[0], _normalize(forms, start[1])
        s_lo = max(s_lo, rayleigh(x))

    if s_lo == _S_LO:       # nothing proves lambda > 1e-8 yet
        if _q_factor(forms, _S_LO) is not None:
            warnings.warn(
                "Q(%g) is positive definite at xi = %g: either the growth rate is below %g "
                "or the mesh is too coarse to resolve the mode" % (_S_LO, xi_mag, _S_LO),
                RuntimeWarning,
            )
            return Stable(xi_mag, "modified energy nonnegative as s -> 0")

    s_hi = 2.0 * math.sqrt(forms.g * xi_mag)
    trial = max(guess, s_lo)
    step = _WARM_STEP * trial
    while True:
        trial += step
        trial = trial if trial < s_hi else s_hi     # a cold start's inf and a nan guess too
        factor = _q_factor(forms, trial)
        if factor is not None:
            break
        if trial == s_hi:
            raise SolverError("Q(s) is not definite at s = 2 sqrt(g |xi|)", {"xi": xi_mag})
        s_lo, step = trial, 4.0 * step      # a failed trial is a certified lower end
    lam, s_lo, x = _refine(forms, lambda s: _q_factor(forms, s), trial, factor, s_lo, rayleigh, x)
    mu = float(x @ (forms.E0 @ x)) + lam * float(x @ (forms.E1 @ x))
    phi, psi = forms.to_nodal(x)
    return ModeSolution(
        xi_mag=float(xi_mag),
        lam=lam,
        phi=phi,
        psi=psi,
        psi0=forms.psi_trace(x),
        fixed_point_residual=abs(lam - math.sqrt(max(-mu, 0.0))),
        bracket=(s_lo, lam),
        minimizer=x,
        profile=profile,
        mesh=mesh,
    )


def _warm_guess(solved, xi_mag):
    """lambda at xi_mag by Lagrange interpolation in (log |xi|, log lambda) through ``solved``.

    Closed-form arithmetic on at most three modes (no ``numpy.linalg``).  Of
    modes whose log |xi| coincide, the last is kept.  The exponent is clipped
    below float overflow: growth_rate caps its first trial at 2 sqrt(g |xi|).
    """
    u = math.log(xi_mag)
    nodes = {math.log(m.xi_mag): math.log(m.lam) for m in solved}
    v = 0.0
    for ui, vi in nodes.items():
        for uj in nodes:
            if uj != ui:
                vi *= (u - uj) / (ui - uj)
        v += vi
    return math.exp(min(v, 700.0))


def _rates_along(profile, mesh, magnitudes):
    """growth_rate at each of the ascending ``magnitudes``, by continuation.

    Each solve starts warm from the modes solved just before it: the guess
    interpolates the last three rates (:func:`_warm_guess`) and the vector is
    the last minimizer.  A Stable result restarts the next solve cold.  Any
    order is correct; ascending order makes the guesses good.
    """
    out, recent = [], []
    for m in magnitudes:
        start = (_warm_guess(recent, m), recent[-1].minimizer) if recent else None
        r = growth_rate(profile, mesh, float(m), start)
        recent = [] if isinstance(r, Stable) else (recent + [r])[-3:]
        out.append(r)
    return out


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
    bracket_rel_max: float     # widest certified rate bracket, relative to its rate
    stable_count: int          # samples found Stable, recorded as 0.0 rows
    argmax_mode: ModeSolution | None = field(repr=False, default=None)


def _check_sweep_range(profile, xi_min, xi_max, n):
    """ConfigurationError unless n samples of [xi_min, xi_max] can be swept on ``profile``."""
    if not (0 < xi_min < xi_max):
        raise ConfigurationError("need 0 < xi_min < xi_max")
    if n < 1:
        raise ConfigurationError("a sweep needs n >= 1 samples")
    if profile.geometry.sigma > 0 and xi_max > profile.xi_c:
        raise ConfigurationError("xi_max exceeds the critical frequency %.6g" % profile.xi_c)


def sweep(profile, mesh, xi_min, xi_max, n=48):
    """Log-spaced dispersion sweep over [xi_min, xi_max], solved by continuation.

    Records the sampled maximum Lambda with a quadratic-fit refinement
    around the argmax (the refined frequency is solved, never
    extrapolated), and the endpoint rates for the zero-limit check.
    """
    _check_sweep_range(profile, xi_min, xi_max, n)
    with storable("%d sweep samples" % n):
        xi_s = np.geomspace(xi_min, xi_max, n)
    solved = _rates_along(profile, mesh, xi_s)
    stable_count = sum(isinstance(r, Stable) for r in solved)
    lam_s, psi0_s, res_s = np.array([(0.0, 0.0, 0.0) if isinstance(r, Stable) else
                                     (r.lam, r.psi0, r.fixed_point_residual) for r in solved]).T
    k = int(np.argmax(lam_s))
    Lambda = float(lam_s[k])
    argmax_xi = float(xi_s[k])
    argmax_mode = solved[k] if Lambda > 0 else None
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
                    solved.append(r)
                    if not isinstance(r, Stable) and r.lam > Lambda:
                        fit_correction = r.lam - Lambda
                        Lambda, argmax_xi, argmax_mode = r.lam, float(xv), r

    return DispersionCurve(
        xi=xi_s, lam=lam_s, psi0=psi0_s, residual=res_s,
        Lambda=Lambda, argmax_xi=argmax_xi, fit_correction=fit_correction,
        bracket_rel_max=max(r.bracket_rel for r in solved),
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

    def argmax(self):
        """((k1, k2), mode): the largest lattice vector of the fastest magnitude, and its mode.

        Its negation is the conjugate partner.  ConfigurationError when no
        lattice mode grows (a stability certificate, or only Stable magnitudes).
        """
        if self.certificate or self.Lambda_L <= 0:
            raise ConfigurationError("lattice carries no growing mode (stability certificate)")
        mag = self.magnitudes[int(np.argmax(self.rates))]
        k1, k2 = max((int(k1), int(k2)) for k1, k2, m, _ in self.points
                     if _magnitude_key(m) == mag)
        return (k1, k2), self.modes[float(mag)]


def _magnitude_key(mag):
    """Lattice points whose magnitudes agree to 12 decimals share one solve."""
    return round(float(mag), 12)


def lattice_modes(profile, mesh, L, xi_max=None):
    """Enumerate unstable lattice frequencies and their rates.

    Rates depend on |xi| only, so lattice points are grouped by magnitude
    and each magnitude is solved once, in ascending order by continuation.
    The enumeration is capped by min(xi_c, xi_max), where xi_c is inf when
    sigma = 0 (a finite ``xi_max`` is then required).  When sigma > 0 and L <= L_c = sqrt(sigma / (g [rho0]))
    no lattice magnitude lies below xi_c, the unstable set is empty and a
    stability certificate is returned.  Any other cap that admits no lattice
    point is an error, not a certificate.
    """
    if L <= 0:
        raise ConfigurationError("period scale L must be > 0")
    if xi_max is None and profile.geometry.sigma == 0:
        raise ConfigurationError("sigma = 0 leaves the lattice unbounded; pass xi_max")
    # the small-period dichotomy is on L itself: at or below L_c the smallest
    # nonzero magnitude 1/L already reaches xi_c, so no lattice point is unstable
    xi_c = profile.xi_c if L > profile.L_c else 0.0
    cap = min(xi_c, math.inf if xi_max is None else float(xi_max))

    kmax = np.floor(cap * L) + 1.0
    with storable("%.6g x %.6g lattice points (L = %g)" % (2 * kmax + 1, 2 * kmax + 1, L)):
        k = np.arange(-kmax, kmax + 1.0)
        k1, k2 = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
        # k1^2 + k2^2 is an exact integer, so its square root rounds as math.hypot does
        mag = np.sqrt(k1 * k1 + k2 * k2) / L
        keep = (mag < cap) & ((k1 != 0) | (k2 != 0))
    k1, k2, mag = k1[keep], k2[keep], mag[keep]

    if not mag.size:
        if 1.0 / L < xi_c:      # (1, 0) lies below xi_c, so xi_max emptied the lattice
            raise ConfigurationError(
                "xi_max = %g admits no lattice frequency: the smallest lattice "
                "magnitude is 1/L = %g" % (cap, 1.0 / L))
        return LatticeResult(
            L=L, points=np.zeros((0, 4)), magnitudes=np.zeros(0), rates=np.zeros(0),
            Lambda_L=0.0, certificate=True,
        )

    keys = [_magnitude_key(m) for m in mag.tolist()]
    mags = sorted(set(keys))
    solved = dict(zip(mags, _rates_along(profile, mesh, mags)))
    modes = {m: r for m, r in solved.items() if not isinstance(r, Stable)}
    rate_of = {m: modes[m].lam if m in modes else 0.0 for m in mags}
    points = np.column_stack([k1, k2, mag, [rate_of[key] for key in keys]])
    points = points[np.lexsort((k2, k1, mag))]      # by magnitude, then k1, then k2
    rates = np.array([rate_of[m] for m in mags])
    return LatticeResult(
        L=L, points=points, magnitudes=np.array(mags), rates=rates,
        Lambda_L=float(rates.max()), certificate=False, modes=modes,
    )
