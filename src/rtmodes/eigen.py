"""Bottom eigenpairs of symmetric-definite pencils (A, J) by matrix inertia.

Every spectral question in the package is one question: where does a banded
family of symmetric matrices stop being positive definite?  By Sylvester's
law of inertia, A - m J is positive definite exactly when m lies below the
bottom eigenvalue, and a banded Cholesky factorization (LAPACK ``dpbtrf``)
succeeds exactly then.  Each factorization costs O(n) since the forms have
half-bandwidth 2 * order + 1.

:func:`_refine` shrinks a bracket that is certified from both sides.  The
definite end carries a factor; inverse iteration with it gives a vector x,
and a scalar bound read off x moves the other end at no factorization: the
Rayleigh quotient for a linear pencil, the Rayleigh functional of the
growth-rate family in :mod:`dispersion` (Voss & Werner 1982).  One trial
factorization per round, placed near that bound, then moves whichever end
it proves.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .errors import DomainError, SolverError

DENSE_CUTOFF = 900  # read by the benchmark's tracer; no solver branches on it
# bracket stop: relative width plus an absolute floor, since near a zero
# eigenvalue a pure relative stop drives the ends into denormals
_WIDTH_RTOL = 1e-11
_WIDTH_ATOL = 1e-13
# the trial point sits this fraction of the width past the bound; a trial
# that factors divides it by _THETA_STEP, one that fails multiplies it
_THETA_START = 0.25
_THETA_STEP = 8.0


@dataclass
class EigenResult:
    """Bottom eigenpair: mu, J-normalized minimizer, and the pencil residual.

    ``s`` is the family parameter when the pencil is (E0 + s E1, J).
    """

    mu: float
    minimizer: np.ndarray
    residual: float
    s: float | None = None


def _normalize(forms, x):
    x = x / np.sqrt(float(x @ (forms.J @ x)))
    anchor = x[forms.psi0_dof]
    if anchor == 0.0:
        nz = np.flatnonzero(x)
        anchor = x[nz[0]] if nz.size else 1.0
    return x if anchor > 0 else -x


def _residual(forms, A, mu, x):
    return float(np.linalg.norm(A @ x - mu * (forms.J @ x)) / np.linalg.norm(x))


def _factor(ab):
    """Banded Cholesky factor, or None when the matrix is not positive definite."""
    try:
        return sla.cholesky_banded(ab, lower=False, check_finite=False)
    except sla.LinAlgError:
        return None


def _refine(forms, band_at, good, factor, bound, bound_of, x):
    """Shrink [bound, good] to the point where band_at(t) starts to factor.

    band_at(good) factors (``factor``); ``bound`` is certified to lie on the
    other side of that point, and either end may be the larger.  Each round
    takes one inverse-iteration solve with the factor at ``good``, moves
    ``bound`` to ``bound_of(x)`` when that is closer, and tries one
    factorization a fraction theta of the width past ``bound``: success
    moves ``good`` there and shrinks theta, failure moves ``bound`` there and
    grows it (to at most 1/2).  Returns (good, bound, x, factorizations), x
    being the J-normalized iterate of the last factor.
    """
    theta = _THETA_START
    count = 0
    while True:
        x = _normalize(forms, sla.cho_solve_banded((factor, False), forms.J @ x,
                                                   check_finite=False))
        t = bound_of(x)
        if (t - bound) * (good - bound) > 0:
            # a bound past the definite end is roundoff at the threshold
            bound = t if (good - t) * (good - bound) > 0 else good
        if abs(good - bound) <= _WIDTH_RTOL * (abs(good) + abs(bound)) + _WIDTH_ATOL:
            return good, bound, x, count
        t = bound + theta * (good - bound)
        f = _factor(band_at(t))
        count += 1
        if f is None:
            bound, theta = t, min(0.5, theta * _THETA_STEP)
        else:
            good, factor, theta = t, f, theta / _THETA_STEP


def bottom_eig(forms, A):
    """Bottom eigenpair of the pencil (A, J) for a symmetric A banded like the forms.

    The lower bracket end doubles downward from -1 until A - m J factors;
    the upper end is the Rayleigh quotient of the current iterate, which
    :func:`_refine` lowers each round while inertia raises the lower end.
    The eigenvalue is the Rayleigh quotient of the final iterate.
    """
    Ab = forms._band(A)
    Jb = forms._bands[2]
    band_at = lambda m: Ab - m * Jb
    rayleigh = lambda x: float(x @ (A @ x))      # x is J-normalized
    lo = -1.0
    while (factor := _factor(band_at(lo))) is None:
        lo *= 2.0
        if not np.isfinite(lo):
            raise SolverError("no definite shift below the spectrum", {"n": forms.n})
    x = _normalize(forms, np.ones(forms.n))
    _, _, x, _ = _refine(forms, band_at, lo, factor, rayleigh(x), rayleigh, x)
    mu = rayleigh(x)
    return EigenResult(mu, x, _residual(forms, A, mu, x))


def smallest_eig(forms, s):
    """Minimum of x^T (E0 + s E1) x over the J-unit sphere, with minimizer."""
    if s < 0:
        raise DomainError("family parameter s must be >= 0")
    return replace(bottom_eig(forms, forms.E0 + s * forms.E1), s=s)


def c2_diagnostic(forms):
    """Discrete inf of the viscous form over the constraint set.

    The bottom eigenvalue of (E1, J): a computable stand-in for the slope
    constant in mu(s) >= -g xi + s C2.  Positive whenever eps0 > 0.
    """
    return bottom_eig(forms, forms.E1).mu
