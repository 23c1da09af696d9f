"""Bottom eigenpairs of symmetric-definite pencils (A, J) by matrix inertia.

Every spectral question in the package is one question: where does the
bottom of a banded pencil against the mass form J sit?  By Sylvester's law
of inertia, A - m J is positive definite exactly when m lies below the
bottom eigenvalue, and a banded Cholesky factorization (LAPACK ``dpbtrf``)
succeeds exactly then.  Bisection on that test brackets the eigenvalue;
inverse iteration with the last successful factor gives the eigenvector, and
its Rayleigh quotient the eigenvalue.  Each factorization costs O(n) since
the forms have half-bandwidth 2 * order + 1.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .errors import DomainError, SolverError

DENSE_CUTOFF = 900  # read by the benchmark's tracer; no solver branches on it
_RTOL = 1e-12
_ATOL = 1e-13
_INVERSE_STEPS = 3


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


def _bisect(band_at, good, factor, bad):
    """Shrink [good, bad] to the point where band_at(t) stops factoring.

    band_at(good) factors (``factor``) and band_at(bad) does not; either end
    may be the larger.  The width stops at a relative-plus-absolute tolerance:
    near a zero eigenvalue a pure relative stop drives t into denormals.
    Returns the final definite end and its factor.
    """
    while abs(bad - good) > _RTOL * (abs(good) + abs(bad)) + _ATOL:
        mid = 0.5 * (good + bad)
        f = _factor(band_at(mid))
        if f is None:
            bad = mid
        else:
            good, factor = mid, f
    return good, factor


def _inverse_iteration(forms, factor, x):
    """A few inverse-iteration solves with a factor of (A - m J), m just below the bottom."""
    for _ in range(_INVERSE_STEPS):
        x = _normalize(forms, sla.cho_solve_banded((factor, False), forms.J @ x,
                                                   check_finite=False))
    return x


def bottom_eig(forms, A):
    """Bottom eigenpair of the pencil (A, J) for a symmetric A banded like the forms.

    The lower bracket end doubles downward from -1 until A - m J factors;
    the upper end is the Rayleigh quotient of a start vector smoothed by
    inverse iteration with that factor.
    """
    Ab = forms._band(A)
    Jb = forms._bands[2]
    band_at = lambda m: Ab - m * Jb
    lo = -1.0
    while (factor := _factor(band_at(lo))) is None:
        lo *= 2.0
        if not np.isfinite(lo):
            raise SolverError("no definite shift below the spectrum", {"n": forms.n})
    x = _inverse_iteration(forms, factor, np.ones(forms.n))
    _, factor = _bisect(band_at, lo, factor, float(x @ (A @ x)))
    x = _inverse_iteration(forms, factor, x)
    mu = float(x @ (A @ x))
    return EigenResult(mu, x, _residual(forms, A, mu, x))


def smallest_eig(forms, s):
    """Minimum of x^T (E0 + s E1) x over the J-unit sphere, with minimizer."""
    if s < 0:
        raise DomainError("family parameter s must be >= 0")
    return replace(bottom_eig(forms, forms.E0 + s * forms.E1), s=s)


def dense_spectrum(forms, s):
    """All generalized eigenvalues of (E0 + s E1, J); oracle for tests."""
    E0d, E1d, Jd = forms.dense()
    return sla.eigh(E0d + s * E1d, Jd, eigvals_only=True)


def c2_diagnostic(forms):
    """Discrete inf of the viscous form over the constraint set.

    The bottom eigenvalue of (E1, J): a computable stand-in for the slope
    constant in mu(s) >= -g xi + s C2.  Positive whenever eps0 > 0.
    """
    return bottom_eig(forms, forms.E1).mu
