"""Bottom eigenpairs of symmetric-definite pencils (A, J) by matrix inertia.

Every spectral question in the package is one question: where does a banded
family of symmetric matrices stop being positive definite?  By Sylvester's
law of inertia, A - m J is positive definite exactly when m lies below the
bottom eigenvalue, and a banded Cholesky factorization succeeds exactly
then, in O(n).  This module owns that test for the package: :func:`_band`
sums every band it factors, in the caller's order, in LAPACK's lower band
storage (the bottom rows of each :class:`rtmodes.forms.Band`), which
``dpbtrf`` of numpy's OpenBLAS (:mod:`rtmodes._kernels`) factors at unit
stride; ``dpbtrs`` solves with the factor as LAPACK writes it.  Each
:func:`_factor` call, definite or not, adds one to
``counters["factorizations"]`` (:data:`rtmodes._kernels.counters`), as each
:func:`_solve` adds one to ``counters["solves"]``.  The family Q(s) = E0 +
s E1 + s^2 J is :mod:`dispersion`'s; :mod:`evolution`'s step matrix
(dt^2/2) Q(2/dt) factors exactly when dt < 2/lambda.

:func:`_refine` shrinks a bracket that is certified from both sides.  The
definite end carries a factor; inverse iteration with it gives a vector x,
and a scalar bound read off x moves the other end at no factorization: the
Rayleigh quotient for a linear pencil, the Rayleigh functional of the
growth-rate family in :mod:`dispersion` (Voss & Werner 1982).  Both are
stationary at an eigenvector, so the bound errs by about w^2 / |good| for a
bracket of width w (Schwetlick & Schreiber 2012), and one trial
factorization per round, placed that far past it, moves the end it proves.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import counters, dpbtrf, dpbtrs
from .errors import DomainError, SolverError
from .forms import Band

DENSE_CUTOFF = 900  # read by the benchmark's tracer; no solver branches on it
# bracket stop: relative width plus an absolute floor, since near a zero
# eigenvalue a pure relative stop drives the ends into denormals
_WIDTH_RTOL = 1e-11
_WIDTH_ATOL = 1e-13


@dataclass
class EigenResult:
    """Bottom eigenpair: mu, J-normalized minimizer, and the pencil residual."""

    mu: float
    minimizer: np.ndarray
    residual: float


def _normalize(forms, x):
    """(x, J x) for x scaled to x^T J x = 1 and signed to psi(0) > 0 (else its first nonzero entry > 0)."""
    Jx = forms.J @ x
    norm_sq = float(x @ Jx)
    if not 0.0 < norm_sq < np.inf:      # x under- or overflowed in the solve
        raise SolverError("inverse iteration lost its iterate: x^T J x = %g" % norm_sq, {"n": forms.n})
    anchor = x[forms.psi0_dof]
    if anchor == 0.0:
        anchor = x[np.flatnonzero(x)[0]]    # x != 0, since x^T J x > 0
    norm = math.copysign(math.sqrt(norm_sq), anchor)
    return x / norm, Jx / norm


def _band(*terms):
    """Lower band storage of c_1 M_1 + c_2 M_2 + ... for the terms (c_k, M_k), summed in order; new."""
    (c, M), *rest = terms
    ab = c * M.data[M.kd:]
    for c, M in rest:
        ab += c * M.data[M.kd:]
    return ab


def _factor(ab):
    """Cholesky factor L of the lower band ab (left intact), in lower storage; None if not definite."""
    counters["factorizations"] += 1
    c, info = dpbtrf(ab)
    return c if info == 0 else None


def _solve(factor, b):
    """Solve with a :func:`_factor` result; b (a float vector) is overwritten by the solution."""
    counters["solves"] += 1
    return dpbtrs(factor, b)[0]


def _refine(forms, factor_at, good, factor, bound, bound_of, Jx):
    """Shrink [bound, good] to where the family starts to factor: ``factor_at(t)`` is not None.

    ``factor`` is factor_at(good), a :func:`_factor` result; ``bound`` is
    certified to lie on the other side of that point, and either end may be
    the larger; ``Jx`` is J x for the starting vector x.  Each round solves
    with ``factor``, moves ``bound`` to ``bound_of(x)`` when that is closer,
    and tries one factorization k w^2 / max(|good|, |bound|) past ``bound``,
    at most w / 2 for the width w; a step whose success would end the loop is
    half the stop width's relative part instead.  A failure moves ``bound``
    there and multiplies k by 8, a success moves ``good`` there and divides k
    by 8, to no less than its starting 1/4.  Returns (good, bound, x), x
    being the J-normalized iterate of the last factor.
    """
    k = 0.25
    while True:
        x, Jx = _normalize(forms, _solve(factor, Jx))
        t = bound_of(x)
        if (t - bound) * (good - bound) > 0:
            # a bound past the definite end is roundoff at the threshold
            bound = t if (good - t) * (good - bound) > 0 else good
        w, scale = abs(good - bound), max(abs(good), abs(bound))
        rel = _WIDTH_RTOL * (abs(good) + abs(bound))      # the relative part of the stop width
        if w <= rel + _WIDTH_ATOL:
            return good, bound, x
        step = k * w * w / scale         # about the bound's error, quadratic in w
        step = min(w / 2, step if step > rel + _WIDTH_ATOL else rel / 2)
        t = bound + math.copysign(step, good - bound)
        f = factor_at(t)
        if f is None:
            bound, k = t, 8 * k
        else:
            good, factor, k = t, f, max(0.25, k / 8)


def bottom_eig(forms, a, b, c):
    """Bottom eigenpair of (A, J), A = a E0 + b E1 + c J with a, b >= 0; each trial factors A - m J.

    E0 + g |xi| J >= 0 and E1 >= 0 hold exactly, so at the lower bracket end
    m = c - a g |xi| - 1, A - m J >= J is definite; a factorization that
    fails there is a SolverError.  The upper end is the Rayleigh quotient of
    the current iterate, which :func:`_refine` lowers each round while
    inertia raises the lower end.  The eigenvalue is that upper end at the
    close: the least Rayleigh quotient seen, or a failed trial below it.
    """
    if a < 0 or b < 0:
        raise DomainError("bottom_eig needs a >= 0 and b >= 0, not a = %g, b = %g" % (a, b))
    A = Band(a * forms.E0.data + b * forms.E1.data + c * forms.J.data, forms.J.pattern)
    factor_at = lambda m: _factor(_band((1.0, A), (-m, forms.J)))
    rayleigh = lambda x: float(x @ (A @ x))      # x is J-normalized
    lo = c - a * forms.g * forms.xi - 1.0
    factor = factor_at(lo)
    if factor is None:
        raise SolverError("no definite shift below the spectrum", {"n": forms.n, "shift": lo})
    x, Jx = _normalize(forms, np.ones(forms.n))
    _, mu, x = _refine(forms, factor_at, lo, factor, rayleigh(x), rayleigh, Jx)
    r = A @ x - mu * (forms.J @ x)
    return EigenResult(mu, x, math.sqrt(r @ r) / math.sqrt(x @ x))


def smallest_eig(forms, s):
    """Minimum of x^T (E0 + s E1) x over the J-unit sphere, with minimizer."""
    if s < 0:
        raise DomainError("family parameter s must be >= 0")
    return bottom_eig(forms, 1.0, s, 0.0)


def c2_diagnostic(forms):
    """Discrete inf of the viscous form over the constraint set.

    The bottom eigenvalue of (E1, J): a computable stand-in for the slope
    constant in mu(s) >= -g xi + s C2.  Positive whenever eps0 > 0.
    """
    return bottom_eig(forms, 0.0, 1.0, 0.0).mu
