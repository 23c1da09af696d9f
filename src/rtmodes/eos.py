"""Barotropic pressure laws, enthalpies, and the Rayleigh-Taylor admissibility test.

Each fluid is described by a strictly increasing pressure law P(rho).  The
enthalpy h(rho) = int_1^rho P'(r)/r dr and its inverse drive the hydrostatic
profile construction.  Two kinds are supported, both in closed form:

* polytropic P = K rho^gamma: h = K gamma/(gamma-1) (rho^(gamma-1) - 1),
  or K log(rho) at gamma = 1;
* tabulated: the monotone cubic (PCHIP) interpolant of (rho, P) samples.
  On each piece P' is a quadratic in t = r - x_k, so dividing by r = t + x_k
  gives h as a quadratic in t plus a log1p(t / x_k) term, summed over the
  knots.  The enthalpy and pressure inverses are a bracket-safeguarded
  Newton iteration inside the piece found by searching the knot values.
"""

import math

import numpy as np

from .errors import DomainError, RangeError

_INV_TOL = 1e-11
_DPDRHO_FLOOR = 1e-12
_NEWTON_STEPS = 100   # bisection fallback halves a piece 53 times at most


def _piece(knots, v):
    """Index k of the piece [knots[k], knots[k+1]] holding v (ends clamped)."""
    return np.clip(np.searchsorted(knots, v, side="right") - 1, 0, knots.size - 2)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope with Moler's shape-preserving clamp."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x, y):
    """PCHIP (Fritsch & Carlson 1980) cubics, c[:, k] = (c0, c1, c2, c3) on piece k.

    P(x_k + t) = c0 t^3 + c1 t^2 + c2 t + c3.  Interior slopes are the
    weighted harmonic mean of the adjacent secants (0 where they change sign
    or vanish); 2 samples give the linear interpolant.  The arithmetic
    follows scipy's PCHIP interpolator, so the coefficients match it bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if x.size == 2:
        d[:] = m[0]
    else:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


class PressureLaw:
    """A barotropic pressure law P(rho) with derivatives and enthalpy.

    Use the constructors :meth:`polytropic` or :meth:`tabulated`.
    """

    def __init__(self, kind, **params):
        self.kind = kind
        if kind == "polytropic":
            K, gamma = params["K"], params["gamma"]
            if K <= 0:
                raise DomainError("polytropic pressure scale K must be > 0")
            if gamma < 1:
                raise DomainError("adiabatic exponent gamma must be >= 1")
            self.K, self.gamma = float(K), float(gamma)
            self.rho_min, self.rho_max = 0.0, math.inf
        elif kind == "tabulated":
            rho = np.array(params["rho"], dtype=float)   # a copy: the law keeps it
            P = np.asarray(params["P"], dtype=float)
            if rho.ndim != 1 or rho.shape != P.shape or rho.size < 2:
                raise DomainError("tabulated law needs matching 1D (rho, P) samples")
            if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(P))):
                raise DomainError("tabulated (rho, P) samples must be finite numbers")
            if np.any(np.diff(rho) <= 0) or np.any(np.diff(P) <= 0):
                raise DomainError("tabulated (rho, P) samples must be strictly increasing")
            if rho[0] <= 0 or P[0] <= 0:
                raise DomainError("tabulated samples must have rho > 0 and P > 0")
            # Shape-preserving cubic keeps P' >= 0 structurally; on strictly
            # increasing data the interior derivative is positive.
            self._x, self._c = rho, _pchip_coefficients(rho, P)
            self.rho_min, self.rho_max = float(rho[0]), float(rho[-1])
            self._check_derivative_floor(rho)
            self._build_enthalpy()
        else:
            raise DomainError(f"unknown pressure law kind {kind!r}")

    @classmethod
    def polytropic(cls, K, gamma):
        return cls("polytropic", K=K, gamma=gamma)

    @classmethod
    def tabulated(cls, rho, P):
        return cls("tabulated", rho=rho, P=P)

    def _cubic(self, rho, nu):
        """The PCHIP cubic's nu-th derivative (nu = 0, 1, 2) at rho.

        Terms are summed in rising powers, as scipy's PPoly evaluates them.
        """
        k = _piece(self._x, rho)
        t = rho - self._x[k]
        c0, c1, c2, c3 = self._c[:, k]
        if nu == 0:
            return c3 + c2 * t + c1 * (t * t) + c0 * (t * t * t)
        if nu == 1:
            return c2 + (2.0 * c1) * t + (3.0 * c0) * (t * t)
        return 2.0 * c1 + (6.0 * c0) * t

    def _check_derivative_floor(self, rho):
        # The analysis needs 1/P' locally bounded; PCHIP endpoint slopes can
        # collapse on pathological data, so enforce a machine-positive floor.
        dense = np.linspace(self.rho_min, self.rho_max, 64 * rho.size)
        dmin = float(np.min(self._cubic(dense, 1)))
        if dmin < _DPDRHO_FLOOR * (self._cubic(self.rho_max, 0) / self.rho_max):
            raise DomainError(
                "tabulated law has vanishing dP/drho (min %.3e); "
                "supply samples with strictly positive slope" % dmin
            )

    def _build_enthalpy(self):
        # With P'(x_k + t) = a t^2 + b t + c on piece k, division by t + x_k gives
        # int_0^t P'/r = (a/2) t^2 + (b - a x_k) t + (c - (b - a x_k) x_k) log1p(t / x_k).
        x, cub = self._x, self._c      # P = c0 t^3 + c1 t^2 + c2 t + c3
        lin = 2.0 * cub[1] - 3.0 * cub[0] * x[:-1]
        self._h_coef = (1.5 * cub[0], lin, cub[2] - lin * x[:-1])
        knots = np.concatenate([[0.0], np.cumsum(self._h_piece(np.arange(x.size - 1), x[1:]))])
        base = min(max(1.0, self.rho_min), self.rho_max)
        kb = _piece(x, base)
        self._h_knots = knots - (knots[kb] + self._h_piece(kb, base))

    def _h_piece(self, k, r):
        """int_{x_k}^r P'(s)/s ds on piece k."""
        quad_, lin, log_ = (coef[k] for coef in self._h_coef)
        t = r - self._x[k]
        return t * (quad_ * t + lin) + log_ * np.log1p(t / self._x[k])

    def _invert(self, knot_values, target, value, slope):
        """rho with value(rho) = target for an increasing value with knot_values at the knots.

        Newton steps from the secant guess inside the piece that brackets
        the target; a step that leaves the current bracket is replaced by
        bisection, so the iteration cannot escape the piece.  Each point
        stops at its own converged step, so its value does not depend on
        which other points share the call.
        """
        k = _piece(knot_values, target)
        x = self._x
        lo, hi = x[k], x[k + 1]
        v_lo, v_hi = knot_values[k], knot_values[k + 1]
        r = lo + (hi - lo) * ((target - v_lo) / (v_hi - v_lo))
        moving = np.ones(np.shape(r), dtype=bool)
        for _ in range(_NEWTON_STEPS):
            res = value(r) - target
            lo = np.where(res <= 0, r, lo)
            hi = np.where(res >= 0, r, hi)
            step = r - res / slope(r)
            new = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
            done = np.abs(new - r) <= 4.0 * np.finfo(float).eps * r
            r = np.where(moving, new, r)
            moving &= ~done
            if not moving.any():
                break
        return r

    def _require_in_range(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0):
            raise DomainError("density must be > 0")
        if np.any(rho < self.rho_min) or np.any(rho > self.rho_max):
            raise DomainError(
                "density outside working range [%g, %g]" % (self.rho_min, self.rho_max)
            )
        return rho

    def pressure(self, rho):
        """P(rho).  Strictly increasing on the working range."""
        rho = self._require_in_range(rho)
        if self.kind == "polytropic":
            out = self.K * rho**self.gamma
        else:
            out = self._cubic(rho, 0)
        return out if out.ndim else float(out)

    def dpressure(self, rho):
        """P'(rho) > 0."""
        rho = self._require_in_range(rho)
        if self.kind == "polytropic":
            out = self.K * self.gamma * rho ** (self.gamma - 1.0)
        else:
            out = self._cubic(rho, 1)
        return out if out.ndim else float(out)

    def d2pressure(self, rho):
        """P''(rho) (piecewise for tabulated laws)."""
        rho = self._require_in_range(rho)
        if self.kind == "polytropic":
            out = self.K * self.gamma * (self.gamma - 1.0) * rho ** (self.gamma - 2.0)
        else:
            out = self._cubic(rho, 2)
        return out if out.ndim else float(out)

    def enthalpy(self, rho):
        """h(rho) = int_1^rho P'(r)/r dr, in closed form for both kinds.

        For a tabulated law the lower limit 1 is clamped into the working
        range, and h is the exact integral of the PCHIP interpolant's P'/r
        (one knot search, then one expression per point).
        """
        rho = self._require_in_range(rho)
        if self.kind == "polytropic":
            g = self.gamma
            if g == 1.0:
                out = self.K * np.log(rho)
            else:
                # expm1 keeps h accurate (and increasing) as gamma -> 1
                out = self.K * g / (g - 1.0) * np.expm1((g - 1.0) * np.log(rho))
        else:
            k = _piece(self._x, rho)
            out = self._h_knots[k] + self._h_piece(k, rho)
        return out if out.ndim else float(out)

    def enthalpy_range(self):
        """(h_lo, h_hi): the open image of the enthalpy on the working range."""
        if self.kind == "polytropic":
            if self.gamma == 1.0:
                return (-math.inf, math.inf)
            g = self.gamma
            return (-self.K * g / (g - 1.0), math.inf)
        return (float(self._h_knots[0]), float(self._h_knots[-1]))

    def enthalpy_inverse(self, h):
        """rho with enthalpy(rho) = h, to 1e-11*(1+|h|).

        Raises :class:`RangeError` when h lies outside the enthalpy image;
        physically this is the vacuum boundary of the hydrostatic profile.
        """
        return float(self.enthalpy_inverse_vec(float(h)))

    def enthalpy_inverse_vec(self, h):
        """Vectorized enthalpy inverse; see :meth:`enthalpy_inverse`."""
        h = np.asarray(h, dtype=float)
        lo, hi = self.enthalpy_range()
        if np.any(h <= lo) or np.any(h >= hi):
            raise RangeError("enthalpy values outside attainable range (%g, %g)" % (lo, hi))
        if self.kind == "polytropic":
            if self.gamma == 1.0:
                return np.exp(h / self.K)
            g = self.gamma
            return np.exp(np.log1p((g - 1.0) * h / (self.K * g)) / (g - 1.0))
        rho = self._invert(self._h_knots, h, self.enthalpy, lambda r: self._cubic(r, 1) / r)
        if np.any(np.abs(self.enthalpy(rho) - h) > _INV_TOL * (1.0 + np.abs(h))):
            raise RangeError("enthalpy inversion failed to meet tolerance")
        return rho

    def pressure_inverse(self, p):
        """rho with P(rho) = p; :class:`RangeError` if p is not attained."""
        p = float(p)
        if self.kind == "polytropic":
            if p <= 0:
                raise RangeError("pressure must be > 0")
            return (p / self.K) ** (1.0 / self.gamma)
        p_lo, p_hi = self.pressure_image()
        if not (p_lo <= p <= p_hi):
            raise RangeError("pressure %g outside tabulated image [%g, %g]" % (p, p_lo, p_hi))
        knots = self._cubic(self._x, 0)
        return float(self._invert(knots, p, lambda r: self._cubic(r, 0),
                                  lambda r: self._cubic(r, 1)))

    def pressure_image(self):
        if self.kind == "polytropic":
            return (0.0, math.inf)
        return (float(self._cubic(self.rho_min, 0)), float(self._cubic(self.rho_max, 0)))

    def __repr__(self):
        if self.kind == "polytropic":
            return f"PressureLaw.polytropic(K={self.K}, gamma={self.gamma})"
        return f"PressureLaw.tabulated(<{self.rho_min}..{self.rho_max}>)"


def admissible(lower, upper, rho_minus):
    """Whether rho_minus yields a heavy-over-light (Rayleigh-Taylor) interface.

    True iff P_-(rho_minus) > P_+(rho_minus) and P_-(rho_minus) lies in the
    image of P_+, so the pressure-matching density on the upper side exists
    and exceeds rho_minus.
    """
    if rho_minus <= 0:
        raise DomainError("interface density must be > 0")
    p_minus = lower.pressure(rho_minus)
    lo, hi = upper.pressure_image()
    if not (lo < p_minus < hi):
        return False
    return p_minus > upper.pressure(rho_minus)
