"""3D growing solutions from 1D mode profiles.

A reduced-frame mode (phi, psi) at frequency magnitude r generates the whole
circle |xi| = r by rotation equivariance: (phi, theta)(xi) = R^{-1} (phi, 0)
where R xi = (r, 0), with psi unchanged.  Periodic solutions are a single
conjugate pair of lattice modes; non-periodic solutions superpose a radial
bump f of frequencies over an annulus inside (0, xi_c).  Their radial
integral is a Gauss-Legendre rule of any size, by the mesh module's
Newton iteration :func:`rtmodes.mesh.gauss_legendre`, so no run imports
``numpy.polynomial`` or calls ``numpy.linalg``.  The angular integral is
exact, since f and lambda depend on |xi| only and it reduces to the
Bessel functions J0 and J1 of |xi| |x_h|, scipy's compiled ``j0`` and
``j1`` taken through :mod:`rtmodes._kernels`.  Norms live in the piecewise
Sobolev spaces: full regularity on each fluid domain, none across the
interface.  Both fields share one height evaluator, :func:`_heights`, and
the rest of their surface through :class:`_Field`: growth factor, point
values, grid samples and one norm path, in which one ``profile.fields``
call per field gives five integrals per mode and e^{Lambda t} of the
fastest mode is factored out of the sum, so a norm is finite wherever
``growth_factor(t)`` and the integrals it reads are, and a DomainError
elsewhere.
"""

import math
from functools import cached_property

import numpy as np

from . import _kernels
from .dispersion import Stable, _rates_along, lattice_modes
from .errors import ConfigurationError, DomainError, storable
from .mesh import gauss_legendre
from .profile import by_side
from .residuals import ode_second_derivatives


class BumpProfile:
    """Standard compactly supported bump exp(-1/(1-u^2)) on [a, b]."""

    def __init__(self, a, b):
        if not (0 < a < b):
            raise ConfigurationError("bump support needs 0 < a < b")
        self.a, self.b = float(a), float(b)

    @classmethod
    def default(cls, xi_c, a=None, b=None):
        """Each missing edge defaults to the middle 40% of (0, xi_c): a = 0.3 xi_c, b = 0.7 xi_c."""
        if (a is None or b is None) and not math.isfinite(xi_c):
            raise ConfigurationError("default bump needs a finite xi_c; pass a, b explicitly")
        return cls(0.3 * xi_c if a is None else a, 0.7 * xi_c if b is None else b)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        u = (2 * r - self.a - self.b) / (self.b - self.a)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out if out.ndim else float(out)


def _growth_factor(lam, t):
    """e^{lam t}; DomainError when it overflows a float, where every field would be inf or nan."""
    try:
        return math.exp(lam * t)
    except OverflowError:
        raise DomainError("t = %g is too late for the growth rate %.6g: e^{lambda t} overflows"
                          % (t, lam)) from None


def _as_points(x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise DomainError("sample points must have a trailing dimension of 3")
    return x.reshape(-1, 3)


def _heights(profile, mesh, x3, values, slopes):
    """rho0, each nodal field of the stack ``values``, and the x3-derivative of
    each of the stack ``slopes`` at heights x3, from three nodal evaluations.
    One :func:`by_side` pass takes rho0 and the slopes from each point's own
    fluid; the values are continuous across it.
    """
    sided = by_side(x3, lambda xs, s: np.column_stack(
        [profile.density(xs, side=s), mesh.eval_nodal(slopes, xs, side=s, deriv=1).T]))
    return sided[:, 0], mesh.eval_nodal(values, x3), sided[:, 1:].T


class _Field:
    """What both synthesized fields share: growth, point values, samples and norms.

    A field sets ``profile``, ``mesh``, ``modes`` (the modes it superposes) and
    ``_weights`` (each mode's Parseval weight on the Fourier side), and defines
    ``_evaluate(x, t) -> (eta, v, q)`` at points x with a trailing dimension of 3.
    """

    def growth_factor(self, t):
        """e^{lambda t} of the fastest mode at time t; DomainError where it overflows."""
        return _growth_factor(max(m.lam for m in self.modes), t)

    def eta(self, x, t=0.0):
        return self._evaluate(x, t)[0]

    def v(self, x, t=0.0):
        return self._evaluate(x, t)[1]

    def q(self, x, t=0.0):
        return self._evaluate(x, t)[2]

    def sample(self, grid, t=0.0):
        """Columns x1, x2, x3, eta1..3, v1..3, q on the rectilinear grid (x1s, x2s, x3s)."""
        with storable("a %s sample grid" % " x ".join(str(np.size(g)) for g in grid)):
            X = np.meshgrid(*(np.asarray(g, dtype=float) for g in grid), indexing="ij")
        eta, vel, qf = self._evaluate(np.stack(X, axis=-1), t)
        cols = {f"x{i + 1}": X[i].ravel() for i in range(3)}
        cols.update({f"eta{i + 1}": eta[..., i].ravel() for i in range(3)})
        cols.update({f"v{i + 1}": vel[..., i].ravel() for i in range(3)})
        cols["q"] = qf.ravel()
        return cols

    @cached_property
    @np.errstate(over="ignore")
    def _norms(self):
        """Five piecewise integrals per mode, from one ``profile.fields`` call.

        Row k holds, for ``modes[k]``, int (d^j phi)^2 + (d^j psi)^2 for j = 0, 1, 2,
        then int (d^j q)^2 for j = 0, 1 with q = -rho0 (|xi| phi + psi'); the second
        derivatives come from the strong-form ODEs.  Gauss points never lie on an
        element break, so side-free evaluations give each fluid's own values.  A
        column may overflow to inf (phi'' carries 1/eps); :meth:`sobolev_norm`
        refuses a norm that reads one.
        """
        xq = self.mesh.quad_x.ravel()
        wq = self.mesh.quad_w.ravel()
        fields = self.profile.fields(xq)
        rho, rho_p = fields["rho"], fields["rho_prime"]
        out = np.empty((len(self.modes), 5))
        for row, m in zip(out, self.modes):
            r = m.xi_mag
            phi, psi = ode_second_derivatives(
                fields, self.profile.geometry.g, self.mesh, m.phi, m.psi, r, m.lam, -m.lam**2, xq)
            base = r * phi[0] + psi[1]
            q = (rho * base, rho_p * base + rho * (r * phi[1] + psi[2]))
            row[:] = [np.sum(wq * (phi[j] ** 2 + psi[j] ** 2)) for j in range(3)] + [
                np.sum(wq * qj**2) for qj in q]
        return out

    def sobolev_norm(self, which="eta", k=0, t=0.0):
        """Fourier-side piecewise H^k norm of eta, v, or q at time t:
        sqrt(sum over modes of weight (a e^{lambda t})^2 sum_j (1 + r^2)^{k-j} ||d^j .||^2).

        a = lambda for v and 1 otherwise.  eta and v have x3-derivatives up to
        order 2, q up to order 1.  The largest e^{lambda t} is factored out of
        the sum, so the norm overflows only where that factor does, with the
        DomainError of :meth:`growth_factor`, or where one of the integrals it
        reads does, with a DomainError of its own.
        """
        if which not in ("eta", "v", "q"):
            raise DomainError("which must be eta, v, or q")
        first, depth = (3, 1) if which == "q" else (0, 2)
        if not 0 <= k <= depth:
            raise DomainError("%s has x3-derivatives up to order %d, not %d" % (which, depth, k))
        lam = np.array([m.lam for m in self.modes])
        r = np.array([m.xi_mag for m in self.modes])
        dominant = float(lam.max() if t >= 0 else lam.min())   # largest e^{lambda t}
        growth = _growth_factor(dominant, t)
        amp = np.exp((lam - dominant) * t) * (lam if which == "v" else 1.0)
        total = sum((1.0 + r**2) ** (k - j) * self._norms[:, first + j] for j in range(k + 1))
        if not np.all(np.isfinite(total)):
            raise DomainError("the H^%d norm of %s overflows" % (k, which))
        return growth * math.sqrt(float(np.sum(self._weights * amp**2 * total)))


class PeriodicField(_Field):
    """Conjugate pair of maximizing lattice modes: exact normal-mode growth.

    The reduced-frame ``mode`` gives w_hat(+-xi1, x3) = (-i phi, -i theta, psi) with
    (phi, theta) = phi_reduced xi1 / |xi1|, rotated in :meth:`_evaluate`: the horizontal
    displacement is 2 e^{Lambda t} phi(x3) sin(xi1 . x_h) xi1 / |xi1|.
    """

    def __init__(self, profile, mesh, L, lattice=None):
        if lattice is None:
            lattice = lattice_modes(profile, mesh, L)
        (k1, k2), self.mode = lattice.argmax()   # the pair's partner is -(k1, k2)
        self.profile, self.mesh, self.L = profile, mesh, L
        self.xi1 = np.array([k1 / L, k2 / L])
        self.Lambda_L = float(lattice.Lambda_L)
        self.modes = [self.mode]
        # each of the pair has coefficient (2 pi L)^2 w_hat; the Parseval
        # prefactor 1/(4 pi^2 L^2) leaves 4 pi^2 L^2 * (pair sum)
        self._weights = 4 * math.pi**2 * self.L**2 * 2.0

    def _evaluate(self, x, t):
        """(eta, v, q) at points x from one evaluation of the mode's heights."""
        pts = _as_points(x)
        phi, psi = self.mode.phi, self.mode.psi
        c, s = self.xi1 / np.hypot(*self.xi1)
        rho, (f, th, p, phi_r), (pp,) = _heights(
            self.profile, self.mesh, pts[:, 2], (c * phi, s * phi, psi, phi), (psi,))
        phase = pts[:, 0] * self.xi1[0] + pts[:, 1] * self.xi1[1]
        amp = self.growth_factor(t)
        shape = np.asarray(x).shape
        eta = amp * np.stack(
            [2 * f * np.sin(phase), 2 * th * np.sin(phase), 2 * p * np.cos(phase)], axis=-1
        ).reshape(shape)
        q = -rho * 2 * (self.mode.xi_mag * phi_r + pp) * np.cos(phase)
        return eta, self.Lambda_L * eta, amp * q.reshape(shape[:-1])


class NonperiodicField(_Field):
    """Fourier synthesis of growing modes against a radial bump f.

    ``n_radial`` Gauss-Legendre nodes (:func:`rtmodes.mesh.gauss_legendre`)
    sample |xi| over the bump's support, their rates solved in ascending order
    by continuation; the angular integral at each node is evaluated exactly by
    J0 and J1.
    """

    def __init__(self, profile, mesh, f, n_radial=16, curve=None):
        if profile.geometry.sigma > 0 and not (0 < f.a < f.b < profile.xi_c):
            raise ConfigurationError(
                "bump support [%g, %g] must sit inside (0, xi_c = %g)"
                % (f.a, f.b, profile.xi_c)
            )
        if n_radial < 1:
            raise ConfigurationError("a radial rule needs at least one node, not %d" % n_radial)
        self.profile, self.mesh, self.f = profile, mesh, f
        with storable("%d radial nodes" % n_radial):
            np.empty((n_radial, n_radial))  # refuse what leggauss's n x n matrix could not store
            tq, wq = gauss_legendre(n_radial)
        self.r = 0.5 * (f.a + f.b) + 0.5 * (f.b - f.a) * tq
        self.w = 0.5 * (f.b - f.a) * wq
        self.modes = _rates_along(profile, mesh, self.r)
        for rk, m in zip(self.r, self.modes):
            if isinstance(m, Stable):
                raise ConfigurationError(
                    "no growing mode at |xi| = %g inside the bump support" % rk
                )
        self.lam = np.array([m.lam for m in self.modes])
        self.lambda0 = float(self.lam.min())
        self.Lambda = float(self.lam.max())
        if curve is not None:
            self.Lambda = max(self.Lambda, float(curve.Lambda))
        # the fields carry the prefactor (2 pi)^-2 of the inverse transform, so
        # Parseval leaves (2 pi)^-2 times the radial weight, the polar Jacobian
        # |xi|, |f|^2 and the angular integral 2 pi of |w_hat|^2 per node
        self._weights = self.w * self.r * self.f(self.r) ** 2 / (2 * math.pi)

    def _evaluate(self, x, t):
        """(eta, v, q) at points x.

        f and lambda depend on |xi| only, so the angular integral of each
        radial mode is exact (Jacobi-Anger): J0(r s) for the vertical and
        pressure parts, J1(r s) along the horizontal direction of x, where
        s = |x_h|.
        """
        self.growth_factor(t)       # refuse a time at which the sums would be inf or nan
        pts = _as_points(x)
        s = np.hypot(pts[:, 0], pts[:, 1])
        radii, at = np.unique(s, return_inverse=True)  # grid columns share a radius
        top = float(self.r.max()) * float(radii.max(initial=0.0))
        if not math.isfinite(top):     # J0 and J1 of inf are nan
            raise DomainError("|x_h| = %g is too far out for |xi| = %g: the Bessel argument "
                              "|xi| |x_h| overflows" % (radii.max(), self.r.max()))
        rho, values, slopes = _heights(
            self.profile, self.mesh, pts[:, 2],
            [a for m in self.modes for a in (m.phi, m.psi)], [m.psi for m in self.modes])
        safe = np.where(s > 0, s, 1.0)      # on the axis J1 = 0, so any direction will do
        direction = pts[:, :2] / safe[:, None]
        eta_h, eta3, vel_h, vel3, qf = np.zeros((5, pts.shape[0]))
        for rk, wk, lam, ph, ps, psp in zip(self.r, self.w, self.lam,
                                            values[0::2], values[1::2], slopes):
            ck = wk * rk * float(self.f(rk)) * np.exp(lam * t) / (2 * math.pi)
            J0, J1 = (J(rk * radii)[at] for J in (_kernels.j0, _kernels.j1))
            horizontal, vertical = ck * ph * J1, ck * ps * J0
            eta_h += horizontal
            eta3 += vertical
            vel_h += lam * horizontal
            vel3 += lam * vertical
            qf -= ck * rho * (rk * ph + psp) * J0
        shape = np.asarray(x).shape
        eta = np.column_stack([eta_h[:, None] * direction, eta3])
        vel = np.column_stack([vel_h[:, None] * direction, vel3])
        return eta.reshape(shape), vel.reshape(shape), qf.reshape(shape[:-1])
