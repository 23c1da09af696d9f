"""3D growing solutions from 1D mode profiles.

A reduced-frame mode (phi, psi) at frequency magnitude r generates the whole
circle |xi| = r by rotation equivariance: (phi, theta)(xi) = R^{-1} (phi, 0)
where R xi = (r, 0), with psi unchanged.  Periodic solutions are a single
conjugate pair of lattice modes; non-periodic solutions superpose a radial
bump f of frequencies over an annulus inside (0, xi_c).  Their radial
integral is a Gauss-Legendre rule; the angular integral is exact, since f
and lambda depend on |xi| only and it reduces to the Bessel functions J0
and J1 of |xi| |x_h|.  Norms live in the piecewise Sobolev spaces: full
regularity on each fluid domain, none across the interface.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Stable, growth_rate, lattice_modes
from .errors import ConfigurationError, DomainError
from .profile import by_side
from .residuals import ode_second_derivatives

_MAX_SOBOLEV_ORDER = 2   # x3-derivative bootstrap depth for (phi, psi)


@dataclass
class NormalMode3D:
    """w_hat(xi, x3) = (-i phi, -i theta, psi) for one planar frequency."""

    xi: np.ndarray
    lam: float
    phi: np.ndarray     # nodal amplitude of the e_1 component
    theta: np.ndarray   # nodal amplitude of the e_2 component
    psi: np.ndarray
    mesh: object

    def w_hat(self, x3, side=None):
        """Complex triple at heights x3."""
        f = self.mesh.eval_nodal(self.phi, x3, side=side)
        t = self.mesh.eval_nodal(self.theta, x3, side=side)
        p = self.mesh.eval_nodal(self.psi, x3, side=side)
        return np.stack([-1j * f, -1j * t, p], axis=-1)


def extend_to_plane(mode, xi_vec):
    """Rotate a reduced-frame mode onto the frequency vector xi_vec.

    Exact by construction: (phi, theta) = R^{-1}(phi_reduced, 0) with psi
    fixed, for the rotation R carrying xi_vec to (|xi_vec|, 0).
    """
    xi_vec = np.asarray(xi_vec, dtype=float)
    mag = float(np.hypot(xi_vec[0], xi_vec[1]))
    if abs(mag - mode.xi_mag) > 1e-12 * max(1.0, mode.xi_mag):
        raise DomainError(
            "frequency magnitude %.17g does not match the mode's %.17g" % (mag, mode.xi_mag)
        )
    c, s = xi_vec[0] / mag, xi_vec[1] / mag
    return NormalMode3D(
        xi=xi_vec, lam=mode.lam,
        phi=c * mode.phi, theta=s * mode.phi, psi=mode.psi.copy(),
        mesh=mode.mesh,
    )


class BumpProfile:
    """Standard compactly supported bump amp * exp(-1/(1-u^2)) on [a, b]."""

    def __init__(self, a, b, amp=1.0):
        if not (0 < a < b):
            raise ConfigurationError("bump support needs 0 < a < b")
        self.a, self.b, self.amp = float(a), float(b), float(amp)

    @classmethod
    def default(cls, xi_c, amp=1.0):
        """Supported on the middle 40% of (0, xi_c)."""
        if not math.isfinite(xi_c):
            raise ConfigurationError("default bump needs a finite xi_c; pass a, b explicitly")
        return cls(0.3 * xi_c, 0.7 * xi_c, amp)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        u = (2 * r - self.a - self.b) / (self.b - self.a)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = self.amp * np.exp(-1.0 / (1.0 - u[inside] ** 2))
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


def _sample(evaluate, grid):
    """Columns x1, x2, x3, eta1..3, v1..3, q of ``evaluate(points) -> (eta, v, q)``
    on the rectilinear grid (x1s, x2s, x3s)."""
    X = np.meshgrid(*(np.asarray(g, dtype=float) for g in grid), indexing="ij")
    eta, vel, qf = evaluate(np.stack(X, axis=-1))
    cols = {f"x{i + 1}": X[i].ravel() for i in range(3)}
    cols.update({f"eta{i + 1}": eta[..., i].ravel() for i in range(3)})
    cols.update({f"v{i + 1}": vel[..., i].ravel() for i in range(3)})
    cols["q"] = qf.ravel()
    return cols


class _ModeProfileTable:
    """Gauss-point samples of a mode and its x3-derivatives over both fluids.

    Gauss points never lie on an element break, so one ``profile.fields``
    call and side-free nodal evaluations give each fluid's own values; the
    integrals below are piecewise (no regularity across the interface)
    without a per-side split.
    """

    def __init__(self, profile, mesh, lam, phi, psi, xi):
        xq = mesh.quad_x.ravel()
        self.weights = mesh.quad_w.ravel()
        fields = profile.fields(xq)
        self.phi, self.psi = ode_second_derivatives(
            fields, profile.geometry.g, mesh, phi, psi, xi, lam, -lam**2, xq)
        self.rho, self.rho_prime = fields["rho"], fields["rho_prime"]

    def w_sq_integral(self, j):
        """int over both sides of (d^j phi)^2 + (d^j psi)^2."""
        if j > _MAX_SOBOLEV_ORDER:
            raise DomainError("x3-derivative order %d exceeds the bootstrap depth" % j)
        return float(np.sum(self.weights * (self.phi[j] ** 2 + self.psi[j] ** 2)))

    def q_sq_integral(self, j, r):
        """int of (d^j q-profile)^2 with q-profile = -rho0 (r phi + psi')."""
        if j > 1:
            raise DomainError("q-profile derivatives available up to order 1")
        base = r * self.phi[0] + self.psi[1]
        if j == 0:
            q = self.rho * base
        else:
            q = self.rho_prime * base + self.rho * (r * self.phi[1] + self.psi[2])
        return float(np.sum(self.weights * q**2))


def _sobolev_weighted(table, which, k, r, lam, t, coeff):
    """Sum_j (1 + r^2)^{k-j} ||d^j profile||^2 with the field's amplitude."""
    amp = coeff * math.exp(lam * t)
    if which == "v":
        amp *= lam
    total = 0.0
    for j in range(k + 1):
        if which == "q":
            d = table.q_sq_integral(j, r)
        else:
            d = table.w_sq_integral(j)
        total += (1.0 + r**2) ** (k - j) * d
    return amp**2 * total


class PeriodicField:
    """Conjugate pair of maximizing lattice modes: exact normal-mode growth."""

    def __init__(self, profile, mesh, L, lattice=None):
        if profile.geometry.sigma > 0 and L <= profile.L_c:
            raise ConfigurationError(
                "period scale L is inside the stability certificate: "
                "no growing lattice mode exists"
            )
        if lattice is None:
            lattice = lattice_modes(profile, mesh, L)
        if lattice.certificate or lattice.Lambda_L <= 0:
            raise ConfigurationError("lattice carries no growing mode (stability certificate)")
        self.profile, self.mesh, self.L = profile, mesh, L
        self.lattice = lattice
        k = int(np.argmax(lattice.points[:, 3]))
        mag = lattice.points[k, 2]
        cands = lattice.points[np.isclose(lattice.points[:, 2], mag)]
        cands = sorted(map(tuple, cands[:, :2]))
        k1, k2 = cands[-1]  # deterministic representative; its negation is the partner
        self.xi1 = np.array([k1 / L, k2 / L])
        self.Lambda_L = float(lattice.Lambda_L)
        self.mode = lattice.modes[round(float(mag), 12)]
        self.mode3d = extend_to_plane(self.mode, self.xi1)
        self._table = None

    def _evaluate(self, x, t):
        """(eta, v, q) at points x from one evaluation of the mode's heights."""
        pts = _as_points(x)
        x3 = pts[:, 2]
        mesh, m3 = self.mesh, self.mode3d
        f, th, p, phi_r = (mesh.eval_nodal(a, x3)
                           for a in (m3.phi, m3.theta, m3.psi, self.mode.phi))
        rho, pp = by_side(x3, lambda xs, s: np.stack(
            [self.profile.density(xs, side=s), mesh.eval_nodal(m3.psi, xs, side=s, deriv=1)],
            axis=-1)).T
        phase = pts[:, 0] * self.xi1[0] + pts[:, 1] * self.xi1[1]
        amp = self.growth_factor(t)
        shape = np.asarray(x).shape
        eta = amp * np.stack(
            [2 * f * np.sin(phase), 2 * th * np.sin(phase), 2 * p * np.cos(phase)], axis=-1
        ).reshape(shape)
        q = -rho * 2 * (self.mode.xi_mag * phi_r + pp) * np.cos(phase)
        return eta, self.Lambda_L * eta, amp * q.reshape(shape[:-1])

    def growth_factor(self, t):
        """e^{Lambda_L t}, the amplitude at time t; DomainError where it overflows."""
        return _growth_factor(self.Lambda_L, t)

    def eta(self, x, t=0.0):
        return self._evaluate(x, t)[0]

    def v(self, x, t=0.0):
        return self._evaluate(x, t)[1]

    def q(self, x, t=0.0):
        return self._evaluate(x, t)[2]

    def sample(self, grid, t=0.0):
        """Point samples on a rectilinear grid (x1s, x2s, x3s)."""
        return _sample(lambda pts: self._evaluate(pts, t), grid)

    def table(self):
        if self._table is None:
            self._table = _ModeProfileTable(
                self.profile, self.mesh, self.mode.lam,
                self.mode.phi, self.mode.psi, self.mode.xi_mag,
            )
        return self._table

    def sobolev_norm(self, which="eta", k=0, t=0.0):
        """Fourier-side piecewise H^k norm of eta, v, or q at time t.

        The representation is the conjugate pair, each with coefficient
        (2 pi L)^2 w_hat; the Parseval prefactor 1/(4 pi^2 L^2) leaves
        4 pi^2 L^2 * (pair sum).
        """
        if which not in ("eta", "v", "q"):
            raise DomainError("which must be eta, v, or q")
        r = self.mode.xi_mag
        val = _sobolev_weighted(self.table(), which, k, r, self.Lambda_L, t, 1.0)
        return math.sqrt(4 * math.pi**2 * self.L**2 * 2.0 * val)


class NonperiodicField:
    """Fourier synthesis of growing modes against a radial bump f.

    ``n_radial`` Gauss-Legendre nodes sample |xi| over the bump's support;
    the angular integral at each node is evaluated exactly by J0 and J1.
    """

    def __init__(self, profile, mesh, f, n_radial=16, curve=None):
        if profile.geometry.sigma > 0 and not (0 < f.a < f.b < profile.xi_c):
            raise ConfigurationError(
                "bump support [%g, %g] must sit inside (0, xi_c = %g)"
                % (f.a, f.b, profile.xi_c)
            )
        self.profile, self.mesh, self.f = profile, mesh, f
        tq, wq = np.polynomial.legendre.leggauss(n_radial)
        self.r = 0.5 * (f.a + f.b) + 0.5 * (f.b - f.a) * tq
        self.w = 0.5 * (f.b - f.a) * wq
        self.modes = []
        lams = []
        for rk in self.r:
            m = growth_rate(profile, mesh, float(rk))
            if isinstance(m, Stable):
                raise ConfigurationError(
                    "no growing mode at |xi| = %g inside the bump support" % rk
                )
            self.modes.append(m)
            lams.append(m.lam)
        self.lam = np.array(lams)
        self.lambda0 = float(self.lam.min())
        self.Lambda = float(self.lam.max())
        if curve is not None:
            self.Lambda = max(self.Lambda, float(curve.Lambda))
        self._tables = None

    # -- field evaluation -------------------------------------------------

    def _mode_heights(self, x3):
        """rho0, and phi, psi, psi' of every radial mode, at heights x3."""
        mesh = self.mesh
        sided = by_side(x3, lambda xs, s: np.stack(
            [self.profile.density(xs, side=s)]
            + [mesh.eval_nodal(m.psi, xs, side=s, deriv=1) for m in self.modes], axis=-1))
        heights = [(mesh.eval_nodal(m.phi, x3), mesh.eval_nodal(m.psi, x3), sided[:, k + 1])
                   for k, m in enumerate(self.modes)]
        return sided[:, 0], heights

    def _evaluate(self, x, t):
        """(eta, v, q) at points x.

        f and lambda depend on |xi| only, so the angular integral of each
        radial mode is exact (Jacobi-Anger): J0(r s) for the vertical and
        pressure parts, J1(r s) along the horizontal direction of x, where
        s = |x_h|.
        """
        from scipy.special import j0, j1   # here, so that importing rtmodes skips scipy.special

        self.growth_factor(t)       # refuse a time at which the sums would be inf or nan
        pts = _as_points(x)
        rho, heights = self._mode_heights(pts[:, 2])
        s = np.hypot(pts[:, 0], pts[:, 1])
        safe = np.where(s > 0, s, 1.0)      # on the axis J1 = 0, so any direction will do
        direction = pts[:, :2] / safe[:, None]
        eta_h, eta3, vel_h, vel3, qf = np.zeros((5, pts.shape[0]))
        for rk, wk, lam, (ph, ps, psp) in zip(self.r, self.w, self.lam, heights):
            ck = wk * rk * float(self.f(rk)) * np.exp(lam * t) / (2 * math.pi)
            J0, J1 = j0(rk * s), j1(rk * s)
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

    def growth_factor(self, t):
        """e^{lambda t} of the fastest radial node; DomainError where it overflows."""
        return _growth_factor(float(self.lam.max()), t)

    def eta(self, x, t=0.0):
        return self._evaluate(x, t)[0]

    def v(self, x, t=0.0):
        return self._evaluate(x, t)[1]

    def q(self, x, t=0.0):
        return self._evaluate(x, t)[2]

    def sample(self, grid, t=0.0):
        """Point samples on a rectilinear grid (x1s, x2s, x3s)."""
        return _sample(lambda pts: self._evaluate(pts, t), grid)

    # -- spectral-side norms -----------------------------------------------

    def tables(self):
        if self._tables is None:
            self._tables = [
                _ModeProfileTable(self.profile, self.mesh, m.lam, m.phi, m.psi, m.xi_mag)
                for m in self.modes
            ]
        return self._tables

    def sobolev_norm(self, which="eta", k=0, t=0.0):
        """Radial-quadrature piecewise H^k norm of eta, v, or q at time t."""
        if which not in ("eta", "v", "q"):
            raise DomainError("which must be eta, v, or q")
        total = 0.0
        for rk, wk, lam, table in zip(self.r, self.w, self.lam, self.tables()):
            fr = float(self.f(rk))
            total += wk * rk * _sobolev_weighted(table, which, k, rk, lam, t, fr) / (2 * math.pi)
        return math.sqrt(total)

    def interface_displacement_l2(self, patch_radius=None, n=48):
        """L2 norm of eta_3(., 0, 0) over a horizontal patch (reality check
        that vertical interface displacement is genuinely excited)."""
        if patch_radius is None:
            patch_radius = 2 * math.pi / self.f.a
        xs = np.linspace(-patch_radius, patch_radius, n)
        X1, X2 = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([X1, X2, np.zeros_like(X1)], axis=-1)
        vals = self.eta(pts, 0.0)[..., 2]
        area = (xs[1] - xs[0]) ** 2
        return math.sqrt(float(np.sum(vals**2) * area))
