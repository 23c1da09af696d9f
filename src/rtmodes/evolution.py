"""Per-mode linear evolution J u'' + E1 u' + E0 u = 0 and its energy ledger.

The weak per-mode form of the second-order linearized system is integrated
with the implicit midpoint rule: the step matrix is constant and factored
once by banded Cholesky, which needs dt < 2/lambda, the scheme is A-stable
for the stiff viscous branch, and the quadratic energy identity

    d/dt (kinetic + potential) + dissipation rate = 0

is reproduced exactly (to solver roundoff) when the dissipated power is
accumulated at the midpoint states.  A trapezoid accumulation from the
stored endpoint states is kept alongside; its defect measures the O(dt^2)
consistency of the integrator and vanishes under step refinement.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import _band, _factor, _solve, bottom_eig
from .errors import ConfigurationError, DomainError, SolverError
from .forms import Band, assemble


@dataclass
class ModeTrajectory:
    """Trajectory of one frequency's (u, u_dot) pair with per-step ledgers.

    kinetic = u_dot^T J u_dot / 2, potential = u^T E0 u / 2; dissipated_mid
    accumulates dt * u_dot_m^T E1 u_dot_m at the midpoint states (exact
    ledger), dissipated_trap the trapezoid of endpoint powers.  norm1_sq,
    norm2_sq hold u^T (2J) u and u^T (2E1) u; *_dot the same for u_dot.
    states_u, states_v hold the first and the last state, one row each, at
    state_times.
    """

    forms: object
    dt: float
    times: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    dissipated_mid: np.ndarray
    dissipated_trap: np.ndarray
    norm1_sq: np.ndarray
    norm2_sq: np.ndarray
    norm1_dot_sq: np.ndarray
    norm2_dot_sq: np.ndarray
    state_times: np.ndarray
    states_u: np.ndarray = field(repr=False)
    states_v: np.ndarray = field(repr=False)

    def energy(self):
        return self.kinetic + self.potential


def integrate(forms, u0, v0, dt, T):
    """Implicit-midpoint trajectory of (u, u_dot) from (u0, v0) to time T.

    Each step solves M wm = 2 J w - dt E0 u for the midpoint velocity wm,
    with M = 2J + dt E1 + (dt^2/2) E0 = (dt^2/2) Q(2/dt) factored once by
    banded Cholesky, and advances u += dt wm, w = 2 wm - w.  Q(s) = E0 + s E1
    + s^2 J is definite exactly when s > lambda(|xi|), so M factors exactly
    when dt < 2/lambda; past that the step flips the sign of the growing
    mode every step, and a DomainError naming dt and |xi| is raised.
    One stacked mat-vec [J; E1; E0] wm per step carries the products J u,
    E1 u, E0 u, J w, E1 w through the same linear updates and gives the
    midpoint power; every other update is in place.

    The ledgers cover every step; states are kept at steps 0 and N only.
    """
    if dt <= 0 or T < dt:
        raise DomainError("need dt > 0 and T >= dt")
    u0, v0 = forms._check(u0), forms._check(v0)
    u, w = u0.copy(), v0.copy()
    steps = T / dt
    try:
        n_steps = int(round(steps))
        # row i: u J u, u E1 u, u E0 u, w J w, w E1 w at step i; wm E1 wm of the step into i
        ledger = np.zeros((n_steps + 1, 6))
    except (OverflowError, ValueError, MemoryError):
        raise DomainError("dt = %g and T = %g need %.6g steps, more than can be stored"
                          % (dt, T, steps)) from None

    # a dt at which dt^2 or an entry overflows is far past 2 / lambda: a rate below 1e-8 is Stable
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            step = _band((2.0, forms.J), (dt, forms.E1), (0.5 * dt**2, forms.E0))
    except OverflowError:
        step = None
    factor = _factor(step) if step is not None and np.isfinite(step).all() else None
    if factor is None:
        raise DomainError("the midpoint step matrix is not definite at dt = %g for |xi| = %g: "
                          "dt must be below 2 / lambda(|xi|)" % (dt, forms.xi))
    n = forms.n
    S = Band.stacked([forms.J, forms.E1, forms.E0])
    Pu = S(u).reshape(3, n)                 # J u, E1 u, E0 u
    Pw = S(w).reshape(3, n)[:2]             # J w, E1 w
    Jw, E0u = Pw[0], Pu[2]
    rhs = np.empty(n)
    du = np.empty(n)

    nt = n_steps + 1

    def record(i):
        row = ledger[i]
        np.dot(Pu, u, out=row[:3])
        np.dot(Pw, w, out=row[3:5])
        return row

    record(0)
    for i in range(1, nt):
        np.multiply(E0u, -0.5 * dt, out=rhs)
        rhs += Jw
        rhs *= 2.0
        wm = _solve(factor, rhs)            # in place: wm is rhs
        p = S(wm).reshape(3, n)             # J wm, E1 wm, E0 wm
        power = wm @ p[1]
        np.multiply(wm, dt, out=du)
        u += du
        np.subtract(wm, w, out=w)           # w = 2 wm - w
        w += wm
        np.subtract(p[:2], Pw, out=Pw)
        Pw += p[:2]
        p *= dt
        Pu += p
        row = record(i)
        row[5] = power
        if not (math.isfinite(row[2]) and math.isfinite(row[3])):
            raise SolverError("trajectory blew up", {"step": i, "dt": dt})

    n2d = 2.0 * ledger[:, 4]
    dmid = np.zeros(nt)
    dtrap = np.zeros(nt)
    np.cumsum(dt * ledger[1:, 5], out=dmid[1:])
    np.cumsum(0.5 * dt * (n2d[:-1] + n2d[1:]) / 2.0, out=dtrap[1:])
    times = dt * np.arange(nt)
    return ModeTrajectory(
        forms=forms, dt=dt, times=times,
        kinetic=0.5 * ledger[:, 3], potential=0.5 * ledger[:, 2],
        dissipated_mid=dmid, dissipated_trap=dtrap,
        norm1_sq=2.0 * ledger[:, 0], norm2_sq=2.0 * ledger[:, 1],
        norm1_dot_sq=2.0 * ledger[:, 3], norm2_dot_sq=n2d,
        state_times=times[[0, -1]],
        states_u=np.stack([u0, u]), states_v=np.stack([v0, w]),
    )


def energy_identity_check(traj, quadrature="trapezoid"):
    """Max relative defect of the cumulative discrete energy identity.

    quadrature="midpoint" uses the exact ledger (defect is roundoff);
    "trapezoid" accumulates endpoint powers, an O(dt^2)-consistent
    quadrature whose defect halves by ~4x under dt halving.
    """
    if quadrature == "midpoint":
        work = traj.dissipated_mid
    elif quadrature == "trapezoid":
        work = traj.dissipated_trap
    else:
        raise DomainError("quadrature must be 'midpoint' or 'trapezoid'")
    e = traj.energy()
    defect = e - e[0] + work
    scale = np.maximum.accumulate(traj.kinetic + np.abs(traj.potential)) + work + 1e-300
    return float(np.max(np.abs(defect) / scale))


def growth_bound_check(forms, Lambda, tol=1e-8):
    """Positive semidefiniteness of E0 + Lambda E1 + Lambda^2 J against J.

    The discrete statement that the rate Lambda dominates this frequency:
    returns (ok, smallest generalized eigenvalue).
    """
    ev = bottom_eig(forms, 1.0, Lambda, Lambda**2).mu
    return ev >= -tol, ev


def generic_growth_envelope(traj, Lambda, margin=1.05):
    """Exponential envelope check for an arbitrary trajectory.

    The growth theorem bounds lhs(t) = |u_dot(t)|_1^2 + |u(t)|_1^2 +
    |u(t)|_2^2 by C e^{2 Lambda t} B0, with B0 the initial-data combination.
    With C fitted at t = 0, C B0 = lhs(0): B0 cancels, and the check is
    lhs(t) <= margin * lhs(0) * e^{2 Lambda t}.  Zero data (lhs(0) = 0) must
    stay zero.  Returns (ok, worst ratio against the envelope).
    """
    lhs = traj.norm1_dot_sq + traj.norm1_sq + traj.norm2_sq
    if lhs[0] == 0.0:
        return bool(np.all(lhs == 0.0)), 0.0
    ratio = float(np.max(lhs / (margin * lhs[0] * np.exp(2.0 * Lambda * traj.times))))
    return ratio <= 1.0, ratio


def mode_initial_data(mode):
    """(u0, v0) = (minimizer, lambda * minimizer): the exact growing mode."""
    return mode.minimizer.copy(), mode.lam * mode.minimizer


def pencil_consistency(forms, mode):
    """|(lambda^2 J + lambda E1 + E0) u| relative to the pencil scale."""
    u = mode.minimizer
    lam = mode.lam
    r = lam**2 * (forms.J @ u) + lam * (forms.E1 @ u) + forms.E0 @ u
    nE0, nE1, nJ = forms.norms()
    scale = (nE0 + lam * nE1 + lam**2 * nJ) * math.sqrt(u @ u)
    return math.sqrt(r @ r) / scale


# -- periodic small-L stability ------------------------------------------


def spectral_k_constants(forms, u0, v0):
    """(K1, K2) for one mode from its initial data, in the reduced frame.

    K_j combines the weighted kinetic term of d_t^j v(0), the compression
    square of d_t^{j-1} v(0), and the surface-tension trace term; time
    derivatives of v beyond the data come from the evolution operator.
    """
    J, E0, E1, CP = forms.J, forms.E0, forms.E1, forms.compression()
    sig = forms.sigma * forms.xi**2 / 2.0

    def k_of(ud, u):
        psi0 = u[forms.psi0_dof]
        return float(ud @ (J @ ud)) + float(u @ (CP @ u)) + sig * psi0**2

    a0 = -_solve(_factor(_band((1.0, J))), E1 @ v0 + E0 @ u0)
    return k_of(v0, u0), k_of(a0, v0)


@dataclass
class PeriodicStabilityReport:
    """Outcome of the small-period stability battery."""

    L: float
    magnitudes: np.ndarray
    e0_min_eigs: np.ndarray       # per mode, including the xi = 0 entry first
    K1: float
    K2: float
    sqrt_bound_margin: float      # max over t of lhs/rhs for the 3 sqrt(t) bound
    ps0_margin: float             # (sup + integral) / (2 K1)
    ps00_margin: float
    ok: bool


def periodic_stability_check(profile, mesh, L, data, T, dt=0.025):
    """Verify the small-L stability estimates on supplied per-mode data.

    ``data`` is a list of (xi_mag, u0, v0).  Requires L <= sqrt(sigma /
    (g [rho0])); every nonzero lattice magnitude then sits at or beyond the
    critical frequency, E0 is positive semidefinite mode by mode (checked,
    with the xi = 0 certificate from the pure-compression form), and the
    trajectory norms must obey the sqrt(t) bound and the sup/integral
    bounds with the constants K_j computed from the data.
    """
    sigma = profile.geometry.sigma
    if sigma <= 0 or L > profile.L_c:
        raise ConfigurationError(
            "periodic stability requires L <= sqrt(sigma/(g [rho0])); "
            "use the lattice enumeration for larger periods"
        )
    if not data:
        raise ConfigurationError("periodic stability needs at least one (xi_mag, u0, v0) mode")

    # xi = 0 certificate: the energy degenerates to the pure compression
    # stiffness (1/2) int P' rho0 (psi')^2 >= 0.
    f0 = assemble(profile, mesh, 0.0, _allow_zero=True)
    e0_eigs = [bottom_eig(f0, 1.0, 0.0, 0.0).mu]

    ks, trajs = [], []
    for xi_mag, u0, v0 in data:
        forms = assemble(profile, mesh, float(xi_mag))
        e0_eigs.append(bottom_eig(forms, 1.0, 0.0, 0.0).mu)
        ks.append(spectral_k_constants(forms, np.asarray(u0, float), np.asarray(v0, float)))
        trajs.append(integrate(forms, u0, v0, dt, T))

    K1, K2 = (sum(k) for k in zip(*ks))
    n1_sq = sum(t.norm1_sq for t in trajs)
    n2_sq = sum(t.norm2_sq for t in trajs)
    n1d_sq = sum(t.norm1_dot_sq for t in trajs)
    n2d_sq = sum(t.norm2_dot_sq for t in trajs)
    # midpoint accumulation of int |d_t v|_2^2 = 2 * dissipated ledger
    diss_int = sum(2.0 * float(t.dissipated_mid[-1]) for t in trajs)
    lhs = np.sqrt(n1_sq) + np.sqrt(n2_sq)
    rhs = lhs[0] + 3.0 * np.sqrt(trajs[0].times) * math.sqrt(K1)
    if np.any(rhs[1:] > 0):
        sqrt_margin = float(np.max(np.divide(
            lhs[1:], rhs[1:], out=np.zeros_like(lhs[1:]), where=rhs[1:] > 0)))
    else:
        sqrt_margin = float(np.max(lhs[1:]) > 0)
    sup_kin = float(np.max(0.5 * n1d_sq))
    ps0 = (sup_kin + diss_int) / (2.0 * K1) if K1 > 0 else 0.0
    # sup_t |d_t v|_2^2 <= |d_t v(0)|_2^2 + 2 sqrt(K1 K2)
    denom = float(n2d_sq[0]) + 2.0 * math.sqrt(K1 * K2)
    ps00 = float(np.max(n2d_sq)) / denom if denom > 0 else 0.0

    e0_eigs = np.array(e0_eigs)
    ok = bool(np.all(e0_eigs >= -1e-9) and sqrt_margin <= 1.0 and ps0 <= 1.0 and ps00 <= 1.0)
    return PeriodicStabilityReport(
        L=L, magnitudes=np.array([t.forms.xi for t in trajs]), e0_min_eigs=e0_eigs,
        K1=K1, K2=K2, sqrt_bound_margin=sqrt_margin,
        ps0_margin=ps0, ps00_margin=ps00, ok=ok,
    )
