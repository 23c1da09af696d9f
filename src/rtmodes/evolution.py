"""Per-mode linear evolution J u'' + E1 u' + E0 u = 0 and its energy ledger.

The weak per-mode form of the second-order linearized system is integrated
with the implicit midpoint rule: the step matrix is constant and factored
once, the scheme is A-stable for the stiff viscous branch, and the quadratic
energy identity

    d/dt (kinetic + potential) + dissipation rate = 0

is reproduced exactly (to solver roundoff) when the dissipated power is
accumulated at the midpoint states.  A trapezoid accumulation from the
stored endpoint states is kept alongside; its defect measures the O(dt^2)
consistency of the integrator and vanishes under step refinement.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrs

from .eigen import _factor, bottom_eig
from .errors import ConfigurationError, DomainError, SolverError
from .forms import assemble


@dataclass
class ModeTrajectory:
    """Trajectory of one frequency's (u, u_dot) pair with per-step ledgers.

    kinetic = u_dot^T J u_dot / 2, potential = u^T E0 u / 2; dissipated_mid
    accumulates dt * u_dot_m^T E1 u_dot_m at the midpoint states (exact
    ledger), dissipated_trap the trapezoid of endpoint powers.  norm1_sq,
    norm2_sq hold u^T (2J) u and u^T (2E1) u; *_dot the same for u_dot.
    states_u, states_v hold the states at state_times, one row each: by
    default only the first and the last (see :func:`integrate`).
    """

    forms: object
    dt: float
    step_factor: str              # "cholesky" (M definite) or "lu"
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


def _step_solver(forms, dt):
    """Factor M = 2J + dt E1 + (dt^2/2) E0 once; returns (kind, solve).

    M is formed from the cached upper bands of the forms.  Since
    E0 + g xi J >= 0, M >= (2 - dt^2 g xi / 2) J + dt E1 is positive definite
    whenever dt^2 g xi < 4, and banded Cholesky (``dpbtrf``/``dpbtrs``) runs
    on the upper band as it is.  Only when that factorization fails is the
    band mirrored into LAPACK's general band layout (kl = ku = 2 * order + 1,
    plus kl rows for the fill-in of partial pivoting) and factored by LU.
    Both solves overwrite their right-hand side.
    """
    E0b, E1b, Jb = forms._bands
    upper = 2.0 * Jb + dt * E1b + 0.5 * dt**2 * E0b
    chol = _factor(upper)
    if chol is not None:
        return "cholesky", lambda b: dpbtrs(chol, b, overwrite_b=1)[0]
    k = Jb.shape[0] - 1
    ab = np.zeros((3 * k + 1, forms.n))
    ab[k:2 * k + 1] = upper
    for d in range(1, k + 1):       # subdiagonal d mirrors superdiagonal d
        ab[2 * k + d, :-d] = upper[k - d, d:]
    lu, piv, info = dgbtrf(ab, k, k, overwrite_ab=1)
    if info != 0:
        raise SolverError("step matrix factorization failed", {"dt": dt})
    return "lu", lambda b: dgbtrs(lu, k, k, b, piv, overwrite_b=1)[0]


def integrate(forms, u0, v0, dt, T, store_every=None):
    """Implicit-midpoint trajectory of (u, u_dot) from (u0, v0) to time T.

    Each step solves M wm = 2 J w - dt E0 u for the midpoint velocity wm,
    with M = 2J + dt E1 + (dt^2/2) E0 factored once from the cached bands
    (banded Cholesky when M is definite, banded LU otherwise), and advances
    u += dt wm, w = 2 wm - w.  One stacked mat-vec [J; E1; E0] wm per step
    carries the products J u, E1 u, E0 u, J w, E1 w through the same linear
    updates and gives the midpoint power; every other update is in place.

    The ledgers cover every step.  States are stored at steps 0 and N only,
    or, with ``store_every = k`` (an integer >= 1), at steps 0, k, 2k, ...
    and N, written straight into preallocated arrays.
    """
    if dt <= 0 or T < dt:
        raise DomainError("need dt > 0 and T >= dt")
    if store_every is not None and not (isinstance(store_every, numbers.Integral)
                                        and store_every >= 1):
        raise DomainError("store_every must be an integer >= 1, got %r" % (store_every,))
    u = forms._check(u0).copy()
    w = forms._check(v0).copy()
    steps = T / dt
    try:
        n_steps = int(round(steps))
        # row i: u J u, u E1 u, u E0 u, w J w, w E1 w at step i; wm E1 wm of the step into i
        ledger = np.zeros((n_steps + 1, 6))
    except (OverflowError, ValueError, MemoryError):
        raise DomainError("dt = %g and T = %g need %.6g steps, more than can be stored"
                          % (dt, T, steps)) from None
    every = n_steps if store_every is None else int(store_every)

    kind, solve = _step_solver(forms, dt)
    n = forms.n
    S = sp.vstack([forms.J, forms.E1, forms.E0], format="csr")
    Pu = (S @ u).reshape(3, n)              # J u, E1 u, E0 u
    Pw = (S @ w).reshape(3, n)[:2]          # J w, E1 w
    Jw, E0u = Pw[0], Pu[2]
    rhs = np.empty(n)
    du = np.empty(n)

    nt = n_steps + 1
    stored = list(range(0, nt, every))
    if stored[-1] != n_steps:
        stored.append(n_steps)
    states_u = np.empty((len(stored), n))
    states_v = np.empty((len(stored), n))

    def record(i):
        row = ledger[i]
        np.dot(Pu, u, out=row[:3])
        np.dot(Pw, w, out=row[3:5])
        if i % every == 0 or i == n_steps:
            k = -1 if i == n_steps else i // every
            states_u[k] = u
            states_v[k] = w
        return row

    record(0)
    for i in range(1, nt):
        np.multiply(E0u, -0.5 * dt, out=rhs)
        rhs += Jw
        rhs *= 2.0
        wm = solve(rhs)                     # in place: wm is rhs
        p = (S @ wm).reshape(3, n)          # J wm, E1 wm, E0 wm
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
    return ModeTrajectory(
        forms=forms, dt=dt, step_factor=kind, times=dt * np.arange(nt),
        kinetic=0.5 * ledger[:, 3], potential=0.5 * ledger[:, 2],
        dissipated_mid=dmid, dissipated_trap=dtrap,
        norm1_sq=2.0 * ledger[:, 0], norm2_sq=2.0 * ledger[:, 1],
        norm1_dot_sq=2.0 * ledger[:, 3], norm2_dot_sq=n2d,
        state_times=dt * np.asarray(stored, dtype=float),
        states_u=states_u, states_v=states_v,
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
    ev = bottom_eig(forms, forms.E0 + Lambda * forms.E1 + Lambda**2 * forms.J).mu
    return ev >= -tol, ev


def generic_growth_envelope(traj, Lambda, margin=1.05):
    """Exponential envelope check for an arbitrary trajectory.

    Verifies |u_dot(t)|_1^2 + |u(t)|_1^2 + |u(t)|_2^2 <= margin * C *
    e^{2 Lambda t} * B0 with C fitted at t = 0, where B0 is the initial-data
    combination of the growth theorem (the sigma-trace term rides in the E0
    bookkeeping).  Returns (ok, worst ratio against the envelope).
    """
    forms = traj.forms
    lhs = traj.norm1_dot_sq + traj.norm1_sq + traj.norm2_sq
    psi0 = traj.states_u[0][forms.psi0_dof]
    b0 = traj.norm1_dot_sq[0] + traj.norm1_sq[0] + traj.norm2_sq[0] \
        + forms.sigma * forms.xi**2 * psi0**2
    C = lhs[0] / b0 if b0 > 0 else 0.0
    envelope = margin * C * b0 * np.exp(2.0 * Lambda * traj.times)
    if b0 == 0.0:
        return bool(np.all(lhs == 0.0)), 0.0
    ratio = float(np.max(lhs / envelope))
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
    scale = (nE0 + lam * nE1 + lam**2 * nJ) * float(np.linalg.norm(u))
    return float(np.linalg.norm(r)) / scale


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

    a0 = -sla.cho_solve_banded((_factor(forms._bands[2]), False), E1 @ v0 + E0 @ u0,
                               check_finite=False)
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

    # xi = 0 certificate: the energy degenerates to the pure compression
    # stiffness (1/2) int P' rho0 (psi')^2 >= 0.
    f0 = assemble(profile, mesh, 0.0, _allow_zero=True)
    e0_eigs = [bottom_eig(f0, f0.E0).mu]

    mags = []
    K1 = K2 = 0.0
    n1_sq = n2_sq = n1d_sq = n2d_sq = None
    diss_int = 0.0
    times = None

    for xi_mag, u0, v0 in data:
        forms = assemble(profile, mesh, float(xi_mag))
        e0_eigs.append(bottom_eig(forms, forms.E0).mu)
        k1, k2 = spectral_k_constants(forms, np.asarray(u0, float), np.asarray(v0, float))
        K1 += k1
        K2 += k2
        traj = integrate(forms, u0, v0, dt, T)
        if times is None:
            times = traj.times
            n1_sq = np.zeros_like(times)
            n2_sq = np.zeros_like(times)
            n1d_sq = np.zeros_like(times)
            n2d_sq = np.zeros_like(times)
        n1_sq += traj.norm1_sq
        n2_sq += traj.norm2_sq
        n1d_sq += traj.norm1_dot_sq
        n2d_sq += traj.norm2_dot_sq
        # midpoint accumulation of int |d_t v|_2^2 = 2 * dissipated ledger
        diss_int += 2.0 * float(traj.dissipated_mid[-1])
        mags.append(float(xi_mag))

    lhs = np.sqrt(n1_sq) + np.sqrt(n2_sq)
    rhs = lhs[0] + 3.0 * np.sqrt(times) * math.sqrt(K1)
    if np.any(rhs[1:] > 0):
        sqrt_margin = float(np.max(np.divide(
            lhs[1:], rhs[1:], out=np.zeros_like(lhs[1:]), where=rhs[1:] > 0)))
    else:
        sqrt_margin = float(np.max(lhs[1:]) > 0)
    sup_kin = float(np.max(0.5 * n1d_sq))
    n2d_sq_sup = float(np.max(n2d_sq))
    n2d_sq_0 = float(n2d_sq[0])
    ps0 = (sup_kin + diss_int) / (2.0 * K1) if K1 > 0 else 0.0
    # sup_t |d_t v|_2^2 <= |d_t v(0)|_2^2 + 2 sqrt(K1 K2)
    denom = n2d_sq_0 + 2.0 * math.sqrt(K1 * K2)
    ps00 = n2d_sq_sup / denom if denom > 0 else 0.0

    e0_eigs = np.array(e0_eigs)
    ok = bool(np.all(e0_eigs >= -1e-9) and sqrt_margin <= 1.0 and ps0 <= 1.0 and ps00 <= 1.0)
    return PeriodicStabilityReport(
        L=L, magnitudes=np.array(mags), e0_min_eigs=e0_eigs,
        K1=K1, K2=K2, sqrt_bound_margin=sqrt_margin,
        ps0_margin=ps0, ps00_margin=ps00, ok=ok,
    )
