import math

import numpy as np
import pytest
import scipy.linalg as sla

import rtmodes as rt


def make_profile(sigma=0.1, eps=0.1, delta=0.0, g=1.0, m=1.0, ell=1.0,
                 K_lower=2.0, K_upper=1.0, rho_minus=1.0, L=None):
    """Isothermal two-fluid slab used throughout: K- = 2, K+ = 1, gamma = 1."""
    lower = rt.PressureLaw.polytropic(K_lower, 1.0)
    upper = rt.PressureLaw.polytropic(K_upper, 1.0)
    geom = rt.SlabGeometry(m=m, ell=ell, g=g, sigma=sigma, L=L)
    visc = (
        rt.FluidViscosity(rt.ViscosityLaw.constant(eps), rt.ViscosityLaw.constant(delta)),
        rt.FluidViscosity(rt.ViscosityLaw.constant(eps), rt.ViscosityLaw.constant(delta)),
    )
    return rt.build_profile(lower, upper, rho_minus, geom, visc)


def dense_spectrum(forms, s):
    """All generalized eigenvalues of (E0 + s E1, J) by dense LAPACK: an oracle for the banded solvers."""
    E0, E1, J = forms.dense()
    return sla.eigh(E0 + s * E1, J, eigvals_only=True)


def angular_quadrature(field, x, t):
    """Complex (eta, v, q) of a NonperiodicField by a trapezoid rule in the frequency angle.

    An oracle independent of the field's own evaluation: each radial node's
    mode is rotated onto every angle, (-i phi cos a, -i phi sin a, psi), and
    summed against exp(i xi . x_h), with heights evaluated point by point on
    the side given by the sign of x3 (which must not be 0).  The node count
    exceeds the largest |xi| |x_h| by 64, well past where the rule aliases.
    """
    pts = np.asarray(x, dtype=float).reshape(-1, 3)
    assert np.all(pts[:, 2] != 0.0)
    sides = np.where(pts[:, 2] < 0, -1, 1)
    n = 2 * math.ceil(field.r.max() * np.hypot(pts[:, 0], pts[:, 1]).max() / 2) + 64
    alpha = 2 * math.pi * np.arange(n) / n
    ca, sa = np.cos(alpha), np.sin(alpha)
    mesh, profile = field.mesh, field.profile
    rho = np.array([profile.density(z, side=s) for z, s in zip(pts[:, 2], sides)])
    eta = np.zeros((pts.shape[0], 3), dtype=complex)
    vel = np.zeros_like(eta)
    q = np.zeros(pts.shape[0], dtype=complex)
    for rk, wk, lam, mode in zip(field.r, field.w, field.lam, field.modes):
        ph = mesh.eval_nodal(mode.phi, pts[:, 2])
        ps = mesh.eval_nodal(mode.psi, pts[:, 2])
        psp = np.array([mesh.eval_nodal(mode.psi, z, side=s, deriv=1)[0]
                        for z, s in zip(pts[:, 2], sides)])
        ck = wk * rk * float(field.f(rk)) * math.exp(lam * t) / (2 * math.pi * n)
        phase = np.exp(1j * rk * np.outer(pts[:, 0], ca) + 1j * rk * np.outer(pts[:, 1], sa))
        term = ck * np.column_stack([-1j * ph * (phase @ ca), -1j * ph * (phase @ sa),
                                     ps * phase.sum(axis=1)])
        eta += term
        vel += lam * term
        q += -ck * rho * (rk * ph + psp) * phase.sum(axis=1)
    shape = np.shape(x)
    return eta.reshape(shape), vel.reshape(shape), q.reshape(shape[:-1])


def assert_matches_angular_quadrature(field, x, t):
    """The oracle's sums are real to 1e-10 of the field's scale, and their real
    parts equal the field's eta, v and q to 1e-12 of each one's scale."""
    oracle = angular_quadrature(field, x, t)
    scale = max(np.abs(part).max() for part in oracle)
    for part, value in zip(oracle, (field.eta(x, t), field.v(x, t), field.q(x, t))):
        assert np.abs(part.imag).max() <= 1e-10 * scale
        assert np.allclose(part.real, value, rtol=0.0, atol=1e-12 * np.abs(value).max())


def reachable_formsets(root):
    """Every FormSet reachable from root through attributes and containers."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (np.ndarray, str, bytes, int, float)):
            continue
        seen.add(id(obj))
        if isinstance(obj, rt.FormSet):
            found.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


@pytest.fixture(scope="session")
def profile():
    return make_profile()


@pytest.fixture(scope="session")
def profile_sigma0():
    return make_profile(sigma=0.0)


@pytest.fixture(scope="session")
def mesh32():
    return rt.Mesh.uniform(1.0, 1.0, 32, order=2)


@pytest.fixture(scope="session")
def mesh64():
    return rt.Mesh.uniform(1.0, 1.0, 64, order=2)


@pytest.fixture(scope="session")
def forms_xi1(profile, mesh64):
    return rt.assemble(profile, mesh64, 1.0)


@pytest.fixture(scope="session")
def mode_xi1(profile, mesh64):
    m = rt.growth_rate(profile, mesh64, 1.0)
    assert not isinstance(m, rt.Stable)
    return m


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
