"""Acceptance battery for the default configuration.

Default setup: isothermal laws K- = 2, K+ = 1, gamma = 1, rho- = 1, g = 1,
m = ell = 1, sigma = 0.1, constant eps = 0.1, delta = 0; 256 quadratic
elements per side.  Every criterion prints its own pass/fail line (run with
`pytest -s tests/test_acceptance.py` to see them stream).
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

import rtmodes as rt
from conftest import assert_matches_angular_quadrature
from rtmodes.eigen import smallest_eig


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} [{name}]: FAIL")
        raise
    print(f"criterion {num:2d} [{name}]: PASS")


@pytest.fixture(scope="module")
def mesh128():
    return rt.Mesh.uniform(1.0, 1.0, 128, order=2)


@pytest.fixture(scope="module")
def mesh256():
    return rt.Mesh.uniform(1.0, 1.0, 256, order=2)


@pytest.fixture(scope="module")
def mesh512():
    return rt.Mesh.uniform(1.0, 1.0, 512, order=2)


@pytest.fixture(scope="module")
def curve256(profile, mesh256):
    return rt.sweep(profile, mesh256, 0.02 * profile.xi_c, 0.98 * profile.xi_c, n=48)


@pytest.fixture(scope="module")
def curve512(profile, mesh512):
    return rt.sweep(profile, mesh512, 0.02 * profile.xi_c, 0.98 * profile.xi_c, n=48)


@pytest.fixture(scope="module")
def argmax_mode(curve256):
    assert curve256.argmax_mode is not None
    return curve256.argmax_mode


@pytest.fixture(scope="module")
def lattice_unit(profile, mesh256):
    return rt.lattice_modes(profile, mesh256, 1.0)


def test_01_hydrostatic_residual(profile):
    with criterion(1, "hydrostatic residual and FD order"):
        r1 = rt.verify_hydrostatic(profile, h_fd=1e-4)
        r2 = rt.verify_hydrostatic(profile, h_fd=5e-5)
        assert r1 <= 1e-6
        assert 0.8 * 4 <= r1 / r2 <= 1.2 * 4


def test_02_variational_lower_bound(profile, mesh256):
    with criterion(2, "mu(s) >= -g|xi| - 1e-9"):
        for xi in (0.1, 1.0, 3.0):
            forms = rt.assemble(profile, mesh256, xi)
            for s in (0.01, 0.1, 1.0, 10.0):
                assert smallest_eig(forms, s).mu >= -profile.geometry.g * xi - 1e-9


def test_03_mu_monotone_lipschitz(profile, mesh256):
    with criterion(3, "mu monotone + Lipschitz in s"):
        forms = rt.assemble(profile, mesh256, 1.0)
        ss = np.geomspace(0.01, 10.0, 20)
        res = [smallest_eig(forms, s) for s in ss]
        mus = np.array([r.mu for r in res])
        e1s = np.array([r.minimizer @ (forms.E1 @ r.minimizer) for r in res])
        dmu = np.diff(mus)
        assert np.all(dmu >= 0)
        assert np.all(dmu[e1s[1:] > 1e-12] > 0)
        K = e1s.max()
        assert np.all(np.abs(dmu) <= K * np.diff(ss) + 1e-10)


def test_04_instability_window(profile, mesh256):
    with criterion(4, "unstable inside the window, stable at and beyond xi_c"):
        xi_c = profile.xi_c
        for xi in np.geomspace(0.051 * xi_c, 0.949 * xi_c, 9):
            m = rt.growth_rate(profile, mesh256, float(xi))
            assert not isinstance(m, rt.Stable), f"unexpected Stable at {xi}"
            assert m.lam > 0
            assert m.fixed_point_residual <= 1e-9
        for xi in (xi_c, 1.5 * xi_c, 3.0 * xi_c):
            assert isinstance(rt.growth_rate(profile, mesh256, float(xi)), rt.Stable)


def test_05_rate_bounds(profile, curve256):
    with criterion(5, "lambda^2 <= g|xi| and the sigma-chained bound"):
        g = profile.geometry.g
        sigma = profile.geometry.sigma
        assert np.all(curve256.lam**2 <= g * curve256.xi + 1e-8)
        chained = g * (g * profile.rho_jump - sigma * curve256.xi**2) / (sigma * curve256.xi)
        assert np.all(curve256.lam**2 <= chained + 1e-6)
        assert curve256.residual.max() <= 1e-9


def test_06_endpoint_limits(curve256):
    with criterion(6, "rates at sweep endpoints below Lambda / 3"):
        lo, hi = curve256.endpoint_rates
        assert lo < curve256.Lambda / 3
        assert hi < curve256.Lambda / 3


def test_07_mode_fidelity(profile, mesh128, mesh256, mesh512, curve256):
    with criterion(7, "strong form + jumps refine at order >= 1.5; psi(0) != 0"):
        xi = profile.xi_c / 2
        resids, jumps = [], []
        for mesh in (mesh128, mesh256, mesh512):
            m = rt.growth_rate(profile, mesh, xi)
            resids.append(m.ode_residual)
            jumps.append(m.jump_residuals)
        resids = np.array(resids)
        orders = np.log2(resids[:-1] / resids[1:])
        assert np.all(orders >= 1.5), f"ODE residual orders {orders}"
        jumps = np.array(jumps)
        assert np.all(jumps[:, :2] == 0.0)          # continuity is structural
        jorders = np.log2(jumps[:-1, 2:] / jumps[1:, 2:])
        assert np.all(jorders >= 1.5), f"jump orders {jorders}"
        assert np.all(np.abs(curve256.psi0) >= 1e-6)


def test_08_lambda_mesh_convergence(curve256, curve512):
    with criterion(8, "Lambda changes <= 0.5% under mesh doubling"):
        rel = abs(curve512.Lambda - curve256.Lambda) / curve256.Lambda
        assert rel <= 5e-3, f"relative change {rel}"


def test_09_lattice_certificate_and_bound(profile, mesh256, lattice_unit, curve256):
    with criterion(9, "small-L certificate empty; Lambda_L <= Lambda + 1e-3"):
        L_small = math.sqrt(profile.geometry.sigma / (profile.geometry.g * profile.rho_jump))
        lat = rt.lattice_modes(profile, mesh256, L_small)
        assert lat.certificate and lat.unstable_count == 0
        assert lattice_unit.unstable_count > 0
        assert lattice_unit.Lambda_L <= curve256.Lambda + 1e-3


@pytest.fixture(scope="module")
def argmax_trajectories(argmax_mode):
    lam = argmax_mode.lam
    u0, v0 = rt.mode_initial_data(argmax_mode)
    dt = 1e-3 / lam
    full = rt.integrate(argmax_mode.forms, u0, v0, dt, 3.0 / lam)
    half = rt.integrate(argmax_mode.forms, u0, v0, dt / 2, 3.0 / lam)
    return full, half


def test_10_growing_mode_evolution(argmax_mode, argmax_trajectories):
    with criterion(10, "e^{lambda t} growth reproduced; pencil consistency"):
        lam = argmax_mode.lam
        traj, _ = argmax_trajectories
        T = traj.times[-1]
        log_growth = 0.5 * math.log(traj.norm1_sq[-1] / traj.norm1_sq[0])
        assert abs(log_growth - lam * T) <= 0.01 * lam * T
        assert rt.pencil_consistency(argmax_mode.forms, argmax_mode) <= 1e-8


def test_11_energy_identity(argmax_mode, argmax_trajectories):
    with criterion(11, "energy identity: defect <= 1e-6, O(dt^2) quadrature error"):
        lam = argmax_mode.lam
        u0, v0 = rt.mode_initial_data(argmax_mode)
        default = rt.integrate(argmax_mode.forms, u0, v0,
                               min(1e-2, 1e-2 / lam), 3.0 / lam)
        assert rt.energy_identity_check(default, "midpoint") <= 1e-6
        full, half = argmax_trajectories
        d1 = rt.energy_identity_check(full, "trapezoid")
        d2 = rt.energy_identity_check(half, "trapezoid")
        assert 3.3 <= d1 / d2 <= 4.7, f"defect ratio {d1 / d2}"


def test_12_lambda_envelope_matrix(profile, mesh256, curve256):
    with criterion(12, "E0 + Lambda E1 + Lambda^2 J PSD; fails at Lambda/2"):
        Lam = curve256.Lambda
        mags = list(np.geomspace(curve256.xi[0], curve256.xi[-1], 9)) + [curve256.argmax_xi]
        for xi in mags:
            forms = rt.assemble(profile, mesh256, float(xi))
            ok, ev = rt.growth_bound_check(forms, Lam)
            assert ok, f"min eig {ev} at xi = {xi}"
        forms = rt.assemble(profile, mesh256, curve256.argmax_xi)
        ok_half, ev_half = rt.growth_bound_check(forms, Lam / 2)
        assert not ok_half and ev_half < -1e-8


def test_13_periodic_stability(profile, mesh256):
    with criterion(13, "small-period stability bounds over T = 50"):
        L = 0.3
        mags = np.hypot(*np.mgrid[0:5, 0:5]).ravel() / L
        mags = sorted(set(np.round(mags[mags > 0], 12)))[:8]
        rng = np.random.default_rng(2024)
        data = []
        for m in mags:
            forms = rt.assemble(profile, mesh256, float(m))
            data.append((float(m), rng.standard_normal(forms.n), rng.standard_normal(forms.n)))
        report = rt.periodic_stability_check(profile, mesh256, L, data, T=50.0, dt=0.025)
        assert np.all(report.e0_min_eigs >= -1e-9)
        assert report.sqrt_bound_margin <= 1.0
        assert report.ps0_margin <= 1.0
        assert report.ps00_margin <= 1.0


def test_14_synthesis_reality_and_sandwich(profile, mesh256, curve256):
    with criterion(14, "synthesis real, growth sandwich, rotation equivariance"):
        f = rt.BumpProfile.default(profile.xi_c)
        field = rt.NonperiodicField(profile, mesh256, f, n_radial=16, curve=curve256)
        rng = np.random.default_rng(99)
        pts = np.column_stack([rng.uniform(-2, 2, 10), rng.uniform(-2, 2, 10),
                               rng.uniform(-0.95, 0.95, 10)])
        eta = field.eta(pts, 1.0)
        assert_matches_angular_quadrature(field, pts, 1.0)
        n0 = field.sobolev_norm("v", k=2, t=0.0)
        for t in (1.0, 2.0):
            ratio = field.sobolev_norm("v", k=2, t=t) / n0
            assert math.exp(field.lambda0 * t) <= ratio <= math.exp(field.Lambda * t)
        th = 0.813
        R = np.array([[math.cos(th), -math.sin(th), 0.0],
                      [math.sin(th), math.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        scale = np.abs(eta).max()
        assert np.allclose(field.eta(pts @ R.T, 1.0), eta @ R.T, atol=1e-10 * scale)


def test_15_parseval_consistency(profile, mesh256, lattice_unit):
    with criterion(15, "piecewise H^0 norm matches direct 3D quadrature"):
        field = rt.PeriodicField(profile, mesh256, 1.0, lattice=lattice_unit)
        spectral = field.sobolev_norm("eta", k=0, t=0.0) ** 2
        L = field.L
        nang = 33
        xs = np.linspace(0, 2 * math.pi * L, nang, endpoint=False)
        mesh = field.mesh
        direct = 0.0
        for side in (-1, +1):
            msk = mesh.element_side == side
            xq = mesh.quad_x[msk].ravel()
            wq = mesh.quad_w[msk].ravel()
            X1, X2, X3 = np.meshgrid(xs, xs, xq, indexing="ij")
            ptns = np.stack([X1, X2, X3], axis=-1)
            vals = field.eta(ptns, 0.0)
            w3 = np.broadcast_to(wq, X3.shape)
            direct += float(np.sum(np.sum(vals**2, axis=-1) * w3)) * (2 * math.pi * L / nang) ** 2
        assert spectral == pytest.approx(direct, rel=1e-6)
