import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import rtmodes as rt
from rtmodes.errors import ConfigurationError, DomainError
from rtmodes.forms import Band


@pytest.fixture(scope="module")
def mode_traj(mode_xi1):
    u0, v0 = rt.mode_initial_data(mode_xi1)
    lam = mode_xi1.lam
    return rt.integrate(mode_xi1.forms, u0, v0, 1e-3 / lam, 3.0 / lam)


def test_mode_grows_exponentially(mode_xi1, mode_traj):
    lam = mode_xi1.lam
    T = mode_traj.times[-1]
    log_growth = 0.5 * math.log(mode_traj.norm1_sq[-1] / mode_traj.norm1_sq[0])
    assert abs(log_growth - lam * T) <= 0.01 * lam * T


def test_mode_trajectory_stays_on_ray(mode_xi1, mode_traj):
    # eta-reconstruction: u(T) = e^{lam T} u(0) as vectors
    lam = mode_xi1.lam
    uT = mode_traj.states_u[-1]
    expect = math.exp(lam * mode_traj.state_times[-1]) * mode_traj.states_u[0]
    assert np.allclose(uT, expect, rtol=1e-4)


def test_pencil_consistency(mode_xi1):
    assert rt.pencil_consistency(mode_xi1.forms, mode_xi1) <= 1e-8


def test_zero_data_zero_trajectory(forms_xi1):
    z = np.zeros(forms_xi1.n)
    traj = rt.integrate(forms_xi1, z, z, 0.01, 1.0)
    assert np.all(traj.norm1_sq == 0.0)
    assert np.all(traj.energy() == 0.0)
    assert rt.energy_identity_check(traj, "trapezoid") == 0.0


def test_stable_configuration_energy_decays(profile, mesh32, rng):
    forms = rt.assemble(profile, mesh32, 1.5 * profile.xi_c)
    u0 = rng.standard_normal(forms.n)
    v0 = rng.standard_normal(forms.n)
    traj = rt.integrate(forms, u0, v0, 0.01, 5.0)
    e = traj.energy()
    assert np.all(np.diff(e) <= 1e-12 * e[0])


def test_energy_identity_second_order(mode_xi1):
    u0, v0 = rt.mode_initial_data(mode_xi1)
    lam = mode_xi1.lam
    d1 = rt.energy_identity_check(
        rt.integrate(mode_xi1.forms, u0, v0, 2e-3 / lam, 1.0 / lam), "trapezoid")
    d2 = rt.energy_identity_check(
        rt.integrate(mode_xi1.forms, u0, v0, 1e-3 / lam, 1.0 / lam), "trapezoid")
    assert 3.3 <= d1 / d2 <= 4.7


def test_energy_identity_exact_ledger(forms_xi1, rng):
    u0 = rng.standard_normal(forms_xi1.n)
    v0 = rng.standard_normal(forms_xi1.n)
    traj = rt.integrate(forms_xi1, u0, v0, 0.01, 2.0)
    assert rt.energy_identity_check(traj, "midpoint") <= 1e-6


def test_growth_bound_pencil(mode_xi1):
    lam = mode_xi1.lam
    ok, ev = rt.growth_bound_check(mode_xi1.forms, lam)
    assert ok and abs(ev) <= 1e-7
    ok2, ev2 = rt.growth_bound_check(mode_xi1.forms, 2 * lam)
    assert ok2 and ev2 > 1e-3
    ok3, ev3 = rt.growth_bound_check(mode_xi1.forms, lam / 2)
    assert not ok3 and ev3 < -1e-3


def test_envelope_mode_tracks_within_margin(mode_xi1, mode_traj):
    ok, ratio = rt.generic_growth_envelope(mode_traj, mode_xi1.lam)
    assert ok
    assert ratio == pytest.approx(1 / 1.05, rel=0.05)   # equality trend for the mode


def test_envelope_random_unstable(mode_xi1, rng):
    forms = mode_xi1.forms
    u0 = rng.standard_normal(forms.n)
    v0 = rng.standard_normal(forms.n)
    traj = rt.integrate(forms, u0, v0, 0.01, 5.0 / mode_xi1.lam)
    ok, ratio = rt.generic_growth_envelope(traj, mode_xi1.lam)
    assert ok, f"envelope exceeded: {ratio}"


def test_envelope_random_stable(profile, mesh32, mode_xi1, rng):
    # velocity-random data: energy only decays, so the envelope is slack.
    # (displacement-heavy data can convert potential to kinetic energy and
    # transiently overshoot the fixed 1.05 margin; the underlying estimate
    # hides that in its constant)
    forms = rt.assemble(profile, mesh32, 2.0 * profile.xi_c)
    u0 = np.zeros(forms.n)
    v0 = rng.standard_normal(forms.n)
    traj = rt.integrate(forms, u0, v0, 0.01, 5.0)
    ok, _ = rt.generic_growth_envelope(traj, mode_xi1.lam)
    assert ok


def test_time_reversibility_conservative_pencil(forms_xi1, rng):
    # with E1 = 0 the midpoint map is symmetric: forward T then reversed T
    # returns the initial state
    E1 = forms_xi1.E1
    conservative = dataclasses.replace(forms_xi1, E1=Band(0.0 * E1.data, E1.pattern))
    u0 = rng.standard_normal(forms_xi1.n)
    v0 = rng.standard_normal(forms_xi1.n)
    fwd = rt.integrate(conservative, u0, v0, 0.01, 1.0)
    back = rt.integrate(conservative, fwd.states_u[-1], -fwd.states_v[-1], 0.01, 1.0)
    n_steps = len(fwd.times) - 1
    scale = math.sqrt(float(fwd.norm1_sq.max()))
    assert np.linalg.norm(back.states_u[-1] - u0) <= n_steps * 1e-10 * scale
    assert np.linalg.norm(back.states_v[-1] + v0) <= n_steps * 1e-10 * scale


def _dense_midpoint(forms, u0, v0, dt, n_steps):
    """Reference implicit midpoint: a dense solve and direct products at every step.

    Returns every state and the eight ledger arrays, keyed as ModeTrajectory.
    """
    E0, E1, J = forms.dense()
    M = 2.0 * J + dt * E1 + 0.5 * dt**2 * E0
    u, w = u0.copy(), v0.copy()
    out = {k: [] for k in ("states_u", "states_v", "kinetic", "potential", "norm1_sq",
                           "norm2_sq", "norm1_dot_sq", "norm2_dot_sq")}
    dmid, dtrap = [0.0], [0.0]
    for i in range(n_steps + 1):
        if i:
            wm = np.linalg.solve(M, 2.0 * (J @ w) - dt * (E0 @ u))
            u = u + dt * wm
            w = 2.0 * wm - w
            dmid.append(dmid[-1] + dt * (wm @ (E1 @ wm)))
        out["states_u"].append(u)
        out["states_v"].append(w)
        out["kinetic"].append(0.5 * (w @ (J @ w)))
        out["potential"].append(0.5 * (u @ (E0 @ u)))
        out["norm1_sq"].append(2.0 * (u @ (J @ u)))
        out["norm2_sq"].append(2.0 * (u @ (E1 @ u)))
        out["norm1_dot_sq"].append(2.0 * (w @ (J @ w)))
        out["norm2_dot_sq"].append(2.0 * (w @ (E1 @ w)))
        if i:
            n2d = out["norm2_dot_sq"]
            dtrap.append(dtrap[-1] + 0.5 * dt * (n2d[-2] + n2d[-1]) / 2.0)
    out["dissipated_mid"], out["dissipated_trap"] = dmid, dtrap
    return {k: np.asarray(v) for k, v in out.items()}


# 2 / lambda = 9.57 on this mesh.  dt^2 g |xi| = 0.0025, then 74 at dt = 8.6
# (0.9 * 2 / lambda, far past the old sufficient bound of 4): the step matrix
# is definite.  At dt = 20 it is not, and integrate refuses it.
@pytest.mark.parametrize("dt, definite", [(0.05, True), (8.6, True), (20.0, False)])
def test_stepper_matches_dense_midpoint_oracle(profile, dt, definite):
    mode = rt.growth_rate(profile, rt.Mesh.uniform(1, 1, 16, order=2), 1.0)
    forms = mode.forms
    E0, E1, J = forms.dense()
    M = 2.0 * J + dt * E1 + 0.5 * dt**2 * E0
    assert (np.linalg.eigvalsh(M)[0] > 0) == definite == (dt < 2.0 / mode.lam)
    r = np.random.default_rng(5)
    u0, v0 = r.standard_normal(forms.n), r.standard_normal(forms.n)
    n_steps = 40
    if not definite:
        with pytest.raises(DomainError, match=r"dt = 20 for \|xi\| = 1:"):
            rt.integrate(forms, u0, v0, dt, n_steps * dt)
        return
    traj = rt.integrate(forms, u0, v0, dt, n_steps * dt)
    ref = _dense_midpoint(forms, u0, v0, dt, n_steps)
    rel = lambda a, b: np.max(np.abs(a - b)) / np.max(np.abs(b))
    for name, expect in ref.items():
        if name.startswith("states_"):      # integrate keeps the first and the last state
            expect = expect[[0, -1]]
        assert rel(getattr(traj, name), expect) <= 1e-10, name
    # every step's state: one step of integrate from each of the oracle's states
    one = [rt.integrate(forms, u, w, dt, dt)
           for u, w in zip(ref["states_u"][:-1], ref["states_v"][:-1])]
    U = np.vstack([u0, [s.states_u[-1] for s in one]])
    W = np.vstack([v0, [s.states_v[-1] for s in one]])
    assert rel(U, ref["states_u"]) <= 1e-10 and rel(W, ref["states_v"]) <= 1e-10
    # the ledger's carried products against direct products at those states
    quad = lambda X, A: np.einsum("ij,jk,ik->i", X, A, X)
    direct = {"kinetic": 0.5 * quad(W, J), "potential": 0.5 * quad(U, E0),
              "norm1_sq": 2.0 * quad(U, J), "norm2_sq": 2.0 * quad(U, E1),
              "norm1_dot_sq": 2.0 * quad(W, J), "norm2_dot_sq": 2.0 * quad(W, E1)}
    for name, expect in direct.items():
        assert rel(getattr(traj, name), expect) <= 1e-10, name


def test_integrate_validates_steps(forms_xi1):
    z = np.zeros(forms_xi1.n)
    with pytest.raises(DomainError):
        rt.integrate(forms_xi1, z, z, 0.0, 1.0)
    with pytest.raises(DomainError):
        rt.integrate(forms_xi1, z, z, 0.1, 0.01)
    # 1e300 steps: refused before the ledger is allocated
    with pytest.raises(DomainError, match="dt = 1e-300 and T = 1 need 1e\\+300 steps"):
        rt.integrate(forms_xi1, z, z, 1e-300, 1.0)


@pytest.mark.parametrize("xi", [0.3, 1.0, 2.5])
def test_step_factors_exactly_below_two_over_lambda(profile, mesh32, xi):
    # M = (dt^2/2) Q(2/dt), and Q(s) is definite exactly when s > lambda
    mode = rt.growth_rate(profile, mesh32, xi)
    u0, v0 = rt.mode_initial_data(mode)
    dt = 0.999 * 2.0 / mode.lam
    assert np.isfinite(rt.integrate(mode.forms, u0, v0, dt, 2 * dt).norm1_sq).all()
    dt = 1.001 * 2.0 / mode.lam
    with pytest.raises(DomainError, match="dt = %g for \\|xi\\| = %g" % (dt, xi)):
        rt.integrate(mode.forms, u0, v0, dt, 2 * dt)


def test_default_stores_first_and_last_state(forms_xi1, rng):
    u0, v0 = rng.standard_normal(forms_xi1.n), rng.standard_normal(forms_xi1.n)
    traj = rt.integrate(forms_xi1, u0, v0, 0.01, 1.0)
    assert np.array_equal(traj.state_times, traj.times[[0, -1]])
    assert np.array_equal(traj.states_u[0], u0) and np.array_equal(traj.states_v[0], v0)
    # the last rows are the state whose products the ledger's last row carries
    J, (u, v) = forms_xi1.J, (traj.states_u[-1], traj.states_v[-1])
    assert traj.states_u.shape == traj.states_v.shape == (2, forms_xi1.n)
    assert 2.0 * (u @ (J @ u)) == pytest.approx(traj.norm1_sq[-1], rel=1e-10)
    assert 0.5 * (v @ (J @ v)) == pytest.approx(traj.kinetic[-1], rel=1e-10)


def test_default_integrate_peak_memory(mode_xi1):
    # 3000 steps at 64 elements per side: the ledger is 3001 x 6 floats (144 kB);
    # a stored state per step or a snapshot list would add megabytes
    forms = mode_xi1.forms
    u0, v0 = rt.mode_initial_data(mode_xi1)
    tracemalloc.start()
    try:
        traj = rt.integrate(forms, u0, v0, 1e-3, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 3001 and forms.n == 510
    assert peak < 1e6


_L_SMALL = 0.3


@pytest.fixture(scope="module")
def report(profile):
    mesh = rt.Mesh.uniform(1, 1, 32, order=2)
    mags = np.hypot(*np.mgrid[0:4, 0:4]).ravel() / _L_SMALL
    mags = sorted(set(np.round(mags[mags > 0], 12)))[:8]
    r = np.random.default_rng(11)
    data = []
    for m in mags:
        forms = rt.assemble(profile, mesh, float(m))
        data.append((float(m), r.standard_normal(forms.n), r.standard_normal(forms.n)))
    return rt.periodic_stability_check(profile, mesh, _L_SMALL, data, T=50.0, dt=0.025)


class TestPeriodicStability:
    def test_mode_certificates(self, report):
        assert np.all(report.e0_min_eigs >= -1e-9)

    def test_sqrt_time_bound(self, report):
        assert report.sqrt_bound_margin <= 1.0

    def test_sup_integral_bounds(self, report):
        assert report.ps0_margin <= 1.0
        assert report.ps00_margin <= 1.0
        assert report.ok

    def test_zero_data(self, profile):
        mesh = rt.Mesh.uniform(1, 1, 16, order=2)
        forms = rt.assemble(profile, mesh, 1.0 / _L_SMALL)
        z = np.zeros(forms.n)
        rep = rt.periodic_stability_check(profile, mesh, _L_SMALL, [(1.0 / _L_SMALL, z, z)],
                                          T=1.0, dt=0.1)
        assert rep.K1 == 0.0 and rep.K2 == 0.0
        assert rep.ok

    def test_large_period_rejected(self, profile, mesh32):
        with pytest.raises(ConfigurationError):
            rt.periodic_stability_check(profile, mesh32, 1.0, [], T=1.0)

    def test_empty_mode_list_rejected(self, profile, mesh32):
        with pytest.raises(ConfigurationError, match="at least one"):
            rt.periodic_stability_check(profile, mesh32, _L_SMALL, [], T=1.0)
