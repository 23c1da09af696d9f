import math

import numpy as np
import pytest

import rtmodes as rt
from conftest import assert_matches_angular_quadrature, reachable_formsets
from rtmodes.errors import ConfigurationError, DomainError


def test_extend_identity_rotation(mode_xi1):
    m3 = rt.extend_to_plane(mode_xi1, np.array([1.0, 0.0]))
    assert np.array_equal(m3.phi, mode_xi1.phi)
    assert np.all(m3.theta == 0.0)
    assert np.array_equal(m3.psi, mode_xi1.psi)


def test_extend_quarter_rotation(mode_xi1):
    m3 = rt.extend_to_plane(mode_xi1, np.array([0.0, 1.0]))
    assert np.allclose(m3.phi, 0.0, atol=1e-15)
    assert np.allclose(m3.theta, mode_xi1.phi, atol=1e-15)


def test_extend_diagonal_rotation(mode_xi1):
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    m3 = rt.extend_to_plane(mode_xi1, v)
    assert np.allclose(m3.phi, mode_xi1.phi / math.sqrt(2), atol=1e-15)
    assert np.allclose(m3.theta, mode_xi1.phi / math.sqrt(2), atol=1e-15)


def test_extend_magnitude_mismatch(mode_xi1):
    with pytest.raises(DomainError):
        rt.extend_to_plane(mode_xi1, np.array([1.1, 0.0]))


def test_w_hat_complex_structure(mode_xi1):
    m3 = rt.extend_to_plane(mode_xi1, np.array([0.6, 0.8]))
    x3 = np.array([-0.5, 0.25])
    w = m3.w_hat(x3)
    mesh = mode_xi1.mesh
    assert np.allclose(w[:, 0], -1j * 0.6 * mesh.eval_nodal(mode_xi1.phi, x3))
    assert np.allclose(w[:, 1], -1j * 0.8 * mesh.eval_nodal(mode_xi1.phi, x3))
    assert np.allclose(w[:, 2], mesh.eval_nodal(mode_xi1.psi, x3))


def test_bump_profile_support():
    f = rt.BumpProfile(1.0, 2.0, amp=3.0)
    assert f(0.99) == 0.0 and f(2.01) == 0.0
    assert f(1.5) == pytest.approx(3.0 * math.exp(-1.0))
    assert f(1.2) > 0
    with pytest.raises(ConfigurationError):
        rt.BumpProfile(2.0, 1.0)


@pytest.fixture(scope="module")
def periodic_field(profile, mesh32):
    return rt.PeriodicField(profile, mesh32, 1.0)


class TestPeriodic:
    def test_interface_trace_formula(self, periodic_field):
        pts = np.array([[0.4, -0.7, 1e-12], [0.0, 0.0, 1e-12]])
        eta = periodic_field.eta(pts, 0.0)
        for p, e in zip(pts, eta):
            phase = p[0] * periodic_field.xi1[0] + p[1] * periodic_field.xi1[1]
            assert e[2] == pytest.approx(2 * periodic_field.mode.psi0 * math.cos(phase), rel=1e-9)

    def test_exponential_scaling(self, periodic_field, rng):
        pts = np.column_stack([rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8), rng.uniform(-0.9, 0.9, 8)])
        e0 = periodic_field.eta(pts, 0.0)
        e1 = periodic_field.eta(pts, 1.0)
        assert np.allclose(e1, math.exp(periodic_field.Lambda_L) * e0, rtol=1e-10)
        assert np.allclose(periodic_field.v(pts, 0.5), periodic_field.Lambda_L * periodic_field.eta(pts, 0.5), rtol=1e-12)

    def test_continuity_at_interface(self, periodic_field, rng):
        x1, x2 = 0.3, 0.9
        above = np.array([[x1, x2, 1e-13]])
        below = np.array([[x1, x2, -1e-13]])
        assert np.allclose(periodic_field.eta(above, 0.0), periodic_field.eta(below, 0.0), atol=1e-10)
        assert np.allclose(periodic_field.v(above, 0.0), periodic_field.v(below, 0.0), atol=1e-10)

    def test_norm_growth_identity(self, periodic_field):
        for which in ("eta", "v", "q"):
            n0 = periodic_field.sobolev_norm(which, k=1, t=0.0)
            n2 = periodic_field.sobolev_norm(which, k=1, t=2.0)
            assert n2 / n0 == pytest.approx(math.exp(2 * periodic_field.Lambda_L), rel=1e-12)

    def test_parseval_against_direct_quadrature(self, periodic_field, mesh32):
        L = periodic_field.L
        spectral = periodic_field.sobolev_norm("eta", k=0, t=0.0) ** 2
        nang = 33
        xs = np.linspace(0, 2 * math.pi * L, nang, endpoint=False)
        direct = 0.0
        for side in (-1, +1):
            msk = mesh32.element_side == side
            xq = mesh32.quad_x[msk].ravel()
            wq = mesh32.quad_w[msk].ravel()
            X1, X2, X3 = np.meshgrid(xs, xs, xq, indexing="ij")
            pts = np.stack([X1, X2, X3], axis=-1)
            vals = periodic_field.eta(pts, 0.0)
            w3 = np.broadcast_to(wq, X3.shape)
            direct += float(np.sum(np.sum(vals**2, axis=-1) * w3)) * (2 * math.pi * L / nang) ** 2
        assert spectral == pytest.approx(direct, rel=1e-6)

    def test_norm_monotone_in_k(self, periodic_field):
        n0 = periodic_field.sobolev_norm("v", k=0)
        n1 = periodic_field.sobolev_norm("v", k=1)
        n2 = periodic_field.sobolev_norm("v", k=2)
        assert n0 <= n1 <= n2

    def test_small_period_rejected(self, profile, mesh32):
        with pytest.raises(ConfigurationError):
            rt.PeriodicField(profile, mesh32, 0.9 * math.sqrt(0.1))

    def test_sample_grid_columns(self, periodic_field):
        grid = (np.linspace(-1, 1, 3), np.linspace(-1, 1, 3), np.linspace(-0.9, 0.9, 4))
        cols = periodic_field.sample(grid, 0.5)
        assert set(cols) == {"x1", "x2", "x3", "eta1", "eta2", "eta3", "v1", "v2", "v3", "q"}
        assert all(len(v) == 36 for v in cols.values())


@pytest.fixture(scope="module")
def np_field(profile):
    mesh = rt.Mesh.uniform(1, 1, 32, order=2)
    f = rt.BumpProfile.default(profile.xi_c)
    return rt.NonperiodicField(profile, mesh, f, n_radial=10)


@pytest.fixture(scope="module")
def points():
    r = np.random.default_rng(5)
    return np.column_stack([r.uniform(-2, 2, 10), r.uniform(-2, 2, 10), r.uniform(-0.9, 0.9, 10)])


class TestNonperiodic:
    def test_reality(self, np_field, points):
        assert_matches_angular_quadrature(np_field, points, 1.0)

    def test_bessel_reduction_agreement(self, np_field, points):
        # far out |xi| |x_h| exceeds any fixed angular node count; the Bessel
        # reduction stays exact there
        r = np.random.default_rng(8)
        radius, angle = r.uniform(10.0, 40.0, 12), r.uniform(0.0, 2 * math.pi, 12)
        far = np.column_stack([radius * np.cos(angle), radius * np.sin(angle),
                               r.uniform(-0.9, 0.9, 12)])
        assert_matches_angular_quadrature(np_field, np.vstack([points, far]), 0.7)

    def test_rotation_equivariance(self, np_field, points):
        th = 1.1
        R = np.array([[math.cos(th), -math.sin(th), 0.0],
                      [math.sin(th), math.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        scale = np.abs(np_field.eta(points, 0.5)).max()
        assert np.allclose(np_field.eta(points @ R.T, 0.5), np_field.eta(points, 0.5) @ R.T,
                           atol=1e-9 * scale)
        assert np.allclose(np_field.v(points @ R.T, 0.5), np_field.v(points, 0.5) @ R.T,
                           atol=1e-9 * scale)
        assert np.allclose(np_field.q(points @ R.T, 0.5), np_field.q(points, 0.5),
                           atol=1e-9 * scale)

    def test_growth_sandwich(self, np_field):
        for which in ("eta", "v"):
            n0 = np_field.sobolev_norm(which, k=2, t=0.0)
            for t in (1.0, 2.0):
                ratio = np_field.sobolev_norm(which, k=2, t=t) / n0
                assert math.exp(np_field.lambda0 * t) <= ratio <= math.exp(np_field.Lambda * t)

    def test_initial_norm_bounded_by_frequency_moment(self, np_field):
        # || . ||_{H^k} at t=0 against the (1 + |xi|^2)^{k+1} |f|^2 moment
        k = 2
        moment = 0.0
        for rk, wk in zip(np_field.r, np_field.w):
            moment += wk * 2 * math.pi * rk * (1 + rk**2) ** (k + 1) * float(np_field.f(rk)) ** 2
        total = sum(np_field.sobolev_norm(w, k=k, t=0.0) for w in ("eta", "v"))
        total += np_field.sobolev_norm("q", k=1, t=0.0)
        assert math.isfinite(total)
        assert total <= 50.0 * math.sqrt(moment)   # fixed-constant sanity bound

    def test_time_derivative_is_velocity(self, np_field, points):
        h = 1e-5
        dq = (np_field.eta(points, 1.0 + h) - np_field.eta(points, 1.0 - h)) / (2 * h)
        assert np.allclose(dq, np_field.v(points, 1.0), atol=1e-8 * np.abs(dq).max())

    def test_interface_displacement_nonzero(self, np_field):
        assert np_field.interface_displacement_l2() >= 1e-8

    def test_modes_hold_no_pencil(self, np_field):
        assert len(np_field.modes) == 10
        assert reachable_formsets(np_field.modes) == []

    def test_zero_amplitude_zero_norm(self, profile, mesh32):
        f0 = rt.BumpProfile(0.3 * profile.xi_c, 0.7 * profile.xi_c, amp=0.0)
        weightless = rt.NonperiodicField(profile, mesh32, f0, n_radial=2)
        assert weightless.sobolev_norm("eta", k=0, t=0.0) == 0.0
        pts = np.array([[0.1, 0.2, 0.3]])
        assert np.all(weightless.eta(pts, 0.0) == 0.0)

    def test_derivative_depth_capped(self, np_field):
        with pytest.raises(DomainError):
            np_field.sobolev_norm("eta", k=3)
        with pytest.raises(DomainError):
            np_field.sobolev_norm("q", k=2)

    def test_support_validation(self, profile, mesh32):
        bad = rt.BumpProfile(0.5 * profile.xi_c, 1.2 * profile.xi_c)
        with pytest.raises(ConfigurationError):
            rt.NonperiodicField(profile, mesh32, bad, n_radial=4)


@pytest.mark.parametrize("kind", ["periodic", "nonperiodic"])
def test_sample_columns_match_pointwise_fields(kind, periodic_field, np_field):
    field = periodic_field if kind == "periodic" else np_field
    # x3 = 0 and negative element breaks (mesh spacing 1/32), where psi' is one-sided
    grid = (np.linspace(-1, 1, 3), np.array([-0.4, 0.7]), np.array([-0.75, -0.5, 0.0, 0.3]))
    cols = field.sample(grid, 0.5)
    pts = np.column_stack([cols["x1"], cols["x2"], cols["x3"]])
    eta, v, q = field.eta(pts, 0.5), field.v(pts, 0.5), field.q(pts, 0.5)
    for i in range(3):
        assert np.array_equal(cols[f"eta{i + 1}"], eta[:, i])
        assert np.array_equal(cols[f"v{i + 1}"], v[:, i])
    assert np.array_equal(cols["q"], q)
    assert np.any(q != 0.0)


def test_mode_ode_residual_refines(profile):
    # the per-mode linearized residual is the mode's strong-form defect;
    # it must shrink under mesh refinement for synthesized fields to converge
    resids = []
    for n_el in (32, 64, 128):
        mesh = rt.Mesh.uniform(1, 1, n_el, order=2)
        m = rt.growth_rate(profile, mesh, 1.5)
        resids.append(m.ode_residual)
    assert resids[2] < resids[1] < resids[0]
    assert math.log2(resids[0] / resids[2]) / 2 >= 1.0
