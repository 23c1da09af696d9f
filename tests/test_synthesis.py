import math

import numpy as np
import pytest

import rtmodes as rt
from conftest import assert_matches_angular_quadrature, make_profile, reachable_formsets
from rtmodes.errors import ConfigurationError, DomainError
from rtmodes import _kernels


def test_bump_profile_support():
    f = rt.BumpProfile(1.0, 2.0)
    assert f(0.99) == 0.0 and f(2.01) == 0.0
    assert f(1.5) == pytest.approx(math.exp(-1.0))
    assert f(1.2) > 0
    with pytest.raises(ConfigurationError):
        rt.BumpProfile(2.0, 1.0)


def test_bump_default_fills_only_missing_edges():
    given = rt.BumpProfile.default(math.inf, a=1.0, b=2.0)
    assert (given.a, given.b) == (1.0, 2.0)
    half = rt.BumpProfile.default(10.0, b=5.0)
    assert (half.a, half.b) == (pytest.approx(3.0), 5.0)
    for edges in ({}, {"a": 1.0}, {"b": 2.0}):
        with pytest.raises(ConfigurationError, match="xi_c"):
            rt.BumpProfile.default(math.inf, **edges)


@pytest.fixture(scope="module")
def periodic_field(profile, mesh32):
    return rt.PeriodicField(profile, mesh32, 1.0)


def _points(rng, n=12):
    return np.column_stack([rng.uniform(-3, 3, n), rng.uniform(-3, 3, n), rng.uniform(-0.9, 0.9, n)])


def _horizontal_displacement(field, pts, t):
    """2 e^{Lambda t} phi(x3) sin(xi1 . x_h) xi1 / |xi1| from the reduced-frame phi."""
    phase = pts[:, :2] @ field.xi1
    phi = field.mesh.eval_nodal(field.mode.phi, pts[:, 2])
    amp = 2 * math.exp(field.Lambda_L * t) * phi * np.sin(phase)
    return amp[:, None] * field.xi1 / np.hypot(*field.xi1)


class TestPeriodic:
    def test_displacement_along_an_off_axis_frequency(self, profile, mesh32, rng):
        field = rt.PeriodicField(profile, mesh32, 2.0)
        assert np.array_equal(field.xi1 * 2.0, [3.0, 2.0])
        pts = _points(rng)
        expected = _horizontal_displacement(field, pts, 0.7)
        assert np.allclose(field.eta(pts, 0.7)[:, :2], expected,
                           rtol=1e-12, atol=1e-14 * np.abs(expected).max())

    def test_displacement_along_an_axis_has_no_cross_component(self, periodic_field, rng):
        assert periodic_field.xi1[1] == 0.0
        pts = _points(rng)
        eta = periodic_field.eta(pts, 0.3)
        assert np.all(eta[:, 1] == 0.0)
        expected = _horizontal_displacement(periodic_field, pts, 0.3)[:, 0]
        assert np.allclose(eta[:, 0], expected, rtol=1e-12, atol=1e-14 * np.abs(expected).max())

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


def test_bessel_functions_match_scipy(np_field):
    # _kernels binds scipy's compiled J0 and J1: bit for bit scipy.special's over
    # the arguments a default synthesize meets, |xi| |x_h| over the grid out to
    # its extent pi / f.a, and over [0, 1e5]; and finite far beyond
    from scipy.special import j0, j1

    extent = math.pi / np_field.f.a
    axis = np.linspace(-extent, extent, 8)
    met = np.multiply.outer(np_field.r, np.hypot(*np.meshgrid(axis, axis))).ravel()
    for x in (met, np.linspace(0.0, 1e5, 200001)):
        assert np.array_equal(_kernels.j0(x), j0(x)) and np.array_equal(_kernels.j1(x), j1(x))
    assert np.isfinite([_kernels.j0(1e300), _kernels.j1(1e300)]).all()


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
        # L2 norm of eta_3(., ., 0) over a horizontal patch: vertical interface
        # displacement is genuinely excited
        xs = np.linspace(-2 * math.pi / np_field.f.a, 2 * math.pi / np_field.f.a, 48)
        X1, X2 = np.meshgrid(xs, xs, indexing="ij")
        vals = np_field.eta(np.stack([X1, X2, np.zeros_like(X1)], axis=-1), 0.0)[..., 2]
        assert math.sqrt(float(np.sum(vals**2) * (xs[1] - xs[0]) ** 2)) >= 1e-8

    def test_modes_hold_no_pencil(self, np_field):
        assert len(np_field.modes) == 10
        assert reachable_formsets(np_field.modes) == []

    def test_derivative_depth_capped(self, np_field):
        with pytest.raises(DomainError):
            np_field.sobolev_norm("eta", k=3)
        with pytest.raises(DomainError):
            np_field.sobolev_norm("q", k=2)
        with pytest.raises(DomainError):
            np_field.sobolev_norm("eta", k=-1)

    def test_support_validation(self, profile, mesh32):
        bad = rt.BumpProfile(0.5 * profile.xi_c, 1.2 * profile.xi_c)
        with pytest.raises(ConfigurationError):
            rt.NonperiodicField(profile, mesh32, bad, n_radial=4)
        good = rt.BumpProfile.default(profile.xi_c)
        for n_radial in (0, -1):
            with pytest.raises(ConfigurationError, match="at least one node"):
                rt.NonperiodicField(profile, mesh32, good, n_radial=n_radial)


def test_norms_evaluate_the_profile_once(mesh32, monkeypatch):
    profile = make_profile()
    field = rt.NonperiodicField(profile, mesh32, rt.BumpProfile.default(profile.xi_c), n_radial=10)
    calls = []
    fields = profile.fields
    monkeypatch.setattr(profile, "fields", lambda *a, **kw: calls.append(a) or fields(*a, **kw))
    field.sobolev_norm("eta", k=2)
    field.sobolev_norm("q", k=1, t=1.0)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["periodic", "nonperiodic"])
def test_norm_is_finite_wherever_the_growth_factor_is(kind, profile):
    # e^{2 Lambda t} overflows at t = 1300 while e^{Lambda t} does not; at t = 3000 both do
    mesh = rt.Mesh.uniform(1, 1, 16, order=2)
    if kind == "periodic":
        field = rt.PeriodicField(profile, mesh, 1.5)
        lo = hi = field.Lambda_L
    else:
        field = rt.NonperiodicField(profile, mesh, rt.BumpProfile.default(profile.xi_c), n_radial=4)
        lo, hi = field.lambda0, field.Lambda
    n0 = field.sobolev_norm("v", k=1, t=0.0)
    n1 = field.sobolev_norm("v", k=1, t=1300.0)
    assert math.isfinite(n1)
    ratio = n1 / n0
    assert math.exp(lo * 1300) * (1 - 1e-12) <= ratio <= math.exp(hi * 1300) * (1 + 1e-12)
    with pytest.raises(DomainError, match="t = 3000"):
        field.sobolev_norm("v", k=1, t=3000.0)
    # long before t = 0 the slowest mode dominates, and nothing overflows
    assert math.isfinite(field.sobolev_norm("v", k=1, t=-3000.0))


def test_overflowing_derivative_integral_is_refused_only_where_read():
    # phi'' carries 1/eps, so at eps = 1e-300 the second-derivative integrals are
    # inf, silently; H^1 never reads them, and H^2 is a DomainError, not inf
    profile = make_profile(eps=1e-300)
    mesh = rt.Mesh.uniform(1, 1, 8, order=2)
    field = rt.NonperiodicField(profile, mesh, rt.BumpProfile.default(profile.xi_c), n_radial=2)
    with np.errstate(all="raise"):
        assert math.isfinite(field.sobolev_norm("v", k=1))
    with pytest.raises(DomainError, match=r"the H\^2 norm of v overflows"):
        field.sobolev_norm("v", k=2)


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
