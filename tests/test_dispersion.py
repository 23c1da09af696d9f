import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import rtmodes as rt
from rtmodes import eigen
from rtmodes.errors import ConfigurationError, DomainError, VacuumError
from rtmodes.residuals import jump_residuals, strong_form_residual

from conftest import dense_spectrum, reachable_formsets


def oracle_rate(forms):
    """Independent fixed point: dense bottom eigenvalue + scalar bracketing."""

    def F(s):
        mu = dense_spectrum(forms, s)[0]
        return s - math.sqrt(max(-mu, 0.0))

    s_hi = 1e-3
    while F(s_hi) <= 0:
        s_hi *= 2
        if s_hi > 1e6:
            raise RuntimeError("oracle failed to bracket")
    return brentq(F, 1e-8, s_hi, xtol=1e-12)


def test_tabulated_copy_reproduces_polytropic_rates(profile):
    # PCHIP reproduces a linear P(rho) exactly, so only the enthalpy pair can differ
    rng = np.random.default_rng(11)
    logs = np.linspace(np.log(0.05), np.log(20.0), 40)
    logs[1:-1] += rng.uniform(-0.4, 0.4, 38) * (logs[1] - logs[0])
    rho = np.exp(logs)
    tab = rt.build_profile(
        rt.PressureLaw.tabulated(rho, 2.0 * rho), rt.PressureLaw.tabulated(rho, rho),
        1.0, profile.geometry, (profile.visc[-1], profile.visc[+1]),
    )
    mesh = rt.Mesh.uniform(1, 1, 32, order=2)
    for xi in (0.1, 1.0, 0.9 * profile.xi_c):
        assert rt.growth_rate(tab, mesh, xi).lam == pytest.approx(
            rt.growth_rate(profile, mesh, xi).lam, rel=1e-6)


def test_rate_against_oracle_and_resolutions(profile):
    xi = profile.xi_c / 2
    lams = {}
    for n_el in (32, 64):
        mesh = rt.Mesh.uniform(1, 1, n_el, order=2)
        m = rt.growth_rate(profile, mesh, xi)
        assert not isinstance(m, rt.Stable)
        assert m.lam > 0
        assert m.lam**2 <= profile.geometry.g * xi + 1e-8
        lams[n_el] = m.lam
        oracle = oracle_rate(m.forms)
        assert m.lam == pytest.approx(oracle, abs=5e-9)
    assert lams[32] == pytest.approx(lams[64], rel=1e-5)


def test_stable_beyond_cutoff(profile, mesh32):
    r = rt.growth_rate(profile, mesh32, 1.5 * profile.xi_c)
    assert isinstance(r, rt.Stable)
    assert "surface tension" in r.reason


def test_sigma_zero_all_frequencies_unstable(profile_sigma0, mesh32):
    lams = {}
    for xi in (0.5, 5.0, 50.0):
        m = rt.growth_rate(profile_sigma0, mesh32, xi)
        assert not isinstance(m, rt.Stable)
        lams[xi] = m.lam
    assert lams[50.0] < lams[5.0]   # tail decay


def test_fixed_point_residual(mode_xi1):
    assert mode_xi1.fixed_point_residual <= 1e-9


def test_fine_mesh_small_frequency_residual(profile):
    # noise in mu reaches the fixed point amplified by 1/(2 sqrt(-mu)) ~ 316
    # here; the rate must still meet the residual contract
    mesh = rt.Mesh.uniform(1, 1, 96, order=2)
    m = rt.growth_rate(profile, mesh, 0.02 * profile.xi_c)
    assert not isinstance(m, rt.Stable)
    assert m.fixed_point_residual <= 1e-9


def qep_eigenvalues(forms):
    """Every eigenvalue of (lambda^2 J + lambda E1 + E0) x = 0, by dense QZ.

    First companion linearization (Tisseur & Meerbergen, SIAM Rev. 43, 2001):
    [[0, I], [-E0, -E1]] z = lambda [[I, 0], [0, J]] z with z = (x, lambda x).
    """
    E0, E1, J = forms.dense()
    eye, zero = np.eye(forms.n), np.zeros((forms.n, forms.n))
    return sla.eig(np.block([[zero, eye], [-E0, -E1]]),
                   np.block([[eye, zero], [zero, J]]), right=False)


@pytest.mark.parametrize("n_el", [8, 16])
def test_rate_is_top_of_quadratic_spectrum(profile, n_el):
    mesh = rt.Mesh.uniform(1, 1, n_el, order=2)
    for xi in (0.05 * profile.xi_c, 0.5 * profile.xi_c, 0.9 * profile.xi_c, 1.0):
        m = rt.growth_rate(profile, mesh, xi)
        assert not isinstance(m, rt.Stable)
        ev = qep_eigenvalues(m.forms)
        real = ev[np.abs(ev.imag) <= 1e-9 * (1.0 + np.abs(ev))].real
        assert real.max() == pytest.approx(m.lam, abs=1e-9)
        assert ev.real.max() <= m.lam + 1e-9
    ev = qep_eigenvalues(rt.assemble(profile, mesh, 1.2 * profile.xi_c))
    assert ev.real.max() <= 1e-8


def test_mode_invariants(profile, mode_xi1):
    g = profile.geometry.g
    sigma = profile.geometry.sigma
    xi = mode_xi1.xi_mag
    assert mode_xi1.lam**2 <= g * xi + 1e-8
    assert abs(mode_xi1.psi0) >= 1e-6
    # trace bound psi(0)^2 <= 2 g / (sigma xi) and the chained rate bound
    assert mode_xi1.psi0**2 <= 2 * g / (sigma * xi) + 1e-8
    assert mode_xi1.lam**2 <= (g * profile.rho_jump - sigma * xi**2) / 2 * mode_xi1.psi0**2 + 1e-8
    assert mode_xi1.lam**2 <= g * (g * profile.rho_jump - sigma * xi**2) / (sigma * xi) + 1e-6


def test_solve_evaluates_the_profile_once(mesh32, monkeypatch):
    from conftest import make_profile

    profile = make_profile()
    calls = []
    fields = profile.fields
    monkeypatch.setattr(profile, "fields", lambda *a, **k: calls.append(a) or fields(*a, **k))
    m = rt.growth_rate(profile, mesh32, 1.0)
    assert len(calls) == 1           # the assembly's Gauss points; no residual is computed
    rt.growth_rate(profile, mesh32, 2.0)
    assert len(calls) == 1           # a second frequency reuses the mesh's cached forms
    # the diagnostics are computed when read, from the mode's profile and mesh
    phi, psi = m.phi, m.psi
    assert m.ode_residual == strong_form_residual(profile, mesh32, phi, psi, 1.0, m.lam, -m.lam**2)
    assert np.array_equal(m.jump_residuals, jump_residuals(profile, mesh32, phi, psi, 1.0, m.lam))
    linear = rt.growth_rate(profile, rt.Mesh.uniform(1, 1, 32, order=1), 1.0)
    assert math.isnan(linear.ode_residual)
    assert np.all(np.isfinite(linear.jump_residuals))


def test_results_hold_no_pencil(profile, mesh32):
    # a solve's FormSet is dropped once its data are extracted
    results = {
        "growth_rate": rt.growth_rate(profile, mesh32, 1.0),
        "argmax_mode": rt.sweep(profile, mesh32, 0.5, 3.0, n=4).argmax_mode,
        "lattice modes": rt.lattice_modes(profile, mesh32, 1.0).modes,
    }
    for name, result in results.items():
        assert reachable_formsets(result) == [], name
    assert len(reachable_formsets([rt.assemble(profile, mesh32, 1.0)])) == 1   # the walk finds one


def test_mode_forms_reassemble_the_solved_pencil(profile, mesh32):
    m = rt.growth_rate(profile, mesh32, 1.3)
    forms = m.forms
    ref = rt.assemble(m.profile, m.mesh, m.xi_mag)
    assert forms is not m.forms
    for name in ("E0", "E1", "J"):
        A, B = getattr(forms, name), getattr(ref, name)
        for part in ("data", "pattern"):
            assert np.array_equal(getattr(A, part), getattr(B, part)), (name, part)
    # (lambda^2 J + lambda E1 + E0) x = 0 holds on the re-assembled pencil
    assert rt.pencil_consistency(forms, m) <= 1e-8


def test_invalid_frequency(profile, mesh32):
    with pytest.raises(DomainError):
        rt.growth_rate(profile, mesh32, 0.0)


def test_coarse_mesh_warns_inside_window(profile, profile_sigma0, mesh32):
    # the discrete instability window sits strictly inside (0, xi_c), so a
    # very coarse mesh misses marginal modes near the cutoff and must warn
    coarse = rt.Mesh.uniform(1, 1, 2, order=1)
    with pytest.warns(RuntimeWarning, match="too coarse"):
        r = rt.growth_rate(profile, coarse, 0.999 * profile.xi_c)
    assert isinstance(r, rt.Stable)
    # with sigma = 0 every frequency is unstable: a Stable verdict is a rate
    # below the smallest tested s or an unresolved mode, and says so
    with pytest.warns(RuntimeWarning, match="below 1e-08 or the mesh is too coarse"):
        r = rt.growth_rate(profile_sigma0, mesh32, 1e12)
    assert isinstance(r, rt.Stable)


def test_factorizations_per_rate(profile):
    # the sweep's first rate and its refined argmax start cold, from [1e-8, 2 sqrt(g |xi|)];
    # the others start warm from the rates before them
    mesh = rt.Mesh.uniform(1, 1, 64, order=2)
    eigen.counters.clear()
    curve = rt.sweep(profile, mesh, 0.02 * profile.xi_c, 0.98 * profile.xi_c, n=12)
    # the refined argmax solve counts against the 12
    assert eigen.counters["factorizations"] <= 15 * 12
    assert 0.0 <= curve.bracket_rel_max <= 2e-11


@st.composite
def _admissible_case(draw):
    """A heavy-over-light polytropic slab with power-law viscosities, a mesh and a frequency."""
    g_lo, g_up = draw(st.floats(1.0, 2.0)), draw(st.floats(1.0, 2.0))
    K_lo, rho_minus = draw(st.floats(1.0, 4.0)), draw(st.floats(0.5, 2.0))
    rho_plus = rho_minus * draw(st.floats(1.2, 3.0))
    K_up = K_lo * rho_minus**g_lo / rho_plus**g_up       # pressure continuity
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.02, 0.3)))
    visc = [rt.FluidViscosity(rt.ViscosityLaw(draw(st.floats(0.02, 0.3)),
                                              p=draw(st.floats(-1.0, 1.0))),
                              rt.ViscosityLaw(draw(st.floats(0.0, 0.2)),
                                              p=draw(st.floats(-1.0, 1.0))))
            for _ in range(2)]
    try:
        profile = rt.build_profile(rt.PressureLaw.polytropic(K_lo, g_lo),
                                   rt.PressureLaw.polytropic(K_up, g_up), rho_minus,
                                   rt.SlabGeometry(m=1.0, ell=1.0, g=1.0, sigma=sigma), visc)
    except VacuumError:
        assume(False)
    cap = profile.xi_c if sigma > 0 else 10.0
    xi = cap * draw(st.floats(0.05, 0.9))
    return profile, rt.Mesh.uniform(1, 1, draw(st.integers(8, 16)), order=2), xi


@given(_admissible_case(), st.floats(1.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_certified_bracket_on_random_configs(case, beyond):
    profile, mesh, xi = case
    g, sigma = profile.geometry.g, profile.geometry.sigma
    if sigma > 0:
        assert isinstance(rt.growth_rate(profile, mesh, beyond * profile.xi_c), rt.Stable)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        m = rt.growth_rate(profile, mesh, xi)
    assume(not isinstance(m, rt.Stable))
    forms, x = m.forms, m.minimizer
    lo, hi = m.bracket
    assert lo <= hi == m.lam
    assert eigen._factor(eigen._band((1.0, forms.E0), (hi, forms.E1), (hi**2, forms.J))) is not None
    # lo is the Rayleigh functional of some iterate or a failed factorization,
    # so at the final iterate x^T Q(lo) x is <= 0 up to the 1e-11 bracket width
    terms = [float(x @ (A @ x)) * c for A, c in ((forms.E0, 1.0), (forms.E1, lo), (forms.J, lo**2))]
    assert sum(terms) <= 1e-11 * sum(map(abs, terms))
    assert m.lam == pytest.approx(oracle_rate(forms), abs=5e-9)
    # the top real eigenvalue of the quadratic eigenproblem, by dense QZ (2n <= 252)
    ev = qep_eigenvalues(forms)
    assert ev[ev.imag == 0.0].real.max() == pytest.approx(m.lam, rel=1e-8)
    assert m.lam**2 <= g * xi
    assert abs(m.psi0) >= 1e-6
    if sigma > 0:
        assert m.lam**2 <= g * (g * profile.rho_jump - sigma * xi**2) / (sigma * xi) + 1e-6


@pytest.fixture(scope="module")
def curve(profile):
    mesh = rt.Mesh.uniform(1, 1, 32, order=2)
    return rt.sweep(profile, mesh, 0.02 * profile.xi_c, 0.98 * profile.xi_c, n=32)


class TestSweep:
    def test_interior_maximum_and_small_endpoints(self, curve):
        k = int(np.argmax(curve.lam))
        assert 0 < k < len(curve.lam) - 1
        assert curve.lam[0] < curve.lam[k] / 3
        assert curve.lam[-1] < curve.lam[k] / 3

    def test_lambda_dominates_samples(self, curve):
        assert curve.Lambda >= curve.lam.max()
        assert curve.fit_correction >= 0.0
        assert np.all(curve.lam > 0)

    def test_rate_bounds_along_curve(self, curve, profile):
        g = profile.geometry.g
        sigma = profile.geometry.sigma
        assert np.all(curve.lam**2 <= g * curve.xi + 1e-8)
        chained = g * (g * profile.rho_jump - sigma * curve.xi**2) / (sigma * curve.xi)
        assert np.all(curve.lam**2 <= chained + 1e-6)

    def test_degenerate_single_sample(self, profile):
        mesh = rt.Mesh.uniform(1, 1, 16, order=2)
        c = rt.sweep(profile, mesh, 1.0, 2.0, n=1)
        assert len(c.lam) == 1
        assert c.Lambda == c.lam[0]

    def test_range_validation(self, profile, mesh32):
        with pytest.raises(ConfigurationError):
            rt.sweep(profile, mesh32, 2.0, 1.0)
        with pytest.raises(ConfigurationError):
            rt.sweep(profile, mesh32, 0.1, 2 * profile.xi_c)


class TestLattice:
    def test_unit_period_magnitudes(self, profile, mesh32):
        lat = rt.lattice_modes(profile, mesh32, 1.0)
        expect = [1.0, math.sqrt(2), 2.0, math.sqrt(5), math.sqrt(8), 3.0]
        assert lat.magnitudes == pytest.approx(expect, rel=1e-12)
        assert np.all(lat.magnitudes < profile.xi_c)
        assert lat.Lambda_L > 0
        assert not lat.certificate
        # rates depend on magnitude only: the four |k| = 1 points share a rate
        unit = lat.points[np.isclose(lat.points[:, 2], 1.0)]
        assert len(unit) == 4
        assert np.ptp(unit[:, 3]) == 0.0

    def test_certificate_at_threshold(self, profile, mesh32):
        L = math.sqrt(0.1)   # sqrt(sigma / (g [rho0])): smallest |xi| = xi_c excluded
        lat = rt.lattice_modes(profile, mesh32, L)
        assert lat.certificate
        assert lat.unstable_count == 0
        assert lat.Lambda_L == 0.0

    def test_lattice_below_continuum_max(self, profile, mesh32):
        lat = rt.lattice_modes(profile, mesh32, 1.0)
        curve = rt.sweep(profile, mesh32, 0.02 * profile.xi_c, 0.98 * profile.xi_c, n=24)
        assert lat.Lambda_L <= curve.Lambda + 1e-3

    def test_cap_applies_with_surface_tension(self, profile, mesh32):
        # one cap min(xi_c, xi_max) for every sigma: the cap keeps a prefix of the full lattice
        full = rt.lattice_modes(profile, mesh32, 1.5)
        capped = rt.lattice_modes(profile, mesh32, 1.5, xi_max=1.0)
        assert capped.points.size and np.all(capped.points[:, 2] < 1.0)
        assert np.array_equal(capped.points, full.points[full.points[:, 2] < 1.0])
        with pytest.raises(ConfigurationError, match="1/L = 1"):
            rt.lattice_modes(profile, mesh32, 1.0, xi_max=0.5)
        # the small-period certificate does not depend on the cap
        for xi_max in (None, 0.5, 100.0):
            assert rt.lattice_modes(profile, mesh32, profile.L_c, xi_max=xi_max).certificate

    def test_argmax_is_largest_vector_of_fastest_magnitude(self, profile, mesh32):
        for L in (1.0, 1.5):
            lat = rt.lattice_modes(profile, mesh32, L)
            (k1, k2), mode = lat.argmax()
            # the first point of the largest rate, and the largest (k1, k2) of its magnitude
            top = lat.points[int(np.argmax(lat.points[:, 3]))]
            ties = lat.points[np.isclose(lat.points[:, 2], top[2])]
            assert (k1, k2) == max(map(tuple, ties[:, :2]))
            assert mode.lam == lat.Lambda_L
            assert mode.xi_mag == pytest.approx(math.hypot(k1, k2) / L, rel=1e-12)
        with pytest.raises(ConfigurationError, match="no growing mode"):
            rt.lattice_modes(profile, mesh32, profile.L_c).argmax()

    def test_sigma_zero_empty_enumeration_is_no_certificate(self, profile_sigma0, mesh32):
        # without surface tension nothing certifies stability: a cap below the
        # smallest lattice magnitude 1/L is an input error
        for xi_max in (0.5, 0.0, -1.0):
            with pytest.raises(ConfigurationError, match="1/L = 1"):
                rt.lattice_modes(profile_sigma0, mesh32, 1.0, xi_max=xi_max)

    def test_sigma_zero_needs_cap(self, profile_sigma0, mesh32):
        with pytest.raises(ConfigurationError):
            rt.lattice_modes(profile_sigma0, mesh32, 1.0)
        lat = rt.lattice_modes(profile_sigma0, mesh32, 1.0, xi_max=1.5)
        assert lat.magnitudes == pytest.approx([1.0, math.sqrt(2)], rel=1e-12)
