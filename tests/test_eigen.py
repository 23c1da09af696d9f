import numpy as np
import pytest
import scipy.linalg as sla

import rtmodes as rt
from rtmodes import eigen
from rtmodes.errors import DomainError
from rtmodes.residuals import jump_residuals, strong_form_residual

from conftest import dense_spectrum, make_profile, pack_band


def test_negative_at_vanishing_s(forms_xi1):
    res = rt.smallest_eig(forms_xi1, 1e-6)
    assert res.mu < 0
    oracle = dense_spectrum(forms_xi1, 1e-6)[0]
    assert res.mu == pytest.approx(oracle, abs=1e-10)


def test_supercritical_nonnegative(profile, mesh32):
    forms = rt.assemble(profile, mesh32, 2.0 * profile.xi_c)
    for s in (0.01, 0.1, 1.0):
        assert rt.smallest_eig(forms, s).mu >= -1e-9


def test_strict_increase_when_viscous_energy_positive(forms_xi1):
    r0 = rt.smallest_eig(forms_xi1, 0.0)
    r1 = rt.smallest_eig(forms_xi1, 1.0)
    x = r0.minimizer
    if x @ (forms_xi1.E1 @ x) > 1e-12:
        assert r0.mu < r1.mu


def test_lower_bound_holds_everywhere(profile, mesh32):
    for xi in (0.1, 1.0, 3.0):
        forms = rt.assemble(profile, mesh32, xi)
        for s in (0.01, 0.1, 1.0, 10.0):
            assert rt.smallest_eig(forms, s).mu >= -profile.geometry.g * xi - 1e-9


def test_monotone_and_lipschitz(forms_xi1):
    ss = np.geomspace(0.01, 10.0, 12)
    res = [rt.smallest_eig(forms_xi1, s) for s in ss]
    mus = np.array([r.mu for r in res])
    e1s = np.array([r.minimizer @ (forms_xi1.E1 @ r.minimizer) for r in res])
    assert np.all(np.diff(mus) >= 0)
    strict = e1s[1:] > 1e-12
    assert np.all(np.diff(mus)[strict] > 0)
    K = e1s.max()
    assert np.all(np.abs(np.diff(mus)) <= K * np.diff(ss) + 1e-10)


def test_normalization_and_residual(forms_xi1):
    r = rt.smallest_eig(forms_xi1, 0.3)
    assert abs(r.minimizer @ (forms_xi1.J @ r.minimizer) - 1.0) <= 1e-12
    n0, n1, _ = forms_xi1.norms()
    assert r.residual <= 1e-9 * (n0 + 0.3 * n1)


def test_psi_trace_nonzero_where_unstable(forms_xi1):
    r = rt.smallest_eig(forms_xi1, 0.05)
    assert r.mu < -1e-8
    assert abs(forms_xi1.psi_trace(r.minimizer)) >= 1e-6


def test_sparse_path_matches_dense(profile, mesh64):
    # the banded inertia solver against dense LAPACK on the full pencil
    forms = rt.assemble(profile, mesh64, 1.3)
    E0, E1, J = forms.dense()
    vals, vecs = sla.eigh(E0 + 0.4 * E1, J, subset_by_index=[0, 0])
    banded = rt.smallest_eig(forms, 0.4)
    assert banded.mu == pytest.approx(vals[0], abs=1e-10)
    # eigenvectors agree up to sign inside the J inner product
    overlap = abs(float(banded.minimizer @ (forms.J @ vecs[:, 0])))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_factorizations_per_bottom_eig(forms_xi1, monkeypatch):
    calls = []
    real = eigen._factor
    monkeypatch.setattr(eigen, "_factor", lambda ab: calls.append(1) or real(ab))
    f = forms_xi1
    for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 0.3), (1.0, 10.0)):
        del calls[:]
        mu = rt.bottom_eig(f, a, b, 0.0).mu
        A = a * f.E0.toarray() + b * f.E1.toarray()
        assert mu == pytest.approx(sla.eigh(A, f.J.toarray(), eigvals_only=True,
                                            subset_by_index=[0, 0])[0], abs=1e-10)
        assert len(calls) <= 15


def test_normalize_signs_by_the_first_nonzero_entry_where_psi0_vanishes(forms_xi1):
    # the sign convention is psi(0) > 0; an iterate with psi(0) = 0 takes its sign
    # from its first nonzero entry instead
    x = -np.arange(1.0, forms_xi1.n + 1)
    x[forms_xi1.psi0_dof] = 0.0
    y = eigen._normalize(forms_xi1, x)
    assert y[forms_xi1.psi0_dof] == 0.0 and y[np.flatnonzero(y)[0]] > 0
    assert np.array_equal(np.sign(y), -np.sign(x))
    assert float(y @ (forms_xi1.J @ y)) == pytest.approx(1.0, rel=1e-14)


def test_negative_s_rejected(forms_xi1):
    with pytest.raises(DomainError):
        rt.smallest_eig(forms_xi1, -0.1)


@pytest.mark.parametrize("a, b", [(-1.0, 0.0), (1.0, -0.5)])
def test_bottom_eig_rejects_negative_weights(forms_xi1, a, b):
    # the certified lower end needs a E0 + b E1 >= -a g |xi| J
    with pytest.raises(DomainError):
        rt.bottom_eig(forms_xi1, a, b, 0.0)


class TestC2Diagnostic:
    def test_positive(self, forms_xi1):
        assert rt.c2_diagnostic(forms_xi1) > 0

    def test_slope_inequality(self, forms_xi1):
        c2 = rt.c2_diagnostic(forms_xi1)
        g_xi = forms_xi1.g * forms_xi1.xi
        for s in (0.1, 1.0, 10.0):
            assert rt.smallest_eig(forms_xi1, s).mu >= -g_xi + s * c2 - 1e-8

    def test_mesh_stability(self, profile):
        vals = []
        for n_el in (32, 64):
            forms = rt.assemble(profile, rt.Mesh.uniform(1, 1, n_el, order=2), 1.0)
            vals.append(rt.c2_diagnostic(forms))
        assert abs(vals[1] - vals[0]) <= 0.05 * abs(vals[0])


def test_minimizer_strong_form_convergence(profile):
    """Euler-Lagrange residual and natural jumps vanish under refinement."""
    s = 0.5
    resids, jumps = [], []
    for n_el in (32, 64, 128):
        mesh = rt.Mesh.uniform(1, 1, n_el, order=2)
        forms = rt.assemble(profile, mesh, 1.0)
        r = rt.smallest_eig(forms, s)
        phi, psi = forms.to_nodal(r.minimizer)
        resids.append(strong_form_residual(profile, mesh, phi, psi, 1.0, s, r.mu))
        jumps.append(jump_residuals(profile, mesh, phi, psi, 1.0, s))
    resids = np.array(resids)
    orders = np.log2(resids[:-1] / resids[1:])
    assert np.all(orders >= 1.0)
    jumps = np.array(jumps)
    assert np.all(jumps[-1][2:] < jumps[0][2:])
    assert np.all(jumps[-1][2:] < 1e-4)
    assert np.all(jumps[:, :2] == 0.0)   # continuity is structural


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("order", [1, 2])
def test_bands_match_packing_oracle(order, sigma, monkeypatch):
    # eigen's lower bands of the forms, and the band bottom_eig factors first (A - m J
    # at m = c - a g |xi| - 1), equal the dense oracle's packing entry for entry
    forms = rt.assemble(make_profile(sigma=sigma), rt.Mesh.uniform(1, 1, 6, order=order), 1.3)
    E0, E1, J = forms.dense()
    for M in (forms.E0, forms.E1, forms.J):
        assert np.array_equal(eigen._band((1.0, M)), pack_band(M.toarray(), order))
    first = []
    real = eigen._factor
    monkeypatch.setattr(eigen, "_factor", lambda ab: first.append(ab) or real(ab))
    lam = 0.2
    for a, b, c in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.4, 0.0), (1.0, lam, lam**2)):
        del first[:]
        rt.bottom_eig(forms, a, b, c)
        m = c - a * forms.g * forms.xi - 1.0
        assert np.array_equal(first[0], pack_band(a * E0 + b * E1 + c * J, order)
                              - m * pack_band(J, order))
