import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import rtmodes as rt
from rtmodes.errors import DomainError, LayoutError

from conftest import dense_spectrum, make_profile


def bump_pair(alpha, xi, forms):
    """The closed-form test family: psi = (1 - x^2)^(alpha/2), phi = -psi'/xi."""
    psi = lambda x: (1 - x**2) ** (alpha / 2) if abs(x) < 1 else 0.0
    dpsi = lambda x: -alpha * x * (1 - x**2) ** (alpha / 2 - 1) if abs(x) < 1 else 0.0
    xs = forms.mesh.nodes
    phi_n = np.array([-dpsi(x) / xi for x in xs])
    psi_n = np.array([psi(x) for x in xs])
    return forms.from_nodal(phi_n, psi_n), psi, dpsi


def test_zero_vector_zero_forms(forms_xi1):
    x = np.zeros(forms_xi1.n)
    for M in (forms_xi1.E0, forms_xi1.E1, forms_xi1.J):
        assert x @ (M @ x) == 0.0


def test_symmetry(forms_xi1):
    for M in (forms_xi1.E0, forms_xi1.E1, forms_xi1.J):
        asym = abs(M - M.T).max()
        assert asym <= 1e-13 * abs(M).max()


def test_replace_copy_reads_its_own_matrices(forms_xi1):
    copy = dataclasses.replace(forms_xi1, E1=0.0 * forms_xi1.E1)
    assert np.all(copy._bands[1] == 0.0)      # bands come from the copy's own matrices
    assert np.all(copy.dense()[1] == 0.0)
    assert copy.norms()[1] == 0.0


def dense_assembly(profile, mesh, xi):
    """(E0, E1, J, compression) at one xi by a direct dense loop over elements and
    Gauss points, with the strains formed at that xi: an oracle for the cached
    polynomial assembly."""
    n = 2 * (mesh.n_nodes - 2)
    E0, E1, J, CP = (np.zeros((n, n)) for _ in range(4))
    g = profile.geometry.g
    f = profile.fields(mesh.quad_x)
    z, o = np.zeros(mesh.order + 1), np.outer
    for e, nodes in enumerate(mesh.conn):
        dofs = np.concatenate([2 * (nodes - 1), 2 * (nodes - 1) + 1])     # [phi | psi]
        keep = np.concatenate([(nodes >= 1) & (nodes <= mesh.n_nodes - 2)] * 2)
        at, sub = np.ix_(dofs[keep], dofs[keep]), np.ix_(keep, keep)
        for q in range(mesh.quad_points):
            N, dN = mesh.shape_q[q], mesh.dshape_q[q] / mesh.jacobian[e]
            phi, psi, dphi, dpsi = (np.concatenate(p) for p in ((N, z), (z, N), (dN, z), (z, dN)))
            div, sq = dpsi + xi * phi, dpsi + xi * phi - f["gop"][e, q] * psi
            sh1, sh2 = dphi - xi * psi, dpsi - xi * phi
            rho, pr, eps, dl = (f[k][e, q] for k in ("rho", "pr", "eps", "delta"))
            hw = 0.5 * mesh.quad_w[e, q]
            E0[at] += hw * (pr * o(div, div) - g * rho * xi * (o(phi, psi) + o(psi, phi)))[sub]
            E1[at] += hw * ((dl + eps / 3) * o(div, div) + eps * (o(sh1, sh1) + o(sh2, sh2)))[sub]
            J[at] += hw * rho * (o(phi, phi) + o(psi, psi))[sub]
            CP[at] += hw * pr * o(sq, sq)[sub]
    psi0 = 2 * (mesh.interface_node - 1) + 1
    E0[psi0, psi0] += profile.geometry.sigma * xi**2 / 2
    return E0, E1, J, CP


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("order", [1, 2])
def test_assembly_matches_dense_oracle(order, sigma):
    profile = make_profile(sigma=sigma)
    mesh = rt.Mesh.uniform(1, 1, 6, order=order)
    for xi in (0.05, 1.0, 3.0):
        forms = rt.assemble(profile, mesh, xi)
        got = (forms.E0, forms.E1, forms.J, forms.compression())
        for M, ref in zip(got, dense_assembly(profile, mesh, xi)):
            assert np.abs(M.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


def test_formsets_share_no_arrays_with_the_cache(profile, mesh32):
    matrices = lambda f: (f.E0, f.E1, f.J, f.compression())
    first = rt.assemble(profile, mesh32, 1.0)
    old = matrices(first)
    ref = [M.toarray() for M in old]
    for M in old:
        M.data[:] = np.nan
    for b in first._bands:
        b[:] = np.nan
    again = rt.assemble(profile, mesh32, 1.0)
    for M, O, R in zip(matrices(again), old, ref):
        assert np.array_equal(M.toarray(), R)
        for a in ("data", "indices", "indptr"):
            assert not np.shares_memory(getattr(M, a), getattr(O, a))
    assert all(np.all(np.isfinite(b)) for b in again._bands)


def test_j_positive_definite_e1_psd(forms_xi1):
    jd = forms_xi1.J.toarray()
    assert np.linalg.eigvalsh(jd)[0] > 0
    e1 = forms_xi1.E1.toarray()
    assert np.linalg.eigvalsh(e1)[0] >= -1e-13 * abs(e1).max()


def test_variational_lower_bound_psd(forms_xi1):
    # E0 + g xi J is PSD: the recombination is pointwise under shared quadrature
    evs = dense_spectrum(forms_xi1, 0.0)
    assert evs[0] >= -forms_xi1.g * forms_xi1.xi - 1e-9


def test_bump_energy_matches_quadrature_oracle(profile, mesh64):
    xi, alpha = 1.0, 12.0
    forms = rt.assemble(profile, mesh64, xi)
    x, psi, dpsi = bump_pair(alpha, xi, forms)
    # Etilde at s=0 reduces to the sigma point term plus int g rho0 psi psi'
    oracle = profile.geometry.sigma * xi**2 / 2 * psi(0.0) ** 2
    for side, a, b in ((-1, -1.0, 0.0), (+1, 0.0, 1.0)):
        oracle += profile.geometry.g * quad(
            lambda t: profile.density(t, side=side) * psi(t) * dpsi(t), a, b, limit=200
        )[0]
    assert x @ (forms.E0 @ x) == pytest.approx(oracle, abs=2e-6)


def test_bump_pair_negative_at_small_s(forms_xi1):
    # sigma xi^2 = 0.1 < g [rho0] = 1: the window is open at xi = 1
    x, _, _ = bump_pair(12.0, forms_xi1.xi, forms_xi1)
    x = x / np.sqrt(x @ (forms_xi1.J @ x))
    assert x @ ((forms_xi1.E0 + 1e-4 * forms_xi1.E1) @ x) < 0


def test_completed_square_identity_and_rate(profile, rng):
    # E0 assembled independently from the squared (nonnegative) form: the
    # compression square plus the psi(0) point mass (sigma xi^2 - g [rho0]) / 2.
    # They agree up to the quadrature consistency error of the steady-state
    # integration by parts, O(h^{2p})
    geom = profile.geometry
    errs = []
    for n_el in (32, 64):
        mesh = rt.Mesh.uniform(1, 1, n_el, order=2)
        forms = rt.assemble(profile, mesh, 1.0)
        C = forms.compression()
        mass = (geom.sigma * forms.xi**2 - geom.g * profile.rho_jump) / 2.0
        worst = 0.0
        r = np.random.default_rng(7)
        for _ in range(6):
            x = r.standard_normal(forms.n)
            x /= np.sqrt(x @ (forms.J @ x))
            square = float(x @ (C @ x)) + mass * x[forms.psi0_dof] ** 2
            worst = max(worst, abs(float(x @ (forms.E0 @ x)) - square))
        errs.append(worst)
    h = 2.0 / 32
    assert errs[0] <= 5.0 * h**2            # discretization-error sized
    assert errs[0] / errs[1] > 2.0          # and it shrinks under refinement


@pytest.mark.parametrize("order,expected_rate", [(1, 4.0), (2, 16.0)])
def test_eigenvalue_refinement_order(profile, order, expected_rate):
    # Richardson on the bottom eigenvalue at h, h/2, h/4: order 2p
    mus = []
    for n_el in (16, 32, 64):
        mesh = rt.Mesh.uniform(1, 1, n_el, order=order)
        forms = rt.assemble(profile, mesh, 1.0)
        mus.append(rt.smallest_eig(forms, 0.5).mu)
    rate = (mus[0] - mus[1]) / (mus[1] - mus[2])
    assert rate == pytest.approx(expected_rate, rel=0.35)


def test_supercritical_frequency_nonnegative(profile, mesh32):
    # sigma xi^2 >= g [rho0] forces E >= 0 for every s
    forms = rt.assemble(profile, mesh32, 2.0 * profile.xi_c)
    for s in (0.0, 0.01, 0.1, 1.0, 10.0):
        evs = dense_spectrum(forms, s)
        assert evs[0] >= -1e-9


def test_interface_point_mass_location(profile, mesh32):
    f_sig = rt.assemble(profile, mesh32, 2.0)
    prof0 = make_profile(sigma=0.0)
    f_nos = rt.assemble(prof0, mesh32, 2.0)
    diff = (f_sig.E0 - f_nos.E0).tocsr()
    diff.eliminate_zeros()
    diff = diff.tocoo()
    assert diff.nnz == 1
    assert diff.row[0] == f_sig.psi0_dof and diff.col[0] == f_sig.psi0_dof
    assert diff.data[0] == pytest.approx(0.1 * 4.0 / 2.0, rel=1e-13)


def test_dof_layout_roundtrip(forms_xi1, rng):
    x = rng.standard_normal(forms_xi1.n)
    phi, psi = forms_xi1.to_nodal(x)
    assert phi[0] == phi[-1] == psi[0] == psi[-1] == 0.0
    assert np.array_equal(forms_xi1.from_nodal(phi, psi), x)
    assert forms_xi1.psi_trace(x) == psi[forms_xi1.mesh.interface_node]


def test_layout_errors(forms_xi1):
    with pytest.raises(LayoutError):
        forms_xi1.to_nodal(np.ones(3))
    with pytest.raises(LayoutError):
        forms_xi1.psi_trace(np.ones(3))
    with pytest.raises(LayoutError):
        forms_xi1.from_nodal(np.ones(4), np.ones(4))


def test_invalid_frequency_rejected(profile, mesh32):
    with pytest.raises(DomainError):
        rt.assemble(profile, mesh32, 0.0)
    with pytest.raises(DomainError):
        rt.assemble(profile, mesh32, -1.0)


def test_mesh_structure(mesh32):
    assert mesh32.nodes[0] == -1.0 and mesh32.nodes[-1] == 1.0
    assert 0.0 in mesh32.nodes
    assert np.all(np.diff(mesh32.nodes) > 0)
    # no element straddles the interface
    mids = 0.5 * (mesh32.element_breaks[:-1] + mesh32.element_breaks[1:])
    assert np.all(mids != 0.0)


def test_mesh_eval_nodal_derivatives(mesh32):
    vals = np.sin(mesh32.nodes)
    xs = np.array([-0.73, -0.21, 0.34, 0.92])
    assert mesh32.eval_nodal(vals, xs) == pytest.approx(np.sin(xs), abs=1e-5)
    assert mesh32.eval_nodal(vals, xs, deriv=1) == pytest.approx(np.cos(xs), abs=1e-3)
    assert mesh32.eval_nodal(vals, xs, deriv=2) == pytest.approx(-np.sin(xs), abs=5e-2)


def test_mesh_eval_boundaries_and_sides(mesh32):
    vals = np.cos(mesh32.nodes)
    ends = np.array([-1.0, 1.0])
    for side in (None, -1, +1):
        got = mesh32.eval_nodal(vals, ends, side=side)
        assert got == pytest.approx(np.cos(ends), abs=1e-12)
    # one-sided derivatives at the interface come from different elements
    d_lo = mesh32.eval_nodal(vals, [0.0], side=-1, deriv=1)[0]
    d_hi = mesh32.eval_nodal(vals, [0.0], side=+1, deriv=1)[0]
    assert d_lo == pytest.approx(0.0, abs=1e-3)
    assert d_hi == pytest.approx(0.0, abs=1e-3)
