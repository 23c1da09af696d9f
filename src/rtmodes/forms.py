"""Discrete quadratic forms for the per-frequency variational problem.

For a fixed horizontal frequency magnitude xi the (phi, psi) profiles on
[-m, ell] carry three quadratic forms:

* E0: gravity + compression + the surface-tension point mass at psi(0),
* E1: the viscous form (nonnegative, multiplies the family parameter s),
* J:  the density-weighted mass form defining the constraint J = 1.

All three use one shared Gauss rule per element.  Because the lower-bound
recombination -2 a b = (a-b)^2 - a^2 - b^2 is pointwise, sharing the rule
makes E0 + g*xi*J positive semidefinite exactly, not just up to quadrature
error.  Dirichlet conditions at x3 = -m, ell are eliminated from the layout;
the stress jump conditions are natural to the weak form and are not imposed.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, LayoutError
from .mesh import Mesh


@dataclass
class FormSet:
    """Assembled symmetric pencil data for one frequency magnitude.

    Degrees of freedom interleave the two fields over interior nodes:
    x = [phi_1, psi_1, phi_2, psi_2, ...] (node 0 and the last node are
    Dirichlet).  ``psi0_dof`` indexes psi at the interface.
    """

    xi: float
    E0: sp.csr_matrix
    E1: sp.csr_matrix
    J: sp.csr_matrix
    compression: sp.csr_matrix   # (1/2) int P'(rho0) rho0 (psi' + xi phi - g psi / P')^2
    mesh: Mesh
    profile: object
    psi0_dof: int
    # caches, empty in every new instance (a dataclasses.replace copy too)
    _dense: tuple | None = field(default=None, init=False, repr=False)
    _norms: tuple | None = field(default=None, init=False, repr=False)
    _bands: tuple | None = field(default=None, init=False, repr=False)   # filled by eigen._bands

    @property
    def n(self):
        return self.E0.shape[0]

    @property
    def sigma(self):
        return self.profile.geometry.sigma

    @property
    def g(self):
        return self.profile.geometry.g

    @property
    def rho_jump(self):
        return self.profile.rho_jump

    # -- layout ----------------------------------------------------------

    def from_nodal(self, phi, psi):
        """Pack nodal fields into a dof vector (boundary values dropped)."""
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        if phi.shape != (self.mesh.n_nodes,) or psi.shape != (self.mesh.n_nodes,):
            raise LayoutError("nodal arrays must have one value per mesh node")
        x = np.empty(self.n)
        x[0::2] = phi[1:-1]
        x[1::2] = psi[1:-1]
        return x

    def to_nodal(self, x):
        """Unpack a dof vector into (phi, psi) nodal arrays with zero ends."""
        x = self._check(x)
        phi = np.zeros(self.mesh.n_nodes)
        psi = np.zeros(self.mesh.n_nodes)
        phi[1:-1] = x[0::2]
        psi[1:-1] = x[1::2]
        return phi, psi

    def psi_trace(self, x):
        """psi(0) read off the interface dof."""
        return float(self._check(x)[self.psi0_dof])

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise LayoutError(f"dof vector has length {x.shape}, expected ({self.n},)")
        return x

    # -- form evaluation ---------------------------------------------------

    def e0_value(self, x):
        x = self._check(x)
        return float(x @ (self.E0 @ x))

    def e1_value(self, x):
        x = self._check(x)
        return float(x @ (self.E1 @ x))

    def dense(self):
        """Dense copies (E0, E1, J), cached."""
        if self._dense is None:
            self._dense = (self.E0.toarray(), self.E1.toarray(), self.J.toarray())
        return self._dense

    def norms(self):
        """Cached inf-norms (|E0|, |E1|, |J|) for residual thresholds."""
        if self._norms is None:
            inf = lambda A: float(abs(A).sum(axis=1).max())
            self._norms = (inf(self.E0), inf(self.E1), inf(self.J))
        return self._norms

    def completed_square_E0(self):
        """Independent assembly of E0 from the squared (nonnegative) form.

        Equals E0 up to the quadrature consistency error of the steady-state
        integration by parts, O(h^{2p}); used as a cross-check of assembly.
        """
        A = self.compression.tolil(copy=True)
        A[self.psi0_dof, self.psi0_dof] += (self.sigma * self.xi**2 - self.g * self.rho_jump) / 2.0
        return A.tocsr()


def form_value(forms, x, s):
    """x^T (E0 + s E1) x; nondecreasing in s for fixed x."""
    if s < 0:
        raise DomainError("family parameter s must be >= 0")
    x = forms._check(x)
    return forms.e0_value(x) + s * forms.e1_value(x)


def _field_vectors(mesh, xi):
    """Per-element generalized strain vectors at quadrature points.

    Returns arrays of shape (n_el, nq, 2*nd) for the combinations entering
    the forms; dof order within an element is [phi nodes | psi nodes].
    """
    n_el = mesh.n_elements
    nq = mesh.quad_points
    nd = mesh.order + 1
    N = np.broadcast_to(mesh.shape_q, (n_el, nq, nd))
    dN = mesh.dshape_q[None, :, :] / mesh.jacobian[:, None, None]
    zero = np.zeros((n_el, nq, nd))

    v_phi = np.concatenate([N, zero], axis=2)
    v_psi = np.concatenate([zero, N], axis=2)
    v_dphi = np.concatenate([dN, zero], axis=2)
    v_dpsi = np.concatenate([zero, dN], axis=2)
    v_div = v_dpsi + xi * v_phi          # psi' + xi phi
    v_shear1 = v_dphi - xi * v_psi       # phi' - xi psi
    v_shear2 = v_dpsi - xi * v_phi       # psi' - xi phi
    return v_phi, v_psi, v_div, v_shear1, v_shear2


def _accumulate(coeff_w, v, w=None):
    """sum_q coeff_w[e,q] * outer(v[e,q], w[e,q]) -> (n_el, 2nd, 2nd)."""
    if w is None:
        w = v
    return np.einsum("eq,eqi,eqj->eij", coeff_w, v, w, optimize=True)


def _scatter(mesh, el_mats, n):
    """Assemble per-element blocks into a global CSR matrix."""
    n_el = mesh.n_elements
    nd = mesh.order + 1
    gdof = np.full((n_el, 2 * nd), -1, dtype=np.int64)
    interior = lambda node: (node >= 1) & (node <= mesh.n_nodes - 2)
    conn = mesh.conn
    ok = interior(conn)
    gdof[:, :nd] = np.where(ok, 2 * (conn - 1), -1)
    gdof[:, nd:] = np.where(ok, 2 * (conn - 1) + 1, -1)

    rows = np.repeat(gdof[:, :, None], 2 * nd, axis=2)
    cols = np.repeat(gdof[:, None, :], 2 * nd, axis=1)
    mask = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix(
        (el_mats[mask], (rows[mask], cols[mask])), shape=(n, n)
    ).tocsr()
    A.sum_duplicates()
    return A


def assemble(profile, mesh, xi, _allow_zero=False):
    """Assemble (E0, E1, J) and the compression square for frequency xi.

    Quadrature is the mesh's shared Gauss rule, exact for the polynomial
    parts of the integrands at order 2 with 3 points; smooth-coefficient
    error is O(h^{2p}).
    """
    if xi < 0 or (xi == 0 and not _allow_zero):
        raise DomainError("frequency magnitude xi must be > 0")
    xq = mesh.quad_x           # (n_el, nq)
    wq = mesh.quad_w

    # Gauss points are interior to elements, so each side is the sign of x3
    f = profile.fields(xq)
    rho, pr, eps, dlt, gop = f["rho"], f["pr"], f["eps"], f["delta"], f["gop"]

    g = profile.geometry.g
    v_phi, v_psi, v_div, v_sh1, v_sh2 = _field_vectors(mesh, xi)
    v_sq = v_div - gop[:, :, None] * v_psi   # psi' + xi phi - (g/P') psi

    e0 = _accumulate(wq * 0.5 * pr, v_div)
    cross = _accumulate(wq * (-0.5 * g * rho * xi), v_phi, v_psi)
    e0 += cross + np.swapaxes(cross, 1, 2)
    e1 = _accumulate(wq * 0.5 * (dlt + eps / 3.0), v_div)
    e1 += _accumulate(wq * 0.5 * eps, v_sh1)
    e1 += _accumulate(wq * 0.5 * eps, v_sh2)
    jm = _accumulate(wq * 0.5 * rho, v_phi)
    jm += _accumulate(wq * 0.5 * rho, v_psi)
    cp = _accumulate(wq * 0.5 * pr, v_sq)

    n = 2 * (mesh.n_nodes - 2)
    E0 = _scatter(mesh, e0, n)
    E1 = _scatter(mesh, e1, n)
    J = _scatter(mesh, jm, n)
    CP = _scatter(mesh, cp, n)

    psi0_dof = 2 * (mesh.interface_node - 1) + 1
    sigma = profile.geometry.sigma
    if sigma > 0 and xi > 0:
        pt = sp.coo_matrix(
            ([sigma * xi**2 / 2.0], ([psi0_dof], [psi0_dof])), shape=(n, n)
        ).tocsr()
        E0 = (E0 + pt).tocsr()

    return FormSet(
        xi=float(xi), E0=E0, E1=E1, J=J, compression=CP,
        mesh=mesh, profile=profile, psi0_dof=psi0_dof,
    )
