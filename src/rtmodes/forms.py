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

The forms are quadratic polynomials in xi.  Expanding the strains
psi' + xi phi, phi' - xi psi and psi' - xi phi gives

    E0 = A0 + xi A1 + xi^2 (A2 + (sigma/2) e e^T),    E1 = B0 + xi B1 + xi^2 B2,

with e the unit vector of psi(0); J has no xi.  The compression square has
the shape of E0 without the point mass; only the small-period stability
constants read it, so :meth:`FormSet.compression` builds it on call.  The
xi-free work (one profile evaluation at the Gauss points, the element
integrals of every coefficient, their scatter into the mesh's one CSR
pattern) runs once per (profile, mesh) and is cached; ``assemble`` and
``compression`` evaluate the polynomials.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, LayoutError
from .mesh import Mesh


@dataclass
class FormSet:
    """The pencil (E0, E1, J) at one frequency magnitude, its bands and its dof layout.

    Degrees of freedom interleave the two fields over interior nodes:
    x = [phi_1, psi_1, phi_2, psi_2, ...] (node 0 and the last node are
    Dirichlet).  ``psi0_dof`` indexes psi at the interface.
    """

    xi: float
    E0: sp.csr_matrix
    E1: sp.csr_matrix
    J: sp.csr_matrix
    mesh: Mesh
    profile: object
    psi0_dof: int
    # (E0, E1, J) in upper band storage, from this instance's own matrices
    _bands: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self._bands = tuple(map(self._band, (self.E0, self.E1, self.J)))

    @property
    def n(self):
        return self.E0.shape[0]

    @property
    def sigma(self):
        return self.profile.geometry.sigma

    @property
    def g(self):
        return self.profile.geometry.g

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

    def _band(self, A):
        """Upper band storage of a symmetric CSR matrix, as cholesky_banded reads it."""
        u = 2 * self.mesh.order + 1
        rows = np.repeat(np.arange(self.n), np.diff(A.indptr))
        upper = rows <= A.indices
        ab = np.zeros((u + 1, self.n))
        ab[u + rows[upper] - A.indices[upper], A.indices[upper]] = A.data[upper]
        return ab

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise LayoutError(f"dof vector has length {x.shape}, expected ({self.n},)")
        return x

    # -- derived matrices --------------------------------------------------

    def dense(self):
        """Dense copies (E0, E1, J)."""
        return self.E0.toarray(), self.E1.toarray(), self.J.toarray()

    def norms(self):
        """Inf-norms (|E0|, |E1|, |J|) for residual thresholds."""
        inf = lambda A: float(abs(A).sum(axis=1).max())
        return inf(self.E0), inf(self.E1), inf(self.J)

    def compression(self):
        """The compression square (1/2) int P'(rho0) rho0 (psi' + xi phi - g psi / P')^2, built on call."""
        return _form(_mesh_forms(self.profile, self.mesh), "compression", self.xi)


def _basis(mesh):
    """phi, psi, phi', psi' at the Gauss points, (n_el, nq, 2 nd) each, dofs [phi nodes | psi nodes]."""
    n_el, nq, nd = mesh.n_elements, mesh.quad_points, mesh.order + 1
    N = np.broadcast_to(mesh.shape_q, (n_el, nq, nd))
    dN = mesh.dshape_q[None, :, :] / mesh.jacobian[:, None, None]
    zero = np.zeros((n_el, nq, nd))
    return (np.concatenate([N, zero], axis=2), np.concatenate([zero, N], axis=2),
            np.concatenate([dN, zero], axis=2), np.concatenate([zero, dN], axis=2))


def _pattern(mesh):
    """The mesh's one CSR pattern and its element scatter map.

    Returns (indptr, indices, mask, pos): element-matrix entry ``mask`` (both
    dofs interior) lands at CSR data position ``pos``.
    """
    conn = mesh.conn
    interior = (conn >= 1) & (conn <= mesh.n_nodes - 2)
    gdof = np.concatenate([np.where(interior, 2 * (conn - 1), -1),
                           np.where(interior, 2 * (conn - 1) + 1, -1)], axis=1)
    n = 2 * (mesh.n_nodes - 2)
    rows, cols = gdof[:, :, None], gdof[:, None, :]
    mask = (rows >= 0) & (cols >= 0)
    keys, pos = np.unique((rows * n + cols)[mask], return_inverse=True)
    indptr = np.searchsorted(keys, n * np.arange(n + 1)).astype(np.int32)
    return indptr, (keys % n).astype(np.int32), mask, pos


@lru_cache(maxsize=8)
def _mesh_forms(profile, mesh):
    """Everything in the forms that does not depend on xi, once per (profile, mesh).

    Returns (indptr, indices, psi0_dof, psi0_slot, coeffs): the CSR pattern,
    the data position of the psi(0) diagonal, and per form the CSR data of
    its xi^0, xi^1, xi^2 coefficients (J has only xi^0).
    """
    f = profile.fields(mesh.quad_x)      # Gauss points are interior, so x3 != 0
    hw = 0.5 * mesh.quad_w
    pr, rho = hw * f["pr"], hw * f["rho"]
    bulk, shear = hw * (f["delta"] + f["eps"] / 3.0), hw * f["eps"]
    g = profile.geometry.g
    P, S, dP, dS = _basis(mesh)
    U = dS - f["gop"][:, :, None] * S    # psi' - (g / P') psi

    acc = lambda c, v, w: np.einsum("eq,eqi,eqj->eij", c, v, w, optimize=True)
    sym = lambda m: m + np.swapaxes(m, 1, 2)
    # expand psi' + xi phi, phi' - xi psi and psi' - xi phi in powers of xi
    pr_PP = acc(pr, P, P)
    blocks = {
        "E0": (acc(pr, dS, dS), sym(acc(pr, dS, P) - g * acc(rho, P, S)), pr_PP),
        "E1": (acc(bulk, dS, dS) + acc(shear, dP, dP) + acc(shear, dS, dS),
               sym(acc(bulk - shear, dS, P) - acc(shear, dP, S)),
               acc(bulk + shear, P, P) + acc(shear, S, S)),
        "J": (acc(rho, P, P) + acc(rho, S, S),),
        "compression": (acc(pr, U, U), sym(acc(pr, U, P)), pr_PP),
    }
    indptr, indices, mask, pos = _pattern(mesh)
    coeffs = {name: np.array([np.bincount(pos, weights=b[mask], minlength=indices.size)
                              for b in terms])
              for name, terms in blocks.items()}
    psi0_dof = 2 * (mesh.interface_node - 1) + 1
    start, stop = indptr[psi0_dof], indptr[psi0_dof + 1]
    psi0_slot = start + int(np.searchsorted(indices[start:stop], psi0_dof))
    return indptr, indices, psi0_dof, psi0_slot, coeffs


def _form(cache, name, xi):
    """Form ``name`` of a :func:`_mesh_forms` cache at frequency xi, as a new CSR matrix."""
    indptr, indices, _, _, coeffs = cache
    powers = (1.0, xi, xi * xi)         # a float product overflows to inf, never raises
    with np.errstate(over="ignore", invalid="ignore"):
        data = sum(p * c for p, c in zip(powers, coeffs[name]))
    n = indptr.size - 1
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def assemble(profile, mesh, xi, _allow_zero=False):
    """Assemble the pencil (E0, E1, J) for frequency xi.

    Evaluates the cached xi-polynomials of :func:`_mesh_forms` and adds the
    surface-tension point mass; every returned array is new.  Quadrature is
    the mesh's shared Gauss rule; smooth-coefficient error is O(h^{2p}).  A
    frequency at which a form entry overflows raises DomainError.
    """
    if xi < 0 or (xi == 0 and not _allow_zero):
        raise DomainError("frequency magnitude xi must be > 0")
    xi = float(xi)
    cache = _mesh_forms(profile, mesh)
    _, _, psi0_dof, psi0_slot, _ = cache
    E0, E1, J = (_form(cache, name, xi) for name in ("E0", "E1", "J"))
    with np.errstate(over="ignore", invalid="ignore"):
        E0.data[psi0_slot] += profile.geometry.sigma * (xi * xi) / 2.0
        total = sum(float(M.data.sum()) for M in (E0, E1, J))     # inf or nan if any entry is
    if not math.isfinite(total):
        raise DomainError("the forms overflow at frequency magnitude xi = %g" % xi)
    return FormSet(xi=xi, E0=E0, E1=E1, J=J, mesh=mesh, profile=profile, psi0_dof=psi0_dof)
