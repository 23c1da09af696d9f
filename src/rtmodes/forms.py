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

Each form is a :class:`CSR` over that pattern: a minimal matrix type whose
mat-vec is scipy's compiled ``csr_matvec`` (taken from :mod:`rtmodes._kernels`)
and whose other operations follow ``scipy.sparse``'s element order, so the
results are bit-identical to ``scipy.sparse.csr_matrix`` without importing it.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._kernels import csr_matvec
from .errors import DomainError, LayoutError
from .mesh import Mesh


class CSR:
    """A sparse matrix in CSR layout (``data``, ``indices``, ``indptr``, ``shape``).

    Supports what the package uses: ``@`` a vector, scalar ``*``, ``+`` of two
    matrices on one pattern (entry by entry, as scipy sums them),
    :meth:`toarray`, :meth:`triplets` and :meth:`vstack`.
    """

    __array_ufunc__ = None      # a numpy scalar or array operand defers to the methods here

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def __matmul__(self, x):
        if not (isinstance(x, np.ndarray) and x.shape == self.shape[1:]):
            raise LayoutError(f"cannot multiply a {self.shape} matrix by {np.shape(x)}")
        out = np.zeros(self.shape[0])       # csr_matvec adds into it, as scipy.sparse does
        csr_matvec(*self.shape, self.indptr, self.indices, self.data, x, out)
        return out

    def __mul__(self, scalar):
        return CSR(self.data * scalar, self.indices, self.indptr, self.shape)

    __rmul__ = __mul__

    def __add__(self, other):
        return CSR(self.data + self._same(other).data, self.indices, self.indptr, self.shape)

    def _same(self, other):
        if not (self.shape == other.shape and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)):
            raise LayoutError("matrices on different sparsity patterns")
        return other

    def toarray(self):
        rows, cols, data = self.triplets()
        out = np.zeros(self.shape)
        out[rows, cols] += data             # adds, as scipy's csr_todense does: -0.0 reads 0.0
        return out

    def triplets(self):
        """(row, col, value) of every stored entry in CSR order, as scipy's ``tocoo`` lists them."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return rows, self.indices, self.data

    @staticmethod
    def vstack(mats):
        """Matrices on one pattern stacked by rows: their data concatenated on the shared indices."""
        first = mats[0]
        for M in mats[1:]:
            first._same(M)
        offsets = first.nnz * np.arange(1, len(mats))
        indptr = np.concatenate([first.indptr, *(first.indptr[1:] + k for k in offsets)])
        n, m = first.shape
        return CSR(np.concatenate([M.data for M in mats]), np.tile(first.indices, len(mats)),
                   indptr, (len(mats) * n, m))


@dataclass
class FormSet:
    """The pencil (E0, E1, J) at one frequency magnitude, its bands and its dof layout.

    Degrees of freedom interleave the two fields over interior nodes:
    x = [phi_1, psi_1, phi_2, psi_2, ...] (node 0 and the last node are
    Dirichlet).  ``psi0_dof`` indexes psi at the interface.
    """

    xi: float
    E0: CSR
    E1: CSR
    J: CSR
    mesh: Mesh
    profile: object
    psi0_dof: int
    # (E0, E1, J) in upper band storage, written from their data (the mesh's CSR pattern)
    _bands: tuple = field(init=False, repr=False)

    def __post_init__(self):
        upper, slots = _mesh_forms(self.profile, self.mesh)[4]
        bands = np.zeros((3, (2 * self.mesh.order + 2) * self.n))
        for row, M in zip(bands, (self.E0, self.E1, self.J)):
            row[slots] = M.data[upper]
        self._bands = tuple(bands.reshape(3, -1, self.n))

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

    # -- derived matrices --------------------------------------------------

    def dense(self):
        """Dense copies (E0, E1, J)."""
        return self.E0.toarray(), self.E1.toarray(), self.J.toarray()

    def norms(self):
        """Inf-norms (|E0|, |E1|, |J|) for residual thresholds.

        Each row sum is one ``np.add.reduceat`` segment, as scipy's
        ``abs(A).sum(axis=1)`` forms it (every row holds its diagonal, so no
        segment is empty).
        """
        inf = lambda A: float(np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max())
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

    Returns (indptr, indices, mask, pos, upper, slots): element-matrix entry
    ``mask`` (both dofs interior) lands at CSR data position ``pos``; the CSR
    data at positions ``upper`` (row <= col) go to upper band storage
    ab[u + row - col, col], u = 2 * order + 1, at the flat positions ``slots``.
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
    rows, cols = keys // n, keys % n
    upper = np.flatnonzero(rows <= cols)
    slots = (2 * mesh.order + 1 + rows[upper] - cols[upper]) * n + cols[upper]
    return indptr, cols.astype(np.int32), mask, pos, upper, slots


@lru_cache(maxsize=8)
def _mesh_forms(profile, mesh):
    """Everything in the forms that does not depend on xi, once per (profile, mesh).

    Returns (indptr, indices, psi0_dof, psi0_slot, band_slots, coeffs): the
    CSR pattern, the data position of the psi(0) diagonal, :func:`_pattern`'s
    band-slot map, and per form the CSR data of its xi^0, xi^1, xi^2 terms.
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
    indptr, indices, mask, pos, upper, slots = _pattern(mesh)
    coeffs = {name: np.array([np.bincount(pos, weights=b[mask], minlength=indices.size)
                              for b in terms])
              for name, terms in blocks.items()}
    psi0_dof = 2 * (mesh.interface_node - 1) + 1
    start, stop = indptr[psi0_dof], indptr[psi0_dof + 1]
    psi0_slot = start + int(np.searchsorted(indices[start:stop], psi0_dof))
    return indptr, indices, psi0_dof, psi0_slot, (upper, slots), coeffs


def _form(cache, name, xi):
    """Form ``name`` of a :func:`_mesh_forms` cache at frequency xi, as a new CSR matrix."""
    indptr, indices, _, _, _, coeffs = cache
    powers = (1.0, xi, xi * xi)         # a float product overflows to inf, never raises
    with np.errstate(over="ignore", invalid="ignore"):
        data = sum(p * c for p, c in zip(powers, coeffs[name]))
    n = indptr.size - 1
    return CSR(data, indices.copy(), indptr.copy(), (n, n))


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
    _, _, psi0_dof, psi0_slot, _, _ = cache
    E0, E1, J = (_form(cache, name, xi) for name in ("E0", "E1", "J"))
    with np.errstate(over="ignore", invalid="ignore"):
        E0.data[psi0_slot] += profile.geometry.sigma * (xi * xi) / 2.0
        total = sum(float(M.data.sum()) for M in (E0, E1, J))     # inf or nan if any entry is
    if not math.isfinite(total):
        raise DomainError("the forms overflow at frequency magnitude xi = %g" % xi)
    return FormSet(xi=xi, E0=E0, E1=E1, J=J, mesh=mesh, profile=profile, psi0_dof=psi0_dof)
