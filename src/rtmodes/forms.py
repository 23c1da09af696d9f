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

with e the unit vector of psi(0); J has no xi.  The xi-free work (one profile
evaluation at the Gauss points, the element integrals of every coefficient,
their scatter into band slots) runs once per (profile, mesh), and the
coefficients of E0, E1 and J are cached; ``assemble`` evaluates the
polynomials.  The compression square has the shape of E0 without the point
mass.  Only the small-period stability constants read it, so
:meth:`FormSet.compression` builds its three coefficients on call, from the
same xi-free prelude, and caches nothing.

Each form is held once, as a :class:`Band` in diagonal (DIA) layout with
half-bandwidth kd = 2 * order + 1.  Its bottom kd + 1 rows are LAPACK's
lower band storage, from which :mod:`rtmodes.eigen` alone builds and factors
bands, and ``@`` is scipy's compiled ``dia_matvec`` over the whole array
(from :mod:`rtmodes._kernels`), so factorizations and mat-vecs read the same
entries.  Only upper entries are integrated; the lower rows mirror them, so
every form is exactly symmetric.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import dia_matvec
from .errors import DomainError, LayoutError
from .mesh import Mesh


class Band:
    """A symmetric band matrix, ``data[kd + i - j, j] = A[i, j]`` for ``|i - j| <= kd``.

    The 2 kd + 1 rows of ``data`` are scipy's DIA diagonals at offsets kd,
    ..., -kd, zero where ``i`` falls outside the matrix.  ``pattern`` holds
    the flat ``data`` positions of the entries the mesh couples, row by row;
    every band of a mesh shares it, read-only.
    """

    def __init__(self, data, pattern):
        self.data, self.pattern, self.nnz = data, pattern, pattern.size
        self.kd, self.shape = data.shape[0] // 2, (data.shape[1],) * 2

    def __matmul__(self, x):
        if not (isinstance(x, np.ndarray) and x.shape == self.shape[1:]):
            raise LayoutError(f"cannot multiply a {self.shape} matrix by {np.shape(x)}")
        return _dia_product(self.data, _offsets(self.kd), x, x.size)

    def toarray(self):
        rows, cols, values = self.triplets()
        out = np.zeros(self.shape)
        out[rows, cols] = values
        return out

    def triplets(self):
        """(row, col, value) of every entry the mesh couples, row by row with ascending columns."""
        diag, cols = np.divmod(self.pattern, self.shape[0])
        return cols + diag - self.kd, cols, self.data.ravel()[self.pattern]

    @staticmethod
    def stacked(mats):
        """The product ``x -> [M_0 x; M_1 x; ...]`` of bands of one layout, by one ``dia_matvec``.

        Block b's offsets are shifted by -b n, so its rows land below block b - 1's,
        and the zeros outside each matrix keep its diagonals out of its neighbours' rows.
        """
        n, kd = mats[0].shape[0], mats[0].kd
        if not all(isinstance(M, Band) and M.data.shape == mats[0].data.shape for M in mats):
            raise LayoutError("bands of different layouts")
        data = np.concatenate([M.data for M in mats])
        offsets = np.concatenate([_offsets(kd) - b * n for b in range(len(mats))])
        return lambda x: _dia_product(data, offsets, x, len(mats) * n)


@lru_cache(maxsize=None)
def _offsets(kd):
    """The offsets kd, ..., -kd, int32 as scipy's dia_matrix keeps them: one read-only array per kd."""
    offsets = np.arange(kd, -kd - 1, -1, dtype=np.int32)
    offsets.flags.writeable = False
    return offsets


def _dia_product(data, offsets, x, rows):
    out = np.zeros(rows)            # dia_matvec adds into it, as scipy.sparse does
    dia_matvec(rows, x.size, offsets.size, x.size, offsets, data, x, out)
    return out


@dataclass
class FormSet:
    """The pencil (E0, E1, J) at one frequency magnitude and its dof layout.

    Degrees of freedom interleave the two fields over interior nodes:
    x = [phi_1, psi_1, phi_2, psi_2, ...] (node 0 and the last node are
    Dirichlet).  ``psi0_dof`` indexes psi at the interface.
    """

    xi: float
    E0: Band
    E1: Band
    J: Band
    mesh: Mesh
    profile: object
    psi0_dof: int

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
        """Inf-norms (|E0|, |E1|, |J|) for residual thresholds: column sums, as the forms are symmetric."""
        inf = lambda A: float(np.abs(A.data).sum(axis=0).max())
        return inf(self.E0), inf(self.E1), inf(self.J)

    def compression(self):
        """The compression square (1/2) int P'(rho0) rho0 (psi' + xi phi - g psi / P')^2, built on call."""
        f, hw, (P, S, _, dS), pattern, bands = _prelude(self.profile, self.mesh)
        pr, U = hw * f["pr"], dS - f["gop"][:, :, None] * S     # U = psi' - (g / P') psi
        return _form(pattern, bands(_acc(pr, U, U), _sym(_acc(pr, U, P)), _acc(pr, P, P)), self.xi)


def _basis(mesh):
    """phi, psi, phi', psi' at the Gauss points, (n_el, nq, 2 nd) each, dofs [phi nodes | psi nodes]."""
    n_el, nq, nd = mesh.n_elements, mesh.quad_points, mesh.order + 1
    N = np.broadcast_to(mesh.shape_q, (n_el, nq, nd))
    dN = mesh.dshape_q[None, :, :] / mesh.jacobian[:, None, None]
    zero = np.zeros((n_el, nq, nd))
    return (np.concatenate([N, zero], axis=2), np.concatenate([zero, N], axis=2),
            np.concatenate([dN, zero], axis=2), np.concatenate([zero, dN], axis=2))


def _layout(mesh):
    """(n, kd, upper, slots, pattern) of the mesh's bands.

    The element-matrix entries ``upper`` (both dofs interior, row <= col) are
    summed into the flat band slots ``slots``; ``pattern`` is the flat slot of
    every coupled entry of either triangle, row by row with ascending columns.
    """
    conn = mesh.conn
    interior = (conn >= 1) & (conn <= mesh.n_nodes - 2)
    gdof = np.concatenate([np.where(interior, 2 * (conn - 1), -1),
                           np.where(interior, 2 * (conn - 1) + 1, -1)], axis=1)
    n, kd = 2 * (mesh.n_nodes - 2), 2 * mesh.order + 1
    rows, cols = np.broadcast_arrays(gdof[:, :, None], gdof[:, None, :])
    coupled = (rows >= 0) & (cols >= 0)
    upper = coupled & (rows <= cols)
    near = np.zeros((n, 2 * kd + 1), dtype=bool)       # near[i, kd + j - i]: (i, j) is coupled
    near[rows[coupled], kd + cols[coupled] - rows[coupled]] = True
    i, d = np.nonzero(near)                             # row by row, columns ascending
    pattern = (2 * kd - d) * n + i + d - kd
    pattern.flags.writeable = False
    return n, kd, upper, ((kd + rows - cols) * n + cols)[upper], pattern


def _prelude(profile, mesh):
    """The xi-free work every form shares: (f, hw, basis, pattern, bands).

    ``f`` is one profile evaluation at the Gauss points, ``hw`` half the Gauss
    weights, ``basis`` :func:`_basis`'s (P, S, dP, dS) and ``pattern`` :func:`_layout`'s.
    ``bands(*terms)`` sums the element matrices of each of a form's xi^0, xi^1,
    xi^2 terms into band slots and stacks their band data.
    """
    f = profile.fields(mesh.quad_x)      # Gauss points are interior, so x3 != 0
    n, kd, upper, slots, pattern = _layout(mesh)

    def bands(*terms):
        data = np.array([np.bincount(slots, weights=term[upper], minlength=(2 * kd + 1) * n)
                         for term in terms]).reshape(len(terms), -1, n)
        for d in range(1, kd + 1):      # A[j + d, j] = A[j, j + d]
            data[:, kd + d, :-d] = data[:, kd - d, d:]
        return data

    return f, 0.5 * mesh.quad_w, _basis(mesh), pattern, bands


def _acc(c, v, w):
    """Sum over Gauss points q of c[e, q] v[e, q, i] w[e, q, j], one batched product per element."""
    return np.matmul((c[:, :, None] * v).swapaxes(1, 2), w)


def _sym(m):
    return m + np.swapaxes(m, 1, 2)


@lru_cache(maxsize=8)
def _mesh_forms(profile, mesh):
    """Everything in E0, E1 and J that does not depend on xi, once per (profile, mesh).

    Returns (pattern, psi0_dof, coeffs): :func:`_layout`'s pattern, the
    interface dof, and per form the band data of its xi^0, xi^1, xi^2 terms.
    """
    f, hw, (P, S, dP, dS), pattern, bands = _prelude(profile, mesh)
    pr, rho = hw * f["pr"], hw * f["rho"]
    bulk, shear = hw * (f["delta"] + f["eps"] / 3.0), hw * f["eps"]
    g = profile.geometry.g
    # expand psi' + xi phi, phi' - xi psi and psi' - xi phi in powers of xi
    coeffs = {
        "E0": bands(_acc(pr, dS, dS), _sym(_acc(pr, dS, P) - g * _acc(rho, P, S)), _acc(pr, P, P)),
        "E1": bands(_acc(bulk, dS, dS) + _acc(shear, dP, dP) + _acc(shear, dS, dS),
                    _sym(_acc(bulk - shear, dS, P) - _acc(shear, dP, S)),
                    _acc(bulk + shear, P, P) + _acc(shear, S, S)),
        "J": bands(_acc(rho, P, P) + _acc(rho, S, S)),
    }
    return pattern, 2 * (mesh.interface_node - 1) + 1, coeffs


def _form(pattern, coeffs, xi):
    """The band with data ``sum_k xi^k coeffs[k]``, new."""
    powers = (1.0, xi, xi * xi)         # a float product overflows to inf, never raises
    with np.errstate(over="ignore", invalid="ignore"):
        data = sum(p * c for p, c in zip(powers, coeffs))
    return Band(data, pattern)


def assemble(profile, mesh, xi, _allow_zero=False):
    """Assemble the pencil (E0, E1, J) for frequency xi.

    Evaluates the cached xi-polynomials of :func:`_mesh_forms` and adds the
    surface-tension point mass; every returned data array is new.  Quadrature
    is the mesh's shared Gauss rule; smooth-coefficient error is O(h^{2p}).  A
    frequency at which a form entry overflows raises DomainError.
    """
    if xi < 0 or (xi == 0 and not _allow_zero):
        raise DomainError("frequency magnitude xi must be > 0")
    xi = float(xi)
    pattern, psi0_dof, coeffs = _mesh_forms(profile, mesh)
    E0, E1, J = (_form(pattern, coeffs[name], xi) for name in ("E0", "E1", "J"))
    with np.errstate(over="ignore", invalid="ignore"):
        E0.data[E0.kd, psi0_dof] += profile.geometry.sigma * (xi * xi) / 2.0
        total = sum(float(M.data.sum()) for M in (E0, E1, J))     # inf or nan if any entry is
    if not math.isfinite(total):
        raise DomainError("the forms overflow at frequency magnitude xi = %g" % xi)
    return FormSet(xi=xi, E0=E0, E1=E1, J=J, mesh=mesh, profile=profile, psi0_dof=psi0_dof)
