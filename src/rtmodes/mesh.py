"""1D finite element mesh on [-m, ell] with a node pinned at the interface.

Lagrange elements of order 1 or 2 on each side of x3 = 0; no element
straddles the interface, so piecewise-smooth coefficients are smooth within
every element.  Quadrature is Gauss-Legendre per element, shared by every
form assembled on the mesh: three points, at least order + 1 for both
orders, so the element mass form J is nonsingular.  :func:`gauss_legendre`
gives the rule of any size, for the radial integral of a synthesized field,
by Newton's method on the Legendre recurrence: numpy core alone, where
``numpy.polynomial``'s import or ``numpy.linalg``'s LAPACK would cost every
run that needs one.
"""

import numpy as np

from .errors import ConfigurationError, DomainError, storable

# the 3-point Gauss-Legendre rule on [-1, 1], equal bit for bit to
# numpy.polynomial.legendre.leggauss(3); gauss_legendre(3) has the same nodes and
# middle weight, and end weights 4 ulps (4.4e-16) below these
QUAD_NODES = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
QUAD_WEIGHTS = np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557])
QUAD_POINTS = len(QUAD_NODES)
# Newton steps of gauss_legendre; from its starting nodes n = 1..4000 take at most 5
_NEWTON_STEPS = 8


def _legendre(n, x):
    """P_n(x) and P_n'(x) at every x by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1)


def gauss_legendre(n):
    """The n-point Gauss-Legendre rule (nodes, weights) on [-1, 1], by Newton's method.

    All n nodes take Newton steps on P_n together, from x_k = -cos(pi (k - 1/4) / (n + 1/2)),
    until the largest step is at most 4 eps; the weights are 2 / ((1 - x^2) P_n'(x)^2) at
    the final nodes.  O(n^2) work in O(n) memory, with no LAPACK (the O(n^3) Golub-Welsch
    rule needs an eigensolver).  Nodes increase and, like the weights, are made exactly
    symmetric about 0.
    """
    x = -np.cos(np.pi * (np.arange(1.0, n + 1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 4 * np.finfo(float).eps:
            break
    dp = _legendre(n, x)[1]
    weights = 2 / ((1 - x * x) * dp * dp)
    return (x - x[::-1]) / 2, (weights + weights[::-1]) / 2


def shape_functions(order, t):
    """Lagrange shape values and reference derivatives at points t in [-1, 1].

    Returns (N, dN) of shape (len(t), order + 1); order-2 elements carry an
    interior midside node.
    """
    t = np.asarray(t, dtype=float)
    if order == 1:
        N = np.stack([(1 - t) / 2, (1 + t) / 2], axis=-1)
        dN = np.stack([np.full_like(t, -0.5), np.full_like(t, 0.5)], axis=-1)
    elif order == 2:
        N = np.stack([t * (t - 1) / 2, 1 - t**2, t * (t + 1) / 2], axis=-1)
        dN = np.stack([t - 0.5, -2 * t, t + 0.5], axis=-1)
    else:
        raise ConfigurationError("element order must be 1 or 2")
    return N, dN


class Mesh:
    """Node coordinates, element connectivity, and quadrature data."""

    def __init__(self, lower_breaks, upper_breaks, order=2):
        lower_breaks = np.asarray(lower_breaks, dtype=float)
        upper_breaks = np.asarray(upper_breaks, dtype=float)
        if lower_breaks[-1] != 0.0 or upper_breaks[0] != 0.0:
            raise ConfigurationError("breakpoints must meet at the interface x3 = 0")
        if np.any(np.diff(lower_breaks) <= 0) or np.any(np.diff(upper_breaks) <= 0):
            raise ConfigurationError("breakpoints must be strictly increasing")
        if order not in (1, 2):
            raise ConfigurationError("element order must be 1 or 2")
        self.order = order
        self.quad_points = QUAD_POINTS

        breaks = np.concatenate([lower_breaks, upper_breaks[1:]])
        n_el = len(breaks) - 1
        if order == 1:
            nodes = breaks
            conn = np.stack([np.arange(n_el), np.arange(1, n_el + 1)], axis=1)
        else:
            nodes = np.empty(2 * n_el + 1)
            nodes[0::2] = breaks
            nodes[1::2] = 0.5 * (breaks[:-1] + breaks[1:])
            base = 2 * np.arange(n_el)
            conn = np.stack([base, base + 1, base + 2], axis=1)

        self.nodes = nodes
        self.conn = conn
        self.n_elements = n_el
        self.element_breaks = breaks
        self.element_side = np.where(0.5 * (breaks[:-1] + breaks[1:]) < 0, -1, +1)
        self.interface_node = int(np.flatnonzero(nodes == 0.0)[0])

        tq, wq = QUAD_NODES, QUAD_WEIGHTS
        self.shape_q, self.dshape_q = shape_functions(order, tq)  # (nq, nd)
        h = np.diff(breaks)
        self.jacobian = h / 2.0                                   # (n_el,)
        # global quadrature coordinates/weights, shape (n_el, nq)
        mid = 0.5 * (breaks[:-1] + breaks[1:])
        self.quad_x = mid[:, None] + self.jacobian[:, None] * tq[None, :]
        self.quad_w = self.jacobian[:, None] * wq[None, :]

    @classmethod
    def uniform(cls, m, ell, n_per_side=256, order=2):
        """Uniform mesh with ``n_per_side`` elements on each side of 0."""
        if m <= 0 or ell <= 0:
            raise ConfigurationError("slab depths must be > 0")
        with storable("%d elements per side" % n_per_side):
            breaks = np.linspace(-m, 0.0, n_per_side + 1), np.linspace(0.0, ell, n_per_side + 1)
        return cls(*breaks, order=order)

    @property
    def n_nodes(self):
        return len(self.nodes)

    # -- point location and field evaluation ----------------------------

    def locate(self, x):
        """Element index containing each x; interface points go by ``side``."""
        x = np.asarray(x, dtype=float)
        if np.any(x < self.nodes[0]) or np.any(x > self.nodes[-1]):
            raise DomainError("evaluation point outside the slab")
        idx = np.searchsorted(self.element_breaks, x, side="right") - 1
        return np.clip(idx, 0, self.n_elements - 1)

    def eval_nodal(self, values, x, side=None, deriv=0):
        """Evaluate a nodal field (or its 1st/2nd derivative) at points x.

        ``side`` resolves x = 0 (and element boundaries adjacent to it):
        side=-1 evaluates in the element left of the point where possible.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_nodes,):
            raise DomainError("nodal value array has wrong length")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = self.locate(x)
        if side is not None and int(side) < 0:
            # points exactly at interior breaks evaluate in the left element;
            # the boundaries have only one adjacent element either way
            on_break = np.isin(x, self.element_breaks[1:-1])
            idx = np.where(on_break, np.maximum(idx - 1, 0), idx)
        mid = 0.5 * (self.element_breaks[idx] + self.element_breaks[idx + 1])
        t = (x - mid) / self.jacobian[idx]
        N, dN = shape_functions(self.order, t)
        el_vals = values[self.conn[idx]]
        if deriv == 0:
            out = np.sum(N * el_vals, axis=-1)
        elif deriv == 1:
            out = np.sum(dN * el_vals, axis=-1) / self.jacobian[idx]
        elif deriv == 2:
            if self.order < 2:
                out = np.zeros_like(x)
            else:
                # constant second derivative per quadratic element
                out = (el_vals[:, 0] - 2 * el_vals[:, 1] + el_vals[:, 2]) / self.jacobian[idx] ** 2
        else:
            raise DomainError("deriv must be 0, 1, or 2")
        return out
