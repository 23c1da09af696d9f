"""Strong-form and interface-jump diagnostics for computed eigenpairs.

The variational solver works in the weak form; these routines measure how
well a discrete pair (phi, psi) satisfies the per-frequency ODE system and
its natural jump conditions, which the weak form only enforces in the limit.
Residuals are sampled at element midpoints, where second derivatives of
quadratic elements carry their best accuracy; order-1 meshes have no
meaningful pointwise second derivative, so order >= 2 is required.
Midpoints and Gauss points never lie on an element break, so one
``profile.fields`` call and side-free nodal evaluations cover both fluids;
only the interface conditions evaluate each side separately, at x3 = 0.
"""

import numpy as np

from .errors import DomainError

_FLOOR = 1e-300


def coefficient_fields(f, s):
    """Modified-viscosity coefficient bundle from a ``SteadyProfile.fields`` dict."""
    return (f["rho"], f["pr"], f["pr_prime"], s * f["eps"], s * f["eps_prime"],
            s * f["delta"], s * f["delta_prime"])


def _ode_terms(fields, g, mesh, phi, psi, xi, s, mu, x):
    """Both ODEs at points x, split off from their second-derivative parts.

    phi: -(eps phi')' + xi^2 B phi + xi (M psi' + (eps' - g rho) psi) - mu rho phi = 0
    psi: -(B psi')' + eps xi^2 psi - xi (M' phi + M phi' + (g rho - eps') phi) - mu rho psi = 0
    with B = 4 eps/3 + delta + P' rho, M = delta + eps/3 + P' rho and the
    viscosities scaled by s.  Returns (eps, eps', B, B'), the nodal fields'
    (phi, phi', psi, psi') at x, and the three remaining terms of each
    equation.
    """
    rho, pr, pr_p, eps, eps_p, dlt, dlt_p = coefficient_fields(fields, s)
    f = mesh.eval_nodal(phi, x)
    fp = mesh.eval_nodal(phi, x, deriv=1)
    p = mesh.eval_nodal(psi, x)
    pp = mesh.eval_nodal(psi, x, deriv=1)

    big = 4 * eps / 3 + dlt + pr
    big_p = 4 * eps_p / 3 + dlt_p + pr_p
    mid = dlt + eps / 3 + pr
    mid_p = dlt_p + eps_p / 3 + pr_p
    t_phi = (xi**2 * big * f, xi * (mid * pp + (eps_p - g * rho) * p), -mu * rho * f)
    t_psi = (eps * xi**2 * p, -xi * (mid_p * f + mid * fp + (g * rho - eps_p) * f), -mu * rho * p)
    return (eps, eps_p, big, big_p), (f, fp, p, pp), t_phi, t_psi


def ode_second_derivatives(fields, g, mesh, phi, psi, xi, s, mu, x):
    """(phi, phi', phi'') and (psi, psi', psi'') at points x.

    ``fields`` is ``profile.fields(x)`` and ``g`` the gravity; the points x
    must avoid the element breaks.  The values and first derivatives are the
    nodal fields' own; the second derivatives come from the strong-form ODEs
    with the analytic coefficient derivatives.  This is the bootstrap route,
    independent of the elementwise second derivative of the interpolant.
    """
    if s <= 0:
        raise DomainError("derivative bootstrap needs a positive family parameter")
    (eps, eps_p, big, big_p), (f, fp, p, pp), (a1, a2, a3), (b1, b2, b3) = _ode_terms(
        fields, g, mesh, phi, psi, xi, s, mu, x)
    return ((f, fp, (a3 + a1 + a2 - eps_p * fp) / eps),
            (p, pp, (b3 + b1 + b2 - big_p * pp) / big))


def strong_form_residual(profile, mesh, phi, psi, xi, s, mu):
    """Relative strong-form defect of the coupled ODE pair.

    Samples every element midpoint in one pass; the defect is the RMS of
    both equations' imbalance over the RMS size of their individual terms.
    """
    if mesh.order < 2:
        raise DomainError("strong-form residual needs order >= 2 elements")
    if s <= 0:
        raise DomainError("strong-form residual needs a positive family parameter")
    xs = 0.5 * (mesh.element_breaks[:-1] + mesh.element_breaks[1:])
    (eps, eps_p, big, big_p), (_, fp, _, pp), t_phi, t_psi = _ode_terms(
        profile.fields(xs), profile.geometry.g, mesh, phi, psi, xi, s, mu, xs)
    t_phi = [-(eps_p * fp + eps * mesh.eval_nodal(phi, xs, deriv=2)), *t_phi]
    t_psi = [-(big_p * pp + big * mesh.eval_nodal(psi, xs, deriv=2)), *t_psi]
    num = np.mean(sum(t_phi) ** 2 + sum(t_psi) ** 2)
    den = np.mean(sum(np.abs(t) for t in t_phi) ** 2 + sum(np.abs(t) for t in t_psi) ** 2)
    return np.sqrt(num) / max(np.sqrt(den), _FLOOR)


def jump_residuals(profile, mesh, phi, psi, xi, s):
    """Normalized defects of the four interface conditions at x3 = 0.

    Order: [[phi]], [[psi]], [[eps (phi' - xi psi)]], and the normal-stress
    balance against the surface-tension term.  The first two vanish
    structurally (shared interface node).
    """
    sigma = profile.geometry.sigma
    vals = {}
    for side in (-1, +1):
        rho, pr, pr_p, eps, eps_p, dlt, dlt_p = coefficient_fields(
            profile.fields(np.array([0.0]), side), s
        )
        vals[side] = dict(
            pr=pr[0], eps=eps[0], dlt=dlt[0],
            f=mesh.eval_nodal(phi, [0.0], side=side)[0],
            fp=mesh.eval_nodal(phi, [0.0], side=side, deriv=1)[0],
            p=mesh.eval_nodal(psi, [0.0], side=side)[0],
            pp=mesh.eval_nodal(psi, [0.0], side=side, deriv=1)[0],
        )
    lo, hi = vals[-1], vals[+1]

    def rel(jump_terms):
        total = sum(jump_terms)
        scale = sum(abs(t) for t in jump_terms)
        return abs(total) / max(scale, _FLOOR)

    j1 = rel([hi["f"], -lo["f"]])
    j2 = rel([hi["p"], -lo["p"]])
    j3 = rel([hi["eps"] * (hi["fp"] - xi * hi["p"]), -lo["eps"] * (lo["fp"] - xi * lo["p"])])
    stress = lambda v: (v["dlt"] + v["eps"] / 3 + v["pr"]) * (v["pp"] + xi * v["f"]) + v["eps"] * (
        v["pp"] - xi * v["f"]
    )
    j4 = rel([stress(hi), -stress(lo), -sigma * xi**2 * hi["p"]])
    return np.array([j1, j2, j3, j4])
