"""Invariant battery behind the `verify` subcommand.

Each check measures a quantity the theory pins down (a bound, an identity,
a residual) at the configured resolution and compares it against its
threshold.  The battery is deliberately a superset of smoke checks and a
subset of the full acceptance suite: it must finish in about a minute on
the default configuration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import Stable, growth_rate, lattice_modes, sweep
from .eigen import c2_diagnostic, smallest_eig
from .evolution import (
    energy_identity_check,
    growth_bound_check,
    integrate,
    mode_initial_data,
    pencil_consistency,
)
from .forms import assemble
from .profile import verify_hydrostatic
from .synthesis import BumpProfile, NonperiodicField


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float
    comparator: str      # "<=" or ">="
    passed: bool

    def row(self):
        return "%-44s %12.4e %2s %-10.3e %s" % (
            self.name, self.value, self.comparator, self.threshold,
            "pass" if self.passed else "FAIL",
        )


def _check(name, value, threshold, comparator="<="):
    ok = value <= threshold if comparator == "<=" else value >= threshold
    return CheckResult(name, float(value), float(threshold), comparator, ok)


def run_battery(config, quick=False):
    """Run the invariant battery; returns a list of CheckResult."""
    out = []
    profile = config.profile()
    mesh = config.mesh()
    geom = profile.geometry
    xi_c = profile.xi_c

    out.append(_check("hydrostatic residual (h_fd=1e-4)", verify_hydrostatic(profile), 1e-6))

    # variational lower bound and monotonicity at a reference frequency
    xi_ref = min(1.0, 0.5 * xi_c) if math.isfinite(xi_c) else 1.0
    forms = assemble(profile, mesh, xi_ref)
    mus = []
    for s in (0.01, 0.1, 1.0, 10.0):
        r = smallest_eig(forms, s)
        mus.append(r.mu)
        out.append(_check(
            "mu(s=%g) + g|xi| at |xi|=%g" % (s, xi_ref),
            r.mu + geom.g * xi_ref, -1e-9, ">=",
        ))
    out.append(_check("mu monotone increase over s grid",
                      min(np.diff(mus)), 0.0, ">="))
    c2 = c2_diagnostic(forms)
    out.append(_check("viscous form coercivity C2", c2, 0.0, ">="))

    # fixed point and rate bounds
    mags = [0.3 * xi_c, 0.5 * xi_c, 0.8 * xi_c] if math.isfinite(xi_c) else [0.5, 2.0, 8.0]
    lam_by_mag = {}
    for m in mags:
        r = growth_rate(profile, mesh, m)
        if isinstance(r, Stable):
            out.append(_check("growth rate found at |xi|=%.4g" % m, 0.0, 1.0, ">="))
            continue
        lam_by_mag[m] = r
        out.append(_check("fixed-point residual at |xi|=%.4g" % m,
                          r.fixed_point_residual, 1e-9))
        out.append(_check("lambda^2 <= g|xi| at |xi|=%.4g" % m,
                          r.lam**2 - geom.g * m, 1e-8))
        if geom.sigma > 0:
            chained = geom.g * (geom.g * profile.rho_jump - geom.sigma * m**2) / (geom.sigma * m)
            out.append(_check("sigma-chained rate bound at |xi|=%.4g" % m,
                              r.lam**2 - chained, 1e-6))
        out.append(_check("|psi(0)| at |xi|=%.4g" % m, abs(r.psi0), 1e-6, ">="))
        out.append(_check("pencil consistency at |xi|=%.4g" % m,
                          pencil_consistency(r.forms, r), 1e-8))

    if geom.sigma > 0:
        r = growth_rate(profile, mesh, 1.5 * xi_c)
        out.append(_check("stability beyond xi_c", 1.0 if isinstance(r, Stable) else 0.0, 1.0, ">="))

    # evolution checks on the best available mode
    if lam_by_mag:
        best = max(lam_by_mag.values(), key=lambda r: r.lam)
        lam = best.lam
        u0, v0 = mode_initial_data(best)
        best_forms = best.forms
        traj = integrate(best_forms, u0, v0, 1e-3 / lam, 3.0 / lam)
        growth = 0.5 * math.log(traj.norm1_sq[-1] / traj.norm1_sq[0])
        out.append(_check("mode e^{lambda t} growth log-error",
                          abs(growth - lam * traj.times[-1]) / (lam * traj.times[-1]), 0.01))
        out.append(_check("energy identity defect (midpoint ledger)",
                          energy_identity_check(traj, "midpoint"), 1e-6))
        ok, ev = growth_bound_check(best_forms, lam)
        out.append(_check("pencil PSD at Lambda=lambda", abs(ev), 1e-7))

    if not quick and math.isfinite(xi_c):
        lo, hi = config.sweep_range(xi_c)
        curve = sweep(profile, mesh, lo, hi, n=min(config["sweep.n"], 24))
        out.append(_check("sweep endpoint rate / Lambda (low)",
                          curve.lam[0] / curve.Lambda, 1 / 3))
        out.append(_check("sweep endpoint rate / Lambda (high)",
                          curve.lam[-1] / curve.Lambda, 1 / 3))
        lat = lattice_modes(profile, mesh, profile.L_c)
        out.append(_check("small-L certificate empty", lat.unstable_count, 0))
        lat1 = lattice_modes(profile, mesh, 1.0)
        out.append(_check("Lambda_L <= Lambda + 1e-3",
                          lat1.Lambda_L - curve.Lambda, 1e-3))
        f = BumpProfile.default(xi_c)
        field = NonperiodicField(profile, mesh, f, n_radial=8, curve=curve)
        n0 = field.sobolev_norm("v", k=1, t=0.0)
        n1 = field.sobolev_norm("v", k=1, t=1.0)
        ratio = n1 / n0
        out.append(_check("growth sandwich lower at t=1",
                          ratio / math.exp(field.lambda0), 1.0, ">="))
        out.append(_check("growth sandwich upper at t=1",
                          ratio / math.exp(field.Lambda), 1.0))
    return out


def format_table(results):
    width = 79
    lines = ["%-44s %12s %2s %-10s %s" % ("check", "value", "", "threshold", "status"),
             "-" * width]
    lines += [r.row() for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append("-" * width)
    lines.append("%d checks, %d failed" % (len(results), n_fail))
    return "\n".join(lines)
