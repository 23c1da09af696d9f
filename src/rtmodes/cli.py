"""Command-line interface: one config file drives every subcommand.

Exit codes: 0 success, 2 configuration or input error (including
out-of-domain arguments), 3 solver error, 4 verification failure (verify only).
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import key_help, load_config
from .dispersion import Stable, growth_rate, lattice_modes, sweep
from .errors import ConfigurationError, DomainError, LayoutError, RangeError, SolverError
from .evolution import integrate, mode_initial_data
from .forms import assemble
from .profile import by_side, verify_hydrostatic
from .synthesis import BumpProfile, NonperiodicField, PeriodicField
from .verify import format_table, run_battery

_FMT = "%.17g"


def _finite_float(text):
    """argparse type: a finite float (nan and inf exit 2 like any bad value)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text):
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _finite_floats(text):
    """argparse type: comma-separated finite floats."""
    return [_finite_float(v) for v in text.split(",")]


def _grid_sizes(text):
    """argparse type: nx,ny,nz as the three synthesis.grid keys (the config checks each >= 1)."""
    try:
        nx, ny, nz = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three integers nx,ny,nz, got {text!r}") from None
    return {"synthesis.grid.nx": nx, "synthesis.grid.ny": ny, "synthesis.grid.nz": nz}


def _write_csv(path, header, columns):
    rows = zip(*columns)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_FMT % v for v in row) + "\n")


def _write_meta(outdir, config, subcommand, headline):
    meta = {"subcommand": subcommand, "version": __version__,
            "config_hash": config.config_hash()}
    meta.update({k: v for k, v in config.values.items() if v is not None})
    meta.update(headline)
    with open(Path(outdir) / "run.json", "w") as fh:
        json.dump({str(k): meta[k] for k in sorted(meta, key=str)}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _cmd_profile(config, args):
    profile = config.profile()
    n = args.resolution
    geom = profile.geometry
    xs = np.concatenate([
        np.linspace(-geom.m, 0.0, n // 2, endpoint=False),
        np.linspace(0.0, geom.ell, n - n // 2),
    ])

    def columns(x, side):
        f = profile.fields(x, side=side)
        return np.stack([f["rho"], f["pr"], f["eps"], f["delta"]], axis=-1)

    out = Path(config["output.dir"]) / (args.out or "profile.csv")
    _write_csv(out, ["x3", "rho0", "Pprime_rho0", "eps0", "delta0"],
               [xs, *by_side(xs, columns).T])
    _write_meta(config["output.dir"], config, "profile", {
        "rho_plus": profile.rho_plus, "rho_jump": profile.rho_jump,
        "xi_c": profile.xi_c if math.isfinite(profile.xi_c) else "inf",
        "hydrostatic_residual": verify_hydrostatic(profile),
    })
    print(f"wrote {out}")
    return 0


def _cmd_forms(config, args):
    profile = config.profile()
    mesh = config.mesh()
    forms = assemble(profile, mesh, args.xi)
    if args.dump:
        outdir = Path(config["output.dir"])
        for name, mat in (("E0", forms.E0), ("E1", forms.E1), ("J", forms.J)):
            coo = mat.tocoo()
            path = outdir / f"forms_{name}.txt"
            with open(path, "w") as fh:
                fh.write("# row col value\n")
                for r, c, v in zip(coo.row, coo.col, coo.data):
                    fh.write("%d %d %s\n" % (r, c, _FMT % v))
            print(f"wrote {path}")
    print("dofs=%d nnz(E0)=%d nnz(E1)=%d nnz(J)=%d" %
          (forms.n, forms.E0.nnz, forms.E1.nnz, forms.J.nnz))
    return 0


def _cmd_mode(config, args):
    profile = config.profile()
    mesh = config.mesh()
    xi = config["mode.xi"]
    r = growth_rate(profile, mesh, xi)
    if isinstance(r, Stable):
        print(f"stable at |xi| = {xi}: {r.reason}")
        _write_meta(config["output.dir"], config, "mode", {
            "xi": xi, "stable": 1, "stable_reason": r.reason,
            "factorizations": r.factorizations})
        return 0
    out = Path(config["output.dir"]) / (args.out or "mode.csv")
    _write_csv(out, ["x3", "phi", "psi"], [mesh.nodes, r.phi, r.psi])
    ode_residual = r.ode_residual     # computed on each read
    _write_meta(config["output.dir"], config, "mode", {
        "xi": xi, "lambda": r.lam, "s_star": r.lam, "psi0": r.psi0,
        "fixed_point_residual": r.fixed_point_residual,
        "ode_residual": ode_residual if math.isfinite(ode_residual) else None,
        "factorizations": r.factorizations,
        "bracket_rel_max": 1.0 - r.bracket[0] / r.bracket[1],
    })
    print(f"lambda({xi}) = {r.lam:.12g}  psi(0) = {r.psi0:.6g}; wrote {out}")
    return 0


def _cmd_dispersion(config, args):
    profile = config.profile()
    mesh = config.mesh()
    lo, hi = config.sweep_range(profile.xi_c)
    curve = sweep(profile, mesh, lo, hi, n=config["sweep.n"])
    out = Path(config["output.dir"]) / (args.out or "curve.csv")
    _write_csv(out, ["xi", "lambda", "s_star", "psi0", "residual"],
               [curve.xi, curve.lam, curve.lam, curve.psi0, curve.residual])
    _write_meta(config["output.dir"], config, "dispersion", {
        "Lambda": curve.Lambda, "argmax_xi": curve.argmax_xi,
        "fit_correction": curve.fit_correction,
        "endpoint_lambda_lo": curve.lam[0], "endpoint_lambda_hi": curve.lam[-1],
        "factorizations": curve.factorizations, "bracket_rel_max": curve.bracket_rel_max,
        "stable_count": curve.stable_count,
    })
    print(f"Lambda = {curve.Lambda:.12g} at |xi| = {curve.argmax_xi:.6g}; wrote {out}")
    return 0


def _cmd_lattice(config, args):
    profile = config.profile()
    mesh = config.mesh()
    L = config.get("geometry.L")
    if L is None:
        raise ConfigurationError("lattice needs --L or geometry.L")
    lat = lattice_modes(profile, mesh, L, xi_max=config.get("lattice.xi_max"))
    out = Path(config["output.dir"]) / (args.out or "lattice.csv")
    with open(out, "w") as fh:
        fh.write("k1,k2,xi,lambda\n")
        if lat.certificate:
            fh.write("# certificate: stable\n")
        for k1, k2, xi, lam in lat.points:
            fh.write(",".join(_FMT % v for v in (k1, k2, xi, lam)) + "\n")
    _write_meta(config["output.dir"], config, "lattice", {
        "L": L, "Lambda_L": lat.Lambda_L,
        "certificate": int(lat.certificate), "unstable_count": lat.unstable_count,
    })
    status = "stable (certificate)" if lat.certificate else f"Lambda_L = {lat.Lambda_L:.12g}"
    print(f"L = {L}: {status}; wrote {out}")
    return 0


def _cmd_synthesize(config, args):
    profile = config.profile()
    mesh = config.mesh()
    times = args.t or [0.0]

    if args.periodic:
        L = config.get("geometry.L")
        if L is None:
            raise ConfigurationError("periodic synthesis needs geometry.L")
        field = PeriodicField(profile, mesh, L, lattice_modes(
            profile, mesh, L, xi_max=config.get("lattice.xi_max")))
        extent = config.get("synthesis.grid.extent", 2 * math.pi * L)
        headline = {"Lambda_L": field.Lambda_L,
                    "xi1_k1": field.xi1[0] * L, "xi1_k2": field.xi1[1] * L}
    else:
        a, b = config.get("synthesis.f.a"), config.get("synthesis.f.b")
        if a is None or b is None:
            edges = BumpProfile.default(profile.xi_c)   # each missing edge takes its own default
            a, b = config.get("synthesis.f.a", edges.a), config.get("synthesis.f.b", edges.b)
        f = BumpProfile(a, b, amp=config["synthesis.f.amp"])
        field = NonperiodicField(profile, mesh, f, n_radial=config["synthesis.radial_nodes"])
        extent = config.get("synthesis.grid.extent", math.pi / f.a)
        headline = {"lambda0": field.lambda0, "Lambda_nodes": field.Lambda,
                    "f_a": f.a, "f_b": f.b}

    nx, ny, nz = (config[f"synthesis.grid.{axis}"] for axis in ("nx", "ny", "nz"))
    geom = profile.geometry
    grid = (np.linspace(-extent, extent, nx), np.linspace(-extent, extent, ny),
            np.linspace(-geom.m, geom.ell, nz))
    header = ["x1", "x2", "x3", "eta1", "eta2", "eta3", "v1", "v2", "v3", "q"]
    for t in times:
        field.growth_factor(t)      # an overflowing time fails before any file is written
    outdir = Path(config["output.dir"]) / (args.out or "fields")
    outdir.mkdir(parents=True, exist_ok=True)
    for t in times:
        cols = field.sample(grid, t)
        path = outdir / ("t%g.csv" % t)
        _write_csv(path, header, [cols[h] for h in header])
        print(f"wrote {path}")
    _write_meta(config["output.dir"], config, "synthesize", headline)
    return 0


def _cmd_evolve(config, args):
    profile = config.profile()
    mesh = config.mesh()
    xi = config.get("evolve.xi")
    if xi is None:
        xi = min(1.0, 0.5 * profile.xi_c) if math.isfinite(profile.xi_c) else 1.0
    r = growth_rate(profile, mesh, xi)
    if isinstance(r, Stable):
        raise ConfigurationError(
            "evolve needs an unstable frequency; |xi| = %g is stable (%s)" % (xi, r.reason)
        )
    lam = r.lam
    dt = config.get("evolve.dt", min(1e-2, 1e-2 / lam))
    T = config.get("evolve.T", 5.0 / lam)
    u0, v0 = mode_initial_data(r)
    traj = integrate(r.forms, u0, v0, dt, T)
    out = Path(config["output.dir"]) / (args.out or "traj.csv")
    _write_csv(out, ["t", "kinetic", "potential", "dissipated_cum", "norm1", "norm2"],
               [traj.times, traj.kinetic, traj.potential, traj.dissipated_mid,
                np.sqrt(traj.norm1_sq), np.sqrt(traj.norm2_sq)])
    _write_meta(config["output.dir"], config, "evolve", {
        "xi": xi, "lambda": lam, "dt": dt, "T": T,
        "final_norm1": float(np.sqrt(traj.norm1_sq[-1])), "step_factor": traj.step_factor,
    })
    print(f"integrated mode at |xi| = {xi} for T = {T}; wrote {out}")
    return 0


def _cmd_verify(config, args):
    results = run_battery(config, quick=args.quick)
    print(format_table(results))
    _write_meta(config["output.dir"], config, "verify", {
        "checks": len(results), "failed": sum(not r.passed for r in results),
    })
    return 0 if all(r.passed for r in results) else 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rtmodes",
        description="Linear Rayleigh-Taylor growth rates for a viscous "
                    "compressible two-fluid slab: hydrostatic profiles, "
                    "dispersion sweeps, lattice analysis, growing-mode "
                    "synthesis, per-mode evolution, and a verification battery.",
        epilog="configuration keys:\n" + key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a configuration key")
        p.add_argument("--out", help="output file name (inside output.dir)")

    p = sub.add_parser("profile", help="emit the hydrostatic profile as CSV")
    common(p)
    p.add_argument("--resolution", type=_positive_int, default=512)

    p = sub.add_parser("forms", help="assemble the quadratic forms at one frequency")
    common(p)
    p.add_argument("--xi", type=_finite_float, required=True)
    p.add_argument("--dump", action="store_true", help="write (row, col, value) matrices")

    # a flag whose dest is a configuration key overrides that key after --set;
    # a dict value overrides each of its keys
    p = sub.add_parser("mode", help="solve the growing mode at one frequency")
    common(p)
    p.add_argument("--xi", type=_finite_float, dest="mode.xi")

    p = sub.add_parser("dispersion", help="sweep lambda(|xi|) and report Lambda")
    common(p)
    p.add_argument("--n", type=_positive_int, dest="sweep.n")

    p = sub.add_parser("lattice", help="enumerate lattice modes or certify stability")
    common(p)
    p.add_argument("--L", type=_finite_float, dest="geometry.L")

    p = sub.add_parser("synthesize", help="sample synthesized 3D growing fields")
    common(p)
    p.add_argument("--t", type=_finite_floats, help="comma-separated sample times (default 0)")
    p.add_argument("--grid", type=_grid_sizes, dest="synthesis.grid", help="nx,ny,nz sample grid")
    p.add_argument("--periodic", action="store_true")

    p = sub.add_parser("evolve", help="integrate a mode's second-order system")
    common(p)
    p.add_argument("--xi", type=_finite_float, dest="evolve.xi")
    p.add_argument("--T", type=_finite_float, dest="evolve.T")
    p.add_argument("--dt", type=_finite_float, dest="evolve.dt")

    p = sub.add_parser("verify", help="run the invariant battery")
    common(p)
    p.add_argument("--quick", action="store_true", help="skip sweep-scale checks")
    return parser


_HANDLERS = {
    "profile": _cmd_profile,
    "forms": _cmd_forms,
    "mode": _cmd_mode,
    "dispersion": _cmd_dispersion,
    "lattice": _cmd_lattice,
    "synthesize": _cmd_synthesize,
    "evolve": _cmd_evolve,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        flags = [f"{k}={v!r}" for key, value in vars(args).items()
                 if "." in key and value is not None
                 for k, v in (value.items() if isinstance(value, dict) else [(key, value)])]
        config = load_config(args.config, args.set + flags)
        Path(config["output.dir"]).mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](config, args)
    except (ConfigurationError, DomainError, RangeError, LayoutError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc} {exc.diagnostics}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
