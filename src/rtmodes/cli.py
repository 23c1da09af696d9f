"""Command-line interface: one config file drives every subcommand.

Each handler returns ``(exit_code, headline)``; :func:`main` writes every
subcommand's ``run.json`` from the config and that headline or, for a run
that fails with exit code 2 or 3 once ``output.dir`` exists, its
``exit_code`` and the error's class and message.  Either way it adds the
``factorizations``, ``solves`` and ``matvecs`` counted by
:data:`rtmodes.eigen.counters`.
Each warning raised during a run is printed as one ``warning: <message>``
line and listed under ``warnings`` in ``run.json`` (absent when none is).

No value is parsed here: a flag that mirrors a configuration key hands its
text to :func:`rtmodes.config.load_config` as an override after ``--set``,
and the other numeric flags call :func:`rtmodes.config.parse_value`.

Importing this module loads the layers up to the dispersion sweep; the
synthesize, evolve and verify handlers import ``synthesis``, ``evolution``
and ``verify`` themselves, so the other subcommands never run those modules.

Exit codes: 0 success, 2 configuration or input error (including
out-of-domain arguments and an output path that cannot be written), 3 solver
error, 4 verification failure (verify only).
"""

import argparse
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import RULES, key_help, load_config, parse_value
from .dispersion import Stable, growth_rate, lattice_modes, sweep
from .eigen import counters
from .errors import ConfigurationError, DomainError, LayoutError, RangeError, SolverError, storable
from .forms import assemble
from .profile import by_side, verify_hydrostatic

_FMT = "%.17g"
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _value_type(name, typ, rule=None, sep=None):
    """argparse type of a flag that names no key: parse_value's value held to RULES[rule] (a list
    of them, split at ``sep``); a bad one is argparse's exit 2."""
    def parse(text):
        try:
            values = [parse_value(name, typ, part) for part in (text.split(sep) if sep else [text])]
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if rule is not None and not all(RULES[rule](v) for v in values):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}")
        return values if sep else values[0]
    return parse


def _grid_texts(text):
    """argparse type: nx,ny,nz split into the texts of the three synthesis.grid keys."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three sizes nx,ny,nz, got {text!r}")
    return {f"synthesis.grid.{axis}": part for axis, part in zip(("nx", "ny", "nz"), parts)}


# _make_dir and _write_rows are the CLI's only directory and file writes; each
# turns an OSError into a ConfigurationError that names the path (exit 2).

def _make_dir(path, label):
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"{label}: {exc}") from exc


def _write_rows(path, header, rows, sep=","):
    """``header``, then one line per row of numbers, each printed with _FMT."""
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(sep.join(_FMT % v for v in row) + "\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _write_meta(config, subcommand, headline):
    meta = {"subcommand": subcommand, "version": __version__,
            "config_hash": config.config_hash()}
    meta.update({k: v for k, v in config.values.items() if v is not None})
    meta.update(headline)
    text = json.dumps({str(k): meta[k] for k in sorted(meta, key=str)}, indent=1, sort_keys=True)
    _write_rows(Path(config["output.dir"]) / "run.json", text, ())


def _cmd_profile(config, args):
    profile = config.profile()
    n = args.resolution
    geom = profile.geometry
    with storable(f"--resolution {n}"):
        xs = np.concatenate([np.linspace(-geom.m, 0.0, n // 2, endpoint=False),
                             np.linspace(0.0, geom.ell, n - n // 2)])

    def columns(x, side):
        f = profile.fields(x, side=side)
        return np.stack([f["rho"], f["pr"], f["eps"], f["delta"]], axis=-1)

    out = Path(config["output.dir"]) / (args.out or "profile.csv")
    _write_rows(out, "x3,rho0,Pprime_rho0,eps0,delta0", zip(xs, *by_side(xs, columns).T))
    print(f"wrote {out}")
    return 0, {
        "rho_plus": profile.rho_plus, "rho_jump": profile.rho_jump,
        "xi_c": profile.xi_c if math.isfinite(profile.xi_c) else "inf",
        "hydrostatic_residual": verify_hydrostatic(profile),
    }


def _cmd_forms(config, args):
    profile = config.profile()
    mesh = config.mesh()
    forms = assemble(profile, mesh, args.xi)
    if args.dump:
        for name, mat in (("E0", forms.E0), ("E1", forms.E1), ("J", forms.J)):
            path = Path(config["output.dir"]) / f"forms_{name}.txt"
            # _FMT prints an integer index with the same digits as %d
            _write_rows(path, "# row col value", zip(*mat.triplets()), sep=" ")
            print(f"wrote {path}")
    print("dofs=%d nnz(E0)=%d nnz(E1)=%d nnz(J)=%d" %
          (forms.n, forms.E0.nnz, forms.E1.nnz, forms.J.nnz))
    return 0, {"xi": args.xi, "dofs": forms.n}


def _cmd_mode(config, args):
    profile = config.profile()
    mesh = config.mesh()
    xi = config["mode.xi"]
    r = growth_rate(profile, mesh, xi)
    if isinstance(r, Stable):
        print(f"stable at |xi| = {xi}: {r.reason}")
        return 0, {"xi": xi, "stable": 1, "stable_reason": r.reason}
    out = Path(config["output.dir"]) / (args.out or "mode.csv")
    _write_rows(out, "x3,phi,psi", zip(mesh.nodes, r.phi, r.psi))
    ode_residual = r.ode_residual     # computed on each read
    print(f"lambda({xi}) = {r.lam:.12g}  psi(0) = {r.psi0:.6g}; wrote {out}")
    return 0, {
        "xi": xi, "lambda": r.lam, "s_star": r.lam, "psi0": r.psi0,
        "fixed_point_residual": r.fixed_point_residual,
        "ode_residual": ode_residual if math.isfinite(ode_residual) else None,
        "bracket_rel_max": r.bracket_rel,
    }


def _cmd_dispersion(config, args):
    profile = config.profile()
    mesh = config.mesh()
    lo, hi = config.sweep_range(profile.xi_c)
    curve = sweep(profile, mesh, lo, hi, n=config["sweep.n"])
    out = Path(config["output.dir"]) / (args.out or "curve.csv")
    _write_rows(out, "xi,lambda,s_star,psi0,residual",
                zip(curve.xi, curve.lam, curve.lam, curve.psi0, curve.residual))
    print(f"Lambda = {curve.Lambda:.12g} at |xi| = {curve.argmax_xi:.6g}; wrote {out}")
    return 0, {
        "Lambda": curve.Lambda, "argmax_xi": curve.argmax_xi,
        "fit_correction": curve.fit_correction,
        "endpoint_lambda_lo": curve.lam[0], "endpoint_lambda_hi": curve.lam[-1],
        "bracket_rel_max": curve.bracket_rel_max, "stable_count": curve.stable_count,
    }


def _cmd_lattice(config, args):
    profile = config.profile()
    mesh = config.mesh()
    L = config.get("geometry.L")
    if L is None:
        raise ConfigurationError("lattice needs --L or geometry.L")
    lat = lattice_modes(profile, mesh, L, xi_max=config.get("lattice.xi_max"))
    out = Path(config["output.dir"]) / (args.out or "lattice.csv")
    header = "k1,k2,xi,lambda" + ("\n# certificate: stable" if lat.certificate else "")
    _write_rows(out, header, lat.points)
    status = "stable (certificate)" if lat.certificate else f"Lambda_L = {lat.Lambda_L:.12g}"
    print(f"L = {L}: {status}; wrote {out}")
    return 0, {"L": L, "Lambda_L": lat.Lambda_L,
               "certificate": int(lat.certificate), "unstable_count": lat.unstable_count}


def _cmd_synthesize(config, args):
    from .synthesis import BumpProfile, NonperiodicField, PeriodicField

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
        f = BumpProfile.default(profile.xi_c, config.get("synthesis.f.a"),
                                config.get("synthesis.f.b"))
        field = NonperiodicField(profile, mesh, f, n_radial=config["synthesis.radial_nodes"])
        extent = config.get("synthesis.grid.extent", math.pi / f.a)
        headline = {"lambda0": field.lambda0, "Lambda_nodes": field.Lambda,
                    "f_a": f.a, "f_b": f.b}

    nx, ny, nz = (config[f"synthesis.grid.{axis}"] for axis in ("nx", "ny", "nz"))
    geom = profile.geometry
    with storable("a %d x %d x %d sample grid" % (nx, ny, nz)):
        grid = (np.linspace(-extent, extent, nx), np.linspace(-extent, extent, ny),
                np.linspace(-geom.m, geom.ell, nz))
    header = ["x1", "x2", "x3", "eta1", "eta2", "eta3", "v1", "v2", "v3", "q"]
    for t in times:
        field.growth_factor(t)      # an overflowing time fails before any file is written
    outdir = Path(config["output.dir"]) / (args.out or "fields")
    for t in times:
        cols = field.sample(grid, t)
        # made after a sample, so that a grid too large to sample leaves no directory
        _make_dir(outdir, f"cannot write {outdir}")
        path = outdir / ("t%g.csv" % t)
        _write_rows(path, ",".join(header), zip(*(cols[h] for h in header)))
        print(f"wrote {path}")
    return 0, headline


def _cmd_evolve(config, args):
    from .evolution import integrate, mode_initial_data

    profile = config.profile()
    mesh = config.mesh()
    xi = config.get("evolve.xi", profile.xi_ref)
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
    _write_rows(out, "t,kinetic,potential,dissipated_cum,norm1,norm2",
                zip(traj.times, traj.kinetic, traj.potential, traj.dissipated_mid,
                    np.sqrt(traj.norm1_sq), np.sqrt(traj.norm2_sq)))
    print(f"integrated mode at |xi| = {xi} for T = {T}; wrote {out}")
    return 0, {
        "xi": xi, "lambda": lam, "dt": dt, "T": T,
        "final_norm1": float(np.sqrt(traj.norm1_sq[-1])),
    }


def _cmd_verify(config, args):
    from .verify import format_table, run_battery

    results = run_battery(config, quick=args.quick)
    print(format_table(results))
    failed = sum(not r.passed for r in results)
    return (4 if failed else 0), {"checks": len(results), "failed": failed}


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

    def command(name, help):
        p = sub.add_parser(name, help=help)
        # argparse reads "-1e-3" as an option unless it takes every "-<digit>..." for a value
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a configuration key")
        if name not in ("forms", "verify"):     # the handlers that write a named file
            p.add_argument("--out", help="output file name (inside output.dir)")
        return p

    p = command("profile", "emit the hydrostatic profile as CSV")
    p.add_argument("--resolution", type=_value_type("resolution", int, ">= 1"), default=512)

    p = command("forms", "assemble the quadratic forms at one frequency")
    p.add_argument("--xi", type=_value_type("xi", float, "> 0"), required=True)
    p.add_argument("--dump", action="store_true", help="write (row, col, value) matrices")

    # a flag whose dest is a configuration key has no type: main hands its text
    # (a dict, for each of its keys) to load_config as an override after --set
    p = command("mode", "solve the growing mode at one frequency")
    p.add_argument("--xi", dest="mode.xi")

    p = command("dispersion", "sweep lambda(|xi|) and report Lambda")
    p.add_argument("--n", dest="sweep.n")

    p = command("lattice", "enumerate lattice modes or certify stability")
    p.add_argument("--L", dest="geometry.L")

    p = command("synthesize", "sample synthesized 3D growing fields")
    p.add_argument("--t", type=_value_type("t", float, sep=","),
                   help="comma-separated sample times (default 0)")
    p.add_argument("--grid", type=_grid_texts, dest="synthesis.grid", help="nx,ny,nz sample grid")
    p.add_argument("--periodic", action="store_true")

    p = command("evolve", "integrate a mode's second-order system")
    p.add_argument("--xi", dest="evolve.xi")
    p.add_argument("--T", dest="evolve.T")
    p.add_argument("--dt", dest="evolve.dt")

    p = command("verify", "run the invariant battery")
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


def _report(exc):
    """Print an input or solver error to stderr; its exit code (2 or 3)."""
    if isinstance(exc, SolverError):
        print(f"solver error: {exc} {exc.diagnostics}", file=sys.stderr)
        return 3
    print(f"configuration error: {exc}", file=sys.stderr)
    return 2


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = None       # set once output.dir exists; from then on every run writes run.json
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            flags = [f"{k}={v}" for key, value in vars(args).items()
                     if "." in key and value is not None
                     for k, v in (value.items() if isinstance(value, dict) else [(key, value)])]
            loaded = load_config(args.config, args.set + flags)
            _make_dir(loaded["output.dir"], "output.dir")
            config = loaded
            counters.clear()
            code, headline = _HANDLERS[args.command](config, args)
        except (ConfigurationError, DomainError, RangeError, LayoutError, SolverError) as exc:
            code = _report(exc)
            headline = {"exit_code": code, "error": type(exc).__name__, "message": str(exc)}
    warned = [str(w.message) for w in caught]
    for message in warned:
        print(f"warning: {message}", file=sys.stderr)
    if config is None:
        return code
    for key in ("factorizations", "solves", "matvecs"):     # what the run did, failed or not
        headline[key] = counters[key]
    if warned:
        headline["warnings"] = warned
    try:
        _write_meta(config, args.command, headline)
    except ConfigurationError as exc:
        if "exit_code" not in headline:     # a failed run keeps its own message and code
            return _report(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
