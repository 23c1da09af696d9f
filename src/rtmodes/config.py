"""Flat `section.key = value` run configuration.

One file drives every subcommand.  Unknown keys are errors (no silent
typos); values are typed per the registry :data:`KEYS`, which states each
key's rule once: validation checks it and ``--help`` prints it.  File lines
(`#` starts a comment) and ``key=value`` overrides share one loop, and
:func:`parse_value` parses every value from outside the program, the CLI's
flags included.  :meth:`RunConfig.config_hash` is a 16-hex-digit id of the
values, from ``zlib``'s CRC-32 and Adler-32 (``zlib`` is loaded with the
interpreter; ``hashlib`` would map OpenSSL's libcrypto into every run).
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .eos import PressureLaw
from .errors import ConfigurationError, DomainError
from .mesh import Mesh
from .profile import FluidViscosity, SlabGeometry, ViscosityLaw, build_profile

# key -> (type, default, rule, help); a default of None means "derived or
# required", and a rule is what _validate checks and key_help prints
RULES = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
         ">= 2": lambda v: v >= 2, "1 or 2": lambda v: v in (1, 2)}
KEYS = {
    "geometry.m": (float, 1.0, "> 0", "lower slab depth m"),
    "geometry.ell": (float, 1.0, "> 0", "upper slab depth ell"),
    "geometry.g": (float, 1.0, "> 0", "gravitational acceleration"),
    "geometry.sigma": (float, 0.1, ">= 0", "surface tension coefficient"),
    "geometry.L": (float, None, "> 0", "horizontal period scale (period 2*pi*L) of lattices and "
                                      "periodic synthesis; optional (lattice --L)"),
    "fluid.lower.law": (str, "polytropic", None, "pressure law kind: polytropic | tabulated"),
    "fluid.lower.K": (float, 2.0, None, "polytropic pressure scale K > 0"),
    "fluid.lower.gamma": (float, 1.0, None, "polytropic adiabatic exponent >= 1"),
    "fluid.lower.table": (str, None, None, "CSV path (header rho,P) for tabulated law"),
    "fluid.lower.rho0": (float, 1.0, "> 0", "lower-fluid density at the interface"),
    "fluid.upper.law": (str, "polytropic", None, "pressure law kind: polytropic | tabulated"),
    "fluid.upper.K": (float, 1.0, None, "polytropic pressure scale K > 0"),
    "fluid.upper.gamma": (float, 1.0, None, "polytropic adiabatic exponent >= 1"),
    "fluid.upper.table": (str, None, None, "CSV path (header rho,P) for tabulated law"),
    "viscosity.lower.eps": (float, 0.1, "> 0", "shear viscosity eps = c rho^p: coefficient c"),
    "viscosity.lower.eps_power": (float, 0.0, None,
                                  "shear viscosity exponent p (0: constant eps = c)"),
    "viscosity.lower.delta": (float, 0.0, ">= 0", "bulk viscosity delta = c rho^p: coefficient c"),
    "viscosity.lower.delta_power": (float, 0.0, None,
                                    "bulk viscosity exponent p (0: constant delta = c)"),
    "viscosity.upper.eps": (float, 0.1, "> 0", "shear viscosity eps = c rho^p: coefficient c"),
    "viscosity.upper.eps_power": (float, 0.0, None,
                                  "shear viscosity exponent p (0: constant eps = c)"),
    "viscosity.upper.delta": (float, 0.0, ">= 0", "bulk viscosity delta = c rho^p: coefficient c"),
    "viscosity.upper.delta_power": (float, 0.0, None,
                                    "bulk viscosity exponent p (0: constant delta = c)"),
    "mesh.elements_per_side": (int, 256, ">= 2", "uniform elements on each side of the interface"),
    "mesh.order": (int, 2, "1 or 2", "element order"),
    "sweep.n": (int, 48, ">= 1", "log-spaced frequency samples in a dispersion sweep "
                                 "(dispersion --n)"),
    "sweep.xi_min": (float, None, None, "lowest frequency "
                                        "(default 0.02 xi_c; 0.02 when sigma = 0)"),
    "sweep.xi_max": (float, None, None, "highest frequency "
                                        "(default 0.98 xi_c; 50 when sigma = 0)"),
    "lattice.xi_max": (float, None, "> 0", "frequency cap: lattices keep |xi| < min(xi_c, xi_max); "
                                           "required by sigma = 0"),
    "mode.xi": (float, 1.0, "> 0", "frequency magnitude for single-mode solves (mode --xi)"),
    "synthesis.f.a": (float, None, None, "bump support lower edge (default 0.3 xi_c; "
                                         "required when sigma = 0)"),
    "synthesis.f.b": (float, None, None, "bump support upper edge (default 0.7 xi_c; "
                                         "required when sigma = 0)"),
    "synthesis.radial_nodes": (int, 16, ">= 1", "Gauss-Legendre radial quadrature nodes "
                                               "(the angular integral is exact: Bessel J0, J1)"),
    "synthesis.grid.nx": (int, 8, ">= 1", "sample grid points along x1"),
    "synthesis.grid.ny": (int, 8, ">= 1", "sample grid points along x2"),
    "synthesis.grid.nz": (int, 9, ">= 1", "sample grid points along x3"),
    "synthesis.grid.extent": (float, None, "> 0", "horizontal half-width "
                                                 "(default pi / f.a; periodic: 2 pi L)"),
    "evolve.xi": (float, None, "> 0", "frequency for evolution runs "
                                      "(evolve --xi; default min(1, xi_c / 2))"),
    "evolve.T": (float, None, "> 0", "time horizon (evolve --T; default 5 / lambda)"),
    "evolve.dt": (float, None, "> 0", "time step, below 2 / lambda "
                                      "(evolve --dt; default min(1e-2, 1e-2 / lambda))"),
    "output.dir": (str, ".", None, "artifact output directory"),
}


@dataclass
class RunConfig:
    """Validated flat configuration with typed access and object builders."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        v = self.values.get(key)
        return default if v is None else v

    def config_hash(self):
        text = "\n".join(f"{k}={self.values[k]!r}" for k in sorted(self.values)).encode()
        return "%08x%08x" % (zlib.crc32(text), zlib.adler32(text))

    # -- builders -------------------------------------------------------

    def geometry(self):
        return SlabGeometry(m=self["geometry.m"], ell=self["geometry.ell"],
                            g=self["geometry.g"], sigma=self["geometry.sigma"])

    def _law(self, side):
        kind = self[f"fluid.{side}.law"]
        if kind == "polytropic":
            try:
                return PressureLaw.polytropic(self[f"fluid.{side}.K"], self[f"fluid.{side}.gamma"])
            except DomainError as exc:
                raise ConfigurationError(f"fluid.{side}: {exc}") from exc
        if kind == "tabulated":
            path = self.values.get(f"fluid.{side}.table")
            if not path:
                raise ConfigurationError(f"fluid.{side}.table is required for tabulated laws")
            try:        # an empty file is an IndexError; the law's DomainError is a ValueError
                data = np.genfromtxt(path, delimiter=",", names=True)
                return PressureLaw.tabulated(data["rho"], data["P"])
            except (OSError, ValueError, IndexError) as exc:
                raise ConfigurationError(f"fluid.{side}.table {path!r}: {exc}") from exc
        raise ConfigurationError(f"fluid.{side}.law must be polytropic or tabulated, got {kind!r}")

    def _viscosity(self, side):
        mk = lambda which: ViscosityLaw(
            self[f"viscosity.{side}.{which}"], p=self[f"viscosity.{side}.{which}_power"])
        return FluidViscosity(eps=mk("eps"), delta=mk("delta"))

    def profile(self):
        return build_profile(
            self._law("lower"), self._law("upper"), self["fluid.lower.rho0"],
            self.geometry(), (self._viscosity("lower"), self._viscosity("upper")),
        )

    def mesh(self):
        return Mesh.uniform(self["geometry.m"], self["geometry.ell"],
                            n_per_side=self["mesh.elements_per_side"], order=self["mesh.order"])

    def sweep_range(self, xi_c):
        lo = self.values.get("sweep.xi_min")
        hi = self.values.get("sweep.xi_max")
        if lo is None:
            lo = 0.02 * xi_c if math.isfinite(xi_c) else 0.02
        if hi is None:
            hi = 0.98 * xi_c if math.isfinite(xi_c) else 50.0
        return float(lo), float(hi)


def parse_value(name, typ, raw):
    """``raw`` stripped and parsed as ``typ``; a float must be finite.  Errors name ``name``."""
    raw = raw.strip()
    try:
        v = typ(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name}: cannot parse {raw!r} as {typ.__name__}") from exc
    if typ is float and not math.isfinite(v):
        raise ConfigurationError(f"{name}: {raw!r} is not a finite number")
    return v


def _validate(values):
    for key, (_, _, rule, _) in KEYS.items():
        if rule is not None and values[key] is not None and not RULES[rule](values[key]):
            raise ConfigurationError(f"{key} must be {rule}")


def load_config(path=None, overrides=()):
    """Parse, override, and validate a run configuration.

    ``overrides`` are `key=value` strings applied after the file's lines, by
    the same loop; the rules are checked once, on the final values.
    """
    values = {k: d for k, (_, d, _, _) in KEYS.items()}
    items = []
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read the config file: {exc}") from exc
        lines = enumerate((line.split("#", 1)[0].strip() for line in text.splitlines()), 1)
        items = [(f"line {n}: ", line) for n, line in lines if line]
    for where, item in items + [("override: ", item) for item in overrides]:
        key, eq, raw = item.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigurationError(f"{where}expected key = value, got {item!r}")
        if key not in KEYS:
            raise ConfigurationError(f"{where}unknown key {key!r}")
        values[key] = parse_value(key, KEYS[key][0], raw)
    _validate(values)
    return RunConfig(values=values)


def key_help():
    """One line per configuration key, for --help output."""
    lines = []
    for key, (typ, default, rule, doc) in KEYS.items():
        r = "" if rule is None else f"; must be {rule}"
        d = "" if default is None else f" (default {default})"
        lines.append(f"  {key} <{typ.__name__}>: {doc}{r}{d}")
    return "\n".join(lines)
