"""Every numeric configuration key, fed hostile values through each subcommand that reads it.

Each run goes through ``cli.main`` in this process at 8 elements per side and
must end in exit 0, 2, 3 or 4, never in an exception: bad input is a typed
error.  No run, whatever its exit code, may print a raw numpy warning
(``... encountered in ...``), which would mean an inf or nan was computed on,
whether it reached the output or the run stopped later.  A size too large to
store is refused (``errors.storable``) before numpy allocates it, so one
key's runs must not raise the process's peak memory by 64 MB (they raise it
by at most a few MB).  A value refused while
the config is loaded or its profile and mesh are built, which each
subcommand does first, is fed once, through the key's first reader; a value
equal to the key's default is the base run itself and is left out.

Budget: about 480 cases in about 2 s on an idle 2-core box; the table must
stay under 5 s.  No
case may take more than 1 s (the slowest takes about 0.1 s): that catches a
cost that grows with a value, as J0 and J1 once did with the grid's extent.
"""

import contextlib
import io
import resource
import time

import pytest

from rtmodes import cli
from rtmodes.config import KEYS, load_config
from rtmodes.errors import ConfigurationError, DomainError, LayoutError, RangeError, SolverError

VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")
# small sizes keep each run cheap; a key under test overrides its own entry
BASE = {"mesh.elements_per_side": "8", "sweep.n": "3", "synthesis.radial_nodes": "2",
        "synthesis.grid.nx": "2", "synthesis.grid.ny": "1", "synthesis.grid.nz": "2",
        "geometry.L": "1.5", "evolve.T": "0.1"}

PROFILE = ["profile", "--resolution", "4"]
# every subcommand but profile builds the mesh
MESHED = (["forms", "--xi", "1"], ["mode"], ["dispersion"], ["lattice"], ["synthesize"],
          ["synthesize", "--periodic"], ["evolve"], ["verify", "--quick"])
PERIODIC = (["lattice"], ["synthesize", "--periodic"])
SAMPLED = (["synthesize"], ["synthesize", "--periodic"])
SWEPT = (["dispersion"], ["verify"])
READERS = {
    "geometry.L": PERIODIC, "lattice.xi_max": PERIODIC,
    "mesh.elements_per_side": MESHED, "mesh.order": MESHED,
    "sweep.n": SWEPT, "sweep.xi_min": SWEPT, "sweep.xi_max": SWEPT,
    "mode.xi": (["mode"],),
    "synthesis.f.a": (["synthesize"],), "synthesis.f.b": (["synthesize"],),
    "synthesis.radial_nodes": (["synthesize"],),
    "synthesis.grid.nx": SAMPLED, "synthesis.grid.ny": SAMPLED, "synthesis.grid.nz": SAMPLED,
    "synthesis.grid.extent": SAMPLED,
    "evolve.xi": (["evolve"],), "evolve.T": (["evolve"],), "evolve.dt": (["evolve"],),
}
# the profile's keys (geometry, fluid and viscosity) are read by every subcommand
ERRORS = (ConfigurationError, DomainError, LayoutError, RangeError, SolverError)  # exit 2 or 3
NUMERIC = [key for key, (typ, *_) in KEYS.items() if typ in (int, float)]


def _readers(key):
    assert key in READERS or key.startswith(("geometry.", "fluid.", "viscosity.")), key
    return READERS.get(key, (PROFILE, *MESHED))


def _reaches_a_subcommand(overrides):
    """Whether the config loads and builds its profile and mesh, which each reader does first."""
    try:
        config = load_config(None, overrides)
        config.profile(), config.mesh()
    except ERRORS:
        return False
    return True


@pytest.mark.parametrize("key", NUMERIC)
def test_hostile_values_end_in_an_exit_code(tmp_path, monkeypatch, key):
    # one parser serves every case: building it is most of a refused case's cost
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    default = KEYS[key][1]
    for value in VALUES:
        if default is not None and float(value) == default:
            continue
        sets = {**BASE, "output.dir": str(tmp_path), key: value}
        overrides = [f"{k}={v}" for k, v in sets.items()]
        readers = _readers(key) if _reaches_a_subcommand(overrides) else _readers(key)[:1]
        for argv in readers:
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*argv, *(a for o in overrides for a in ("--set", o))])
            elapsed = time.perf_counter() - start
            case = f"{' '.join(argv)} --set {key}={value}"
            assert code in (0, 2, 3, 4), case
            assert "Traceback" not in err.getvalue(), case
            assert "encountered in" not in err.getvalue(), case   # no raw numpy warning
            assert elapsed < 1.0, f"{case} took {elapsed:.2f} s"
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb < 64 * 1024


# verify's full battery, which the table runs only with --quick for the
# profile's keys: an all-Stable sweep (Lambda = 0) for the first five, and an
# overflowing second derivative (phi'' carries 1/eps) for the last two
@pytest.mark.parametrize("override, expected", [
    ("geometry.g=1e-300", 2), ("geometry.sigma=1e-300", 2), ("geometry.sigma=1e300", 2),
    ("viscosity.lower.eps=1e300", 2), ("viscosity.upper.eps=1e300", 2),
    ("viscosity.lower.eps=1e-300", 0), ("viscosity.upper.eps=1e-300", 0),
])
def test_full_verify_prints_no_raw_numpy_warning(tmp_path, override, expected):
    sets = [f"{k}={v}" for k, v in {**BASE, "output.dir": str(tmp_path)}.items()] + [override]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", *(a for o in sets for a in ("--set", o))])
    assert code == expected
    assert "Traceback" not in err.getvalue() and "encountered in" not in err.getvalue()
