import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rtmodes

# Each of these costs start-up time in every rtmodes process; the CLI needs none.
HEAVY = ("scipy", "scipy.linalg", "scipy.sparse", "scipy._lib._array_api",
         "scipy.interpolate", "scipy.special", "scipy.optimize", "scipy.integrate",
         "scipy.sparse.linalg")


def _last_line(code, env=()):
    """The last line ``code`` prints in a fresh interpreter."""
    src = str(Path(rtmodes.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src, **dict(env)}, cwd=src)
    return out.stdout.splitlines()[-1]


def _names_after(statement, names, test="m in sys.modules"):
    """Those of ``names`` for which ``test`` holds once ``statement`` has run in a fresh interpreter."""
    code = "import sys, types\n%s\nprint(' '.join(m for m in %r if %s))" % (statement, names, test)
    return _last_line(code).split()


def _heavy_loaded_after(statement):
    """The HEAVY modules loaded once ``statement`` has run in a fresh interpreter."""
    return _names_after(statement, HEAVY)


# Modules a subcommand should run only if it needs them: rtmodes' own late
# layers; and three that none needs: hashlib's OpenSSL binding, numpy's
# polynomial package (every Gauss rule, the radial one of NonperiodicField
# too, comes from rtmodes.mesh) and scipy's special functions package (J0 and
# J1 come from its ufunc extension through _kernels, which never runs the
# package).  A deferred module sits in sys.modules before its code runs, so
# the test is that its code has run.
LATE = ("rtmodes.synthesis", "rtmodes.evolution", "rtmodes.verify", "_hashlib",
        "numpy.polynomial", "scipy.special")
RAN = "type(sys.modules.get(m)) is types.ModuleType"
# every public name of the package, whether its module is deferred or not
EXPORTS = (
    "BumpProfile", "ConfigurationError", "DispersionCurve", "DomainError", "EigenResult",
    "FluidViscosity", "FormSet", "LatticeResult", "LayoutError", "Mesh", "ModeSolution",
    "ModeTrajectory", "NonperiodicField", "PeriodicField",
    "PeriodicStabilityReport", "PressureLaw", "RangeError", "RunConfig", "SlabGeometry",
    "SolverError", "Stable", "SteadyProfile", "VacuumError", "ViscosityLaw", "admissible",
    "assemble", "bottom_eig", "build_profile", "c2_diagnostic", "config", "dispersion", "eigen",
    "energy_identity_check", "eos", "errors", "evolution", "forms",
    "generic_growth_envelope", "growth_bound_check", "growth_rate", "integrate",
    "lattice_modes", "load_config", "mesh", "mode_initial_data", "pencil_consistency",
    "periodic_stability_check", "profile", "residuals", "smallest_eig", "spectral_k_constants",
    "sweep", "synthesis", "verify_hydrostatic",
)


@pytest.mark.parametrize("argv, late_allowed", [
    (["profile", "--resolution", "16"], ()),
    (["forms", "--xi", "1"], ()),
    (["mode"], ()),
    (["dispersion", "--n", "4"], ()),
    (["lattice", "--L", "1.5"], ()),
    (["synthesize"], ("rtmodes.synthesis",)),
    (["synthesize", "--periodic", "--set", "geometry.L=1.5"], ("rtmodes.synthesis",)),
    (["evolve", "--T", "1"], ("rtmodes.evolution",)),
    (["verify"], ("rtmodes.synthesis", "rtmodes.evolution", "rtmodes.verify")),
], ids=["profile", "forms", "mode", "dispersion", "lattice", "synthesize", "synthesize-periodic",
        "evolve", "verify"])
def test_each_subcommand_runs_only_the_modules_it_needs(tmp_path, argv, late_allowed):
    argv = [*argv, "--set", "mesh.elements_per_side=8", "--set", f"output.dir={tmp_path}"]
    statement = "from rtmodes.cli import main\nassert main(%r) == 0" % (argv,)
    assert _names_after(statement, LATE, RAN) == list(late_allowed)


def test_only_sampling_a_field_maps_the_bessel_extension(tmp_path):
    # _kernels maps scipy.special's ufunc extension (about 1 MB of peak memory)
    # on the first read of j0 or j1; of the subcommands only synthesize samples
    # a field and reads them, and it still loads none of scipy's packages
    runs = [["profile", "--resolution", "16"], ["forms", "--xi", "1"], ["mode"],
            ["dispersion", "--n", "4"], ["lattice", "--L", "1.5"], ["evolve", "--T", "1"],
            ["verify"], ["synthesize"]]
    runs = [[*argv, "--set", "mesh.elements_per_side=8", "--set", f"output.dir={tmp_path}"]
            for argv in runs]
    code = "\n".join([
        "import sys",
        "from rtmodes import _kernels",
        "from rtmodes.cli import main",
        "loaded = []",
        "for argv in %r:" % (runs,),
        "    assert main(argv) == 0",
        "    with open('/proc/self/maps') as maps:",
        "        mapped = '_special_ufuncs' in maps.read()",
        "    loaded.append(int(mapped or 'j0' in vars(_kernels)))",
        "print(*loaded, *(m for m in %r if m in sys.modules))" % (HEAVY,),
    ])
    assert _last_line(code).split() == ["0"] * 7 + ["1"]


def test_package_exports_resolve_and_are_listed():
    # the package still binds every name it exported when it ran synthesis and
    # evolution at import; reading one of theirs runs its module then
    statement = "\n".join([
        "import rtmodes",
        "assert type(sys.modules['rtmodes.synthesis']) is not types.ModuleType",
        "missing = [n for n in %r if n not in dir(rtmodes)]" % (EXPORTS,),
        "assert missing == [], missing",
        "resolved = [getattr(rtmodes, n) for n in %r]" % (EXPORTS,),
        "from rtmodes import integrate, NonperiodicField",
        "from rtmodes.evolution import integrate as direct",
        "assert direct is integrate is rtmodes.evolution.integrate",
        "assert NonperiodicField is sys.modules['rtmodes.synthesis'].NonperiodicField",
    ])
    assert _names_after(statement, LATE, RAN) == ["rtmodes.synthesis", "rtmodes.evolution"]


def test_config_hash_is_sixteen_hex_digits_in_every_interpreter():
    # str hashing is salted per process; the id must not be
    code = "from rtmodes.config import load_config\nprint(load_config().config_hash())"
    hashes = {_last_line(code, {"PYTHONHASHSEED": seed}) for seed in ("1", "2")}
    assert len(hashes) == 1 and re.fullmatch("[0-9a-f]{16}", hashes.pop())


def test_cli_import_loads_no_heavy_scipy_modules():
    assert _heavy_loaded_after("import rtmodes.cli") == []


def test_verify_battery_loads_no_heavy_scipy_modules(tmp_path):
    # the full battery (not --quick) builds a synthesized field and takes its
    # norms, but samples none of its values, so not even the Bessel functions'
    # extension is mapped (see above)
    argv = ["verify", "--set", "mesh.elements_per_side=16", "--set", f"output.dir={tmp_path}"]
    statement = "from rtmodes.cli import main\nassert main(%r) == 0" % (argv,)
    assert _heavy_loaded_after(statement) == []


def test_verify_and_radial_rule_call_no_numpy_linalg(monkeypatch):
    # the radial Gauss rule is Newton's on numpy core and both vector norms are
    # dot products, so numpy's LAPACK is never touched: not by the full battery,
    # whose field has 8 radial nodes, nor by a field of 16
    import numpy as np

    from rtmodes.config import load_config
    from rtmodes.synthesis import BumpProfile, NonperiodicField
    from rtmodes.verify import run_battery

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):      # all but LinAlgError
            monkeypatch.setattr(np.linalg, name, refuse)
    config = load_config(None, ["mesh.elements_per_side=8"])
    assert all(r.passed for r in run_battery(config))
    profile, mesh = config.profile(), config.mesh()
    field = NonperiodicField(profile, mesh, BumpProfile.default(profile.xi_c))
    assert field.sobolev_norm("v", k=1) > 0


def test_no_sparse_lu_in_the_package():
    # every factorization is one banded Cholesky, dpbtrf; sparse LU would bring
    # scipy.sparse.linalg back, and a banded or dense LU would be a second path
    package = Path(rtmodes.__file__).resolve().parent
    for path in package.rglob("*.py"):
        text = path.read_text()
        for name in ("splu", "spsolve", "dgbtrf", "dgbtrs", "lu_factor"):
            assert name not in text, (path.name, name)


def test_only_eigen_builds_and_factors_bands():
    # eigen is the one owner of band factorization: no other module names the band
    # LAPACK routines (_kernels binds them), and no module but forms and eigen reads
    # the rows of a band's data, so no second builder of factorization bands exists
    package = Path(rtmodes.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if path.name not in ("eigen.py", "_kernels.py"):
            for name in ("dpbtrf", "dpbtrs", "dpbtf2"):
                assert name not in text, (path.name, name)
        if path.name not in ("eigen.py", "forms.py"):
            reads = [node.lineno for node in ast.walk(ast.parse(text))
                     if isinstance(node, ast.Attribute) and node.attr == "data"
                     and getattr(node.value, "attr", None) != "ctypes"]     # a ctypes pointer
            assert reads == [], (path.name, reads)


def test_q_family_is_summed_in_one_place():
    # a band is summed only by the module that owns its family: eigen (bottom_eig's
    # A - m J), evolution (the step matrix, J) and dispersion, whose one _band call
    # writes Q(s) = E0 + s E1 + s^2 J for the rate solver and verify's window row
    package = Path(rtmodes.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        if path.name not in ("eigen.py", "dispersion.py", "evolution.py"):
            assert not names & {"_band", "_factor"}, path.name
    tree = ast.parse((package / "dispersion.py").read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_band"]
    assert len(calls) == 1


def _absolute_imports(node):
    """The modules an import statement reads, ``from m import a`` giving m and m.a."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def test_only_kernels_loads_scipy_extensions():
    # _kernels is the one door to scipy's compiled code: only it names a scipy
    # extension or uses importlib's file loading to load one (the package's
    # __init__ uses importlib only to defer two of its own modules), only eigen
    # takes the band-LAPACK routines from it, only forms the band mat-vec
    # dia_matvec and only synthesis the Bessel functions j0 and j1 (read as
    # attributes, so that importing synthesis does not load them), no module
    # names the CSR kernel csr_matvec, and no module imports scipy.linalg,
    # scipy.sparse or scipy.special (their import was most of start-up)
    package = Path(rtmodes.__file__).resolve().parent
    loaders, taken, packages = set(), [], []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert "csr_matvec" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            modules = _absolute_imports(node)
            packages += [(path.name, m) for m in modules
                         if m.startswith(("scipy.linalg", "scipy.sparse", "scipy.special"))]
            if any(m.startswith("importlib") for m in modules) and path.name != "__init__.py" or (
                    isinstance(node, ast.Attribute) and node.attr in (
                        "spec_from_file_location", "ExtensionFileLoader", "EXTENSION_SUFFIXES")) or (
                    isinstance(node, ast.Constant) and str(node.value).startswith(
                        ("linalg._flapack", "sparse._sparsetools", "special.", "scipy."))):
                loaders.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "_kernels":
                taken += [(path.name, a.name) for a in node.names]
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_kernels":
                taken.append((path.name, node.attr))
    assert packages == []
    assert loaders == {"_kernels.py"}
    assert sorted(taken) == [("eigen.py", "dpbtrf"), ("eigen.py", "dpbtrs"), ("forms.py", "dia_matvec"),
                             ("synthesis.py", "j0"), ("synthesis.py", "j1")]


def test_scipy_imported_later_reuses_the_loaded_kernels():
    # rtmodes leaves no scipy module in sys.modules, so in either import order
    # scipy's packages carry their extension modules as attributes, over the
    # very routines rtmodes calls, and scipy.sparse works on top of them.  Its
    # band LAPACK is numpy's: until scipy.linalg is imported, a process that has
    # solved a rate maps one OpenBLAS, numpy's, and not scipy.linalg._flapack
    # (whose OpenBLAS would add about 2.6 MB of peak memory)
    checks = [
        "from rtmodes import eigen, forms",
        "assert scipy.sparse._sparsetools.dia_matvec is forms.dia_matvec",
        "from scipy.sparse import _sparsetools",
        "assert _sparsetools is scipy.sparse._sparsetools",
        "A = scipy.sparse.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))",
        "assert (A @ np.array([1.0, 2.0])).tolist() == [4.0, 6.0]",
    ]
    rtmodes_first = ["import rtmodes.cli",
                     "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))",
                     "assert loaded == [], loaded",
                     "from rtmodes import growth_rate, load_config",
                     "config = load_config(None, ['mesh.elements_per_side=8'])",
                     "assert growth_rate(config.profile(), config.mesh(), 1.0).lam > 0",
                     "with open('/proc/self/maps') as maps:",
                     "    files = {line.split()[-1] for line in maps if '/' in line}",
                     "blas = [f for f in files if 'openblas' in f.rsplit('/', 1)[-1]]",
                     "assert len(blas) == 1 and 'numpy.libs' in blas[0], blas",
                     "assert not any('linalg/_flapack' in f for f in files)",
                     "import scipy.linalg, scipy.sparse"]
    scipy_first = ["import scipy.linalg, scipy.sparse", "import rtmodes.cli"]
    for imports in (rtmodes_first, scipy_first):
        statement = "\n".join(["import numpy as np", *imports, *checks])
        assert {"scipy.linalg", "scipy.sparse"} <= set(_heavy_loaded_after(statement))


def test_cli_writes_only_through_its_writers():
    # one place decides how outputs are written and how a write error exits:
    # only the writer helpers open files or make directories, and only main
    # writes run.json
    writers = {"_make_dir", "_write_rows"}
    tree = ast.parse((Path(rtmodes.__file__).resolve().parent / "cli.py").read_text())
    opens, metas = [], []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("open", "mkdir", "makedirs", "write_text", "write_bytes", "touch"):
                opens.append(func.name)
            elif name == "_write_meta":
                metas.append(func.name)
    assert opens and set(opens) <= writers
    assert metas == ["main"]


def test_bench_selftest_passes():
    # the benchmark's tracer wraps every layer module and traced class; a refactor
    # that breaks its contract fails here, not only in a traced benchmark run
    root = Path(rtmodes.__file__).resolve().parents[2]
    out = subprocess.run([sys.executable, "bench/selftest.py"], capture_output=True, text=True,
                         cwd=root)
    assert out.returncode == 0, out.stdout + out.stderr
