import ast
import os
import subprocess
import sys
from pathlib import Path

import rtmodes

# Each of these costs start-up time in every rtmodes process; the CLI needs none.
HEAVY = ("scipy.interpolate", "scipy.special", "scipy.optimize", "scipy.integrate",
         "scipy.sparse.linalg")


def _heavy_loaded_after(statement):
    """The HEAVY modules loaded once ``statement`` has run in a fresh interpreter."""
    code = "import sys\n%s\nprint(' '.join(m for m in %r if m in sys.modules))" % (statement, HEAVY)
    src = str(Path(rtmodes.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, cwd=src)
    return out.stdout.splitlines()[-1].split()


def test_cli_import_loads_no_heavy_scipy_modules():
    assert _heavy_loaded_after("import rtmodes.cli") == []


def test_verify_battery_loads_no_heavy_scipy_modules(tmp_path):
    # the full battery (not --quick) builds a synthesized field but samples none,
    # so the Bessel functions of scipy.special never load
    argv = ["verify", "--set", "mesh.elements_per_side=16", "--set", f"output.dir={tmp_path}"]
    statement = "from rtmodes.cli import main\nassert main(%r) == 0" % (argv,)
    assert _heavy_loaded_after(statement) == []


def test_no_sparse_lu_in_the_package():
    # every factorization is banded LAPACK; sparse LU would bring scipy.sparse.linalg back
    package = Path(rtmodes.__file__).resolve().parent
    for path in package.rglob("*.py"):
        text = path.read_text()
        assert "splu" not in text and "spsolve" not in text, path.name


def test_only_eigen_imports_scipy_linalg_and_only_lapack():
    # eigen is the one banded layer: a second factorization or solve path that
    # imports scipy.linalg (or its high-level band wrappers) elsewhere fails here
    package = Path(rtmodes.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names
                          if a.name.startswith("scipy.linalg")]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("scipy.linalg"):
                    found.append((path.name, node.module))
                elif node.module == "scipy":
                    found += [(path.name, "scipy." + a.name) for a in node.names
                              if a.name == "linalg"]
    assert found == [("eigen.py", "scipy.linalg.lapack")]


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
