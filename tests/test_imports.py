import os
import subprocess
import sys
from pathlib import Path

import rtmodes

# Each of these costs start-up time in every rtmodes process; the CLI needs none.
HEAVY = ("scipy.interpolate", "scipy.special", "scipy.optimize", "scipy.integrate",
         "scipy.sparse.linalg")


def test_cli_import_loads_no_heavy_scipy_modules():
    code = "import sys, rtmodes.cli; print(' '.join(m for m in %r if m in sys.modules))" % (HEAVY,)
    src = str(Path(rtmodes.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, cwd=src)
    assert out.stdout.split() == []


def test_no_sparse_lu_in_the_package():
    # every factorization is banded LAPACK; sparse LU would bring scipy.sparse.linalg back
    package = Path(rtmodes.__file__).resolve().parent
    for path in package.rglob("*.py"):
        text = path.read_text()
        assert "splu" not in text and "spsolve" not in text, path.name
