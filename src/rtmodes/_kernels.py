"""scipy's compiled band-LAPACK, band mat-vec and Bessel kernels, loaded without scipy's packages.

The package calls five compiled routines: ``dpbtrf`` and ``dpbtrs`` from the
extension module ``scipy.linalg._flapack``, ``dia_matvec`` from
``scipy.sparse._sparsetools``, and the Bessel functions ``j0`` and ``j1``
from ``scipy.special._special_ufuncs``.  Importing
``scipy.linalg``, ``scipy.sparse`` and ``scipy.special`` to reach them costs
about 0.3 s per process; loading the extensions from their files next to
scipy's ``__init__`` takes a few milliseconds, and the ``__init__`` of
``scipy`` and of its packages never runs.  The routines are the same compiled
code, so every result is bit-identical: ``j0`` is ``scipy.special.j0``.

The first two extensions load with this module.  ``j0`` and ``j1`` are bound
on first use, through the module ``__getattr__`` (PEP 562): only sampling a
synthesized field reads them, and their extension adds about 1 MB to the
peak memory of every process that maps it.

An extension that scipy has already imported is reused from ``sys.modules``;
one loaded here is taken out of it again, so that a later import of its
package loads it itself and binds it onto the package.  Python initialises
such an extension once per process, so ``scipy.linalg.lapack.dpbtrf`` is
still this module's ``dpbtrf``.  A scipy that lacks one of the files raises
an ImportError naming its version.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_SCIPY = Path(importlib.util.find_spec("scipy").origin).parent


def _extension(name):
    """The extension module ``scipy.<name>``: the one in sys.modules, else loaded from its file."""
    full = "scipy." + name
    if full in sys.modules:
        return sys.modules[full]
    stem = _SCIPY.joinpath(*name.split("."))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(full, None)     # loading entered it there; see above
            return module
    from importlib.metadata import version
    raise ImportError(f"scipy {version('scipy')} has no extension module {full} "
                      f"(looked for {stem}.*); rtmodes needs its compiled kernels")


_flapack = _extension("linalg._flapack")
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs
dia_matvec = _extension("sparse._sparsetools").dia_matvec


def __getattr__(name):
    """``j0`` or ``j1``, bound from scipy.special's ufunc extension on the first read of either."""
    if name not in ("j0", "j1"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    special = _extension("special._special_ufuncs")
    globals().update(j0=special.j0, j1=special.j1)
    return globals()[name]
