"""Compiled band-LAPACK, band mat-vec and Bessel kernels, loaded without scipy's packages.

The package calls five compiled routines.  Two are LAPACK's band Cholesky
routines from the OpenBLAS that numpy already maps: ``dpbtf2`` (bound here
as :func:`dpbtrf`) and ``dpbtrs``, each bound in the one form that
:mod:`rtmodes.eigen`, their one caller, runs: a factorization of lower band
storage and an in-place solve with the lower factor it writes (Anderson et
al., *LAPACK Users' Guide*, 1999).  Three come from scipy's extension modules:
``dia_matvec`` from ``scipy.sparse._sparsetools``, and the Bessel functions
``j0`` and ``j1`` from ``scipy.special._special_ufuncs``.

numpy's wheels link an ILP64 OpenBLAS whose symbols carry the prefix
``scipy_`` and the suffix ``64_``.  ``ctypes.PyDLL`` on numpy's own extension
``_multiarray_umath`` gives a handle whose symbol lookup searches that
extension's dependencies, so the band routines resolve without a path and
without mapping a second library: ``scipy.linalg._flapack`` would map
scipy's own OpenBLAS, about 2.6 MB of peak memory per process.  LAPACK's
``dpbtrf`` runs ``dpbtf2`` whenever the half-bandwidth is below its
block size of 32, and every band here has kd = 3 or 5, so both give the same
bits.  A numpy without those symbols raises an ImportError naming its version
and BLAS.

Importing ``scipy.sparse`` and ``scipy.special`` to reach the other three
would run their ``__init__``, most of a process's start-up; loading the
extensions from their files next to scipy's ``__init__`` takes a few
milliseconds, and the ``__init__`` of ``scipy`` and of its packages never
runs.  The routines are the same compiled code, so every result is
bit-identical: ``j0`` is ``scipy.special.j0``.  ``dia_matvec`` loads with
this module.  ``j0`` and ``j1`` are bound on first use, through the module
``__getattr__`` (PEP 562): only sampling a synthesized field reads them, and
their extension adds about 1 MB to the peak memory of every process that
maps it.

An extension that scipy has already imported is reused from ``sys.modules``;
one loaded here is taken out of it again, so that a later import of its
package loads it itself and binds it onto the package.  Python initialises
such an extension once per process, so ``scipy.sparse._sparsetools.dia_matvec``
is still this module's ``dia_matvec``.  A scipy that lacks one of the files
raises an ImportError naming its version.
"""

import collections
import ctypes
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

counters = collections.Counter()    # calls of dpbtrf, dpbtrs, dia_matvec, counted where made
_SCIPY = Path(importlib.util.find_spec("scipy").origin).parent
_NUMPY_LIBS = ctypes.PyDLL(np._core._multiarray_umath.__file__)


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


def _lapack(name, *argtypes):
    """LAPACK routine ``name`` of numpy's OpenBLAS: uplo, ``argtypes``, then uplo's hidden length."""
    symbol = f"scipy_{name}_64_"
    try:
        routine = getattr(_NUMPY_LIBS, symbol)
    except AttributeError:
        blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        raise ImportError(f"numpy {np.__version__} (BLAS: {blas.get('name')} {blas.get('version')}) "
                          f"exports no {symbol}; rtmodes needs the ILP64 band LAPACK of numpy's "
                          f"scipy-openblas") from None
    routine.argtypes = [ctypes.c_char_p, *argtypes, ctypes.c_size_t]
    routine.restype = None
    return routine


_INT = ctypes.c_int64           # ILP64: every LAPACK integer is 64 bits wide
_PINT, _PTR = ctypes.POINTER(_INT), ctypes.c_void_p
# dpbtf2(uplo, n, kd, ab, ldab, info) and dpbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb, info)
_dpbtf2 = _lapack("dpbtf2", _PINT, _PINT, _PTR, _PINT, _PINT)
_dpbtrs = _lapack("dpbtrs", _PINT, _PINT, _PINT, _PTR, _PINT, _PTR, _PINT, _PINT)


def dpbtrf(ab):
    """(c, info): c the Cholesky factor L of the lower band ``ab`` in a new Fortran array, info > 0
    the order of the first leading minor that is not positive definite."""
    c = np.array(ab, dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] < 1:
        raise ValueError(f"dpbtrf needs a band of kd + 1 >= 1 rows, not an array of shape {c.shape}")
    kd1, n = c.shape
    info = _INT()
    _dpbtf2(b"L", _INT(n), _INT(kd1 - 1), c.ctypes.data, _INT(kd1), info, 1)
    return c, info.value


def dpbtrs(c, b):
    """(b, info): the vector ``b`` overwritten by x solving A x = b, A = L L^T factored into the
    lower band ``c`` by :func:`dpbtrf`; ``b`` must be a contiguous, writeable float64 vector."""
    c = np.asarray(c, dtype=np.float64, order="F")
    if not (isinstance(b, np.ndarray) and b.dtype == np.float64 and b.flags.contiguous
            and b.flags.writeable) or c.ndim != 2 or c.shape[0] < 1 or b.shape != c.shape[1:]:
        raise ValueError(f"dpbtrs solves a contiguous, writeable float64 vector as long as the band "
                         f"of shape {c.shape}, not {getattr(b, 'dtype', type(b))} {np.shape(b)}")
    kd1, n = c.shape
    info = _INT()
    _dpbtrs(b"L", _INT(n), _INT(kd1 - 1), _INT(1), c.ctypes.data, _INT(kd1), b.ctypes.data,
            _INT(max(n, 1)), info, 1)
    return b, info.value


dia_matvec = _extension("sparse._sparsetools").dia_matvec


def __getattr__(name):
    """``j0`` or ``j1``, bound from scipy.special's ufunc extension on the first read of either."""
    if name not in ("j0", "j1"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    special = _extension("special._special_ufuncs")
    globals().update(j0=special.j0, j1=special.j1)
    return globals()[name]
