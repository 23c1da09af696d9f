"""Set-up probe: time from a fresh interpreter to a built profile and mesh.

Usage: python3 bench/probe.py <config>

Prints one JSON object: ``setup_s`` (import rtmodes, load_config,
RunConfig.profile() and RunConfig.mesh()) and the environment the
interpreter sees: library versions, the BLAS library and its thread count.
"""

import time

_T0 = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402


def blas_info():
    """Loaded OpenBLAS libraries and the thread count each reports."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[os.path.basename(path)] = int(getattr(lib, sym)())
                break
        else:
            out[os.path.basename(path)] = None
    return out


def main(config_path):
    import rtmodes

    cfg = rtmodes.load_config(config_path)
    cfg.profile()
    cfg.mesh()
    setup_s = time.perf_counter() - _T0

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "setup_s": setup_s,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_info(),
            "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ},
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
