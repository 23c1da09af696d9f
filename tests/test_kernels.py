"""rtmodes._kernels and the CSR type of the forms against scipy's public API.

A fresh interpreter that imports only rtmodes (scipy's packages never
initialised) computes band factors, solves and mat-vecs of the default forms
at xi = 1 with the kernels loaded by file; this process recomputes them with
``scipy.linalg.lapack`` and ``scipy.sparse`` and asks for the same bits.  The
CSR type's own operations are compared with ``scipy.sparse.csr_matrix`` built
from the same arrays.
"""

import importlib.metadata
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtmodes
from rtmodes import _kernels
from rtmodes.config import load_config
from rtmodes.errors import LayoutError
from rtmodes.forms import CSR, assemble

DT_LU = 20.0        # evolve --xi 1 --dt 20: the step matrix is indefinite and takes banded LU


def default_forms():
    config = load_config(None, [])
    return assemble(config.profile(), config.mesh(), 1.0)


def kernel_results(lapack, matvec, forms):
    """Band factors and solves through ``lapack``'s routines and mat-vecs through
    ``matvec(data, indices, indptr, shape, x)``, keyed by name."""
    E0b, E1b, Jb = forms._bands
    b = np.linspace(-1.0, 1.0, forms.n)
    out = {}
    for name, ab in (("J", Jb), ("E0", E0b), ("step5", 2.0 * Jb + 5.0 * E1b + 12.5 * E0b)):
        out[name + "_chol"], out[name + "_info"] = lapack.dpbtrf(ab, lower=0)
    out["J_solve"] = lapack.dpbtrs(out["J_chol"], b)[0]
    out["step5_solve"] = lapack.dpbtrs(out["step5_chol"], b)[0]
    step = 2.0 * Jb + DT_LU * E1b + 0.5 * DT_LU**2 * E0b
    out["step_lu_chol_info"] = lapack.dpbtrf(step, lower=0)[1]
    k = step.shape[0] - 1       # LAPACK's general band layout, as eigen._band_solver mirrors it
    gb = np.zeros((3 * k + 1, step.shape[1]))
    gb[k:2 * k + 1] = step
    for d in range(1, k + 1):
        gb[2 * k + d, :-d] = step[k - d, d:]
    out["lu"], out["piv"], out["lu_info"] = lapack.dgbtrf(gb, k, k)
    out["lu_solve"] = lapack.dgbtrs(out["lu"], k, k, b, out["piv"])[0]
    x = np.cos(np.arange(forms.n))
    mats = {"E0": forms.E0, "E1": forms.E1, "J": forms.J, "C": forms.compression(),
            "stack": CSR.vstack([forms.J, forms.E1, forms.E0])}
    for name, M in mats.items():
        out[name + "_matvec"] = matvec(M.data, M.indices, M.indptr, M.shape, x)
    return out


def _write_loaded_results(path):
    """kernel_results with the file-loaded kernels and the CSR type's own ``@``, saved to path."""
    results = kernel_results(_kernels, lambda d, i, p, shape, x: CSR(d, i, p, shape) @ x,
                             default_forms())
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    assert loaded == [], loaded
    np.savez(path, **results)


@pytest.fixture(scope="module")
def loaded_results(tmp_path_factory):
    path = tmp_path_factory.mktemp("kernels") / "loaded.npz"
    src = str(Path(rtmodes.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import test_kernels; "
            "test_kernels._write_loaded_results(%r)" % (str(Path(__file__).parent), str(path)))
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src,
                   env={**os.environ, "PYTHONPATH": src})
    with np.load(path) as data:
        return dict(data)


def test_file_loaded_kernels_match_scipy_bit_for_bit(loaded_results):
    import scipy.linalg.lapack
    import scipy.sparse as sp

    expected = kernel_results(scipy.linalg.lapack,
                              lambda d, i, p, shape, x: sp.csr_matrix((d, i, p), shape=shape) @ x,
                              default_forms())
    assert sorted(loaded_results) == sorted(expected)
    for key, value in expected.items():
        assert np.array_equal(loaded_results[key], value), key
    # the cases are the ones meant: definite, indefinite, and the LU step
    assert expected["J_info"] == 0 and expected["step5_info"] == 0 and expected["E0_info"] > 0
    assert expected["step_lu_chol_info"] > 0 and expected["lu_info"] == 0


@pytest.fixture(scope="module")
def forms_pair():
    """The default forms at xi = 1 and scipy.sparse.csr_matrix copies of (E0, E1, J)."""
    import scipy.sparse as sp

    forms = default_forms()
    return forms, [sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)
                   for M in (forms.E0, forms.E1, forms.J)]


def test_csr_type_matches_scipy_sparse(forms_pair):
    forms, scipy_mats = forms_pair
    x = np.sin(np.arange(forms.n))
    for M, S in zip((forms.E0, forms.E1, forms.J), scipy_mats):
        assert M.nnz == S.nnz and M.shape == S.shape
        assert np.array_equal(M @ x, S @ x)
        assert np.array_equal(M @ x[::-1], S @ x[::-1])     # a strided view is read as scipy reads it
        assert np.array_equal(M.toarray(), S.toarray())
        coo = S.tocoo()
        for ours, theirs in zip(M.triplets(), (coo.row, coo.col, coo.data)):
            assert np.array_equal(ours, theirs)
        assert np.array_equal((2.5 * M).data, (2.5 * S).data)
        assert np.array_equal((M * np.float64(0.5)).data, (S * np.float64(0.5)).data)
    norms = tuple(float(abs(S).sum(axis=1).max()) for S in scipy_mats)
    assert forms.norms() == norms
    with pytest.raises(LayoutError):
        forms.J @ x[:-1]
    with pytest.raises(LayoutError):
        forms.J + CSR(forms.J.data, forms.J.indices[::-1].copy(), forms.J.indptr, forms.J.shape)


@pytest.mark.parametrize("a, b, c", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.3, 0.09),
                                     (1.0, -2.0, 7.5)])
def test_weighted_sum_matches_scipy(forms_pair, a, b, c):
    # bottom_eig's A = a E0 + b E1 + c J, summed entry by entry in scipy's order;
    # scipy drops the entries that sum to exactly 0, which hold 0 here
    forms, (E0, E1, J) = forms_pair
    A = a * forms.E0 + b * forms.E1 + c * forms.J
    S = a * E0 + b * E1 + c * J
    x = np.cos(np.arange(forms.n))
    assert np.array_equal(A @ x, S @ x)
    assert np.array_equal(A.toarray(), S.toarray())


def test_missing_extension_names_the_scipy_version(monkeypatch, tmp_path):
    # a scipy release that renames or drops a private extension fails loudly at import
    monkeypatch.setattr(_kernels, "_SCIPY", tmp_path)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError) as info:
        _kernels._extension("linalg._flapack")
    message = str(info.value)
    assert f"scipy {importlib.metadata.version('scipy')} " in message
    assert "scipy.linalg._flapack" in message
