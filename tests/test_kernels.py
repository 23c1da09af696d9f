"""rtmodes._kernels and the band type of the forms against scipy's public API and dense oracles.

A fresh interpreter that imports only rtmodes (scipy's packages never
initialised) computes band factors, solves and mat-vecs of the default forms
and of an order-1 mesh of 8 elements per side at xi = 1, with the band LAPACK
of numpy's OpenBLAS and the mat-vec kernel loaded by file; this process
recomputes them with ``scipy.linalg.lapack`` and ``scipy.sparse.dia_matrix``
and asks for the same bits.  The band type's own operations are compared with
dense copies, with ``scipy.sparse.dia_matrix`` built from the same arrays, and
with the CSR pattern the forms were once stored in.
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
from rtmodes.forms import Band, assemble


def default_forms(*sets, xi=1.0):
    config = load_config(None, list(sets))
    return assemble(config.profile(), config.mesh(), xi)


# the default mesh (kd = 5, 2046 dofs) and an order-1 mesh of 8 elements per side (kd = 3, 30 dofs)
KERNEL_MESHES = {"default": (), "order1": ("mesh.order=1", "mesh.elements_per_side=8")}


def all_kernel_results(lapack, product):
    """kernel_results on every mesh of KERNEL_MESHES, the keys prefixed by the mesh's name."""
    return {f"{mesh}.{key}": value for mesh, sets in KERNEL_MESHES.items()
            for key, value in kernel_results(lapack, product, default_forms(*sets)).items()}


def kernel_results(lapack, product, forms):
    """Band factors and solves through ``lapack``'s routines and mat-vecs through
    ``product(mats, x)``, the bands ``mats`` stacked by rows, keyed by name."""
    E0, E1, J = forms.E0, forms.E1, forms.J
    b = np.linspace(-1.0, 1.0, forms.n)
    out = {}
    for name, M in (("J", J), ("E0", E0), ("step5", 2.0 * J + 5.0 * E1 + 12.5 * E0)):
        out[name + "_chol"], out[name + "_info"] = lapack.dpbtrf(M.upper, lower=0)
    out["J_solve"] = lapack.dpbtrs(out["J_chol"], b)[0]
    out["step5_solve"] = lapack.dpbtrs(out["step5_chol"], b)[0]
    # evolve --xi 1 --dt 20: past 2 / lambda the step matrix is indefinite
    out["step20_info"] = lapack.dpbtrf((2.0 * J + 20.0 * E1 + 200.0 * E0).upper, lower=0)[1]
    x = np.cos(np.arange(forms.n))
    mats = {"E0": [E0], "E1": [E1], "J": [J], "C": [forms.compression()], "stack": [J, E1, E0]}
    for name, M in mats.items():
        out[name + "_matvec"] = product(M, x)
    return out


def band_product(mats, x):
    """The band type's own product: ``@`` for one band, :meth:`Band.stacked` for several."""
    return mats[0] @ x if len(mats) == 1 else Band.stacked(mats)(x)


def dia_matrix(mats):
    """A ``scipy.sparse.dia_matrix`` of the bands ``mats`` stacked by rows: one
    band's diagonals sit at offsets kd, ..., -kd, block b's shifted by -b n."""
    import scipy.sparse as sp

    n, kd = mats[0].shape[0], mats[0].kd
    offsets = np.concatenate([np.arange(kd, -kd - 1, -1) - b * n for b in range(len(mats))])
    return sp.dia_matrix((np.concatenate([M.data for M in mats]), offsets),
                         shape=(len(mats) * n, n))


def _write_loaded_results(path):
    """kernel_results with the file-loaded kernels and the band type's own products, saved to path."""
    results = all_kernel_results(_kernels, band_product)
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

    expected = all_kernel_results(scipy.linalg.lapack, lambda mats, x: dia_matrix(mats) @ x)
    assert sorted(loaded_results) == sorted(expected)
    for key, value in expected.items():
        assert np.array_equal(loaded_results[key], value), key
    for mesh in KERNEL_MESHES:
        got, want = (lambda key: loaded_results[f"{mesh}.{key}"]), (lambda key: expected[f"{mesh}.{key}"])
        # the cases are the ones meant: definite, indefinite, and the step integrate refuses
        assert want("J_info") == 0 and want("step5_info") == 0 and want("E0_info") > 0
        assert want("step20_info") > 0
        # the stacked product is the three products one after another
        parts = [got(name + "_matvec") for name in ("J", "E1", "E0")]
        assert np.array_equal(got("stack_matvec"), np.concatenate(parts))


def csr_pattern(mesh):
    """The (row, col) pairs of the CSR pattern the forms were stored in before
    they became bands: every pair of interior dofs of one element, by
    ``np.unique`` of the element-dof keys, so row by row with ascending columns."""
    conn = mesh.conn
    interior = (conn >= 1) & (conn <= mesh.n_nodes - 2)
    gdof = np.concatenate([np.where(interior, 2 * (conn - 1), -1),
                           np.where(interior, 2 * (conn - 1) + 1, -1)], axis=1)
    n = 2 * (mesh.n_nodes - 2)
    rows, cols = gdof[:, :, None], gdof[:, None, :]
    keys = np.unique((rows * n + cols)[(rows >= 0) & (cols >= 0)])
    return keys // n, keys % n


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("order", [1, 2])
def test_band_type_against_oracles(order, sigma):
    on_mesh = lambda order: default_forms(f"mesh.order={order}", "mesh.elements_per_side=6",
                                          f"geometry.sigma={sigma}", xi=1.3)
    forms = on_mesh(order)
    pattern = csr_pattern(forms.mesh)
    x = np.sin(np.arange(forms.n))
    for M in (forms.E0, forms.E1, forms.J, forms.compression()):
        D = M.toarray()
        assert np.array_equal(D, D.T)       # exactly symmetric: one value per pair
        scale = np.abs(D).max() * np.abs(x).max()
        for v in (x, x[::-1]):              # a strided view is read as scipy reads it
            assert np.abs(M @ v - D @ v).max() <= 1e-15 * scale
            assert np.array_equal(M @ v, dia_matrix([M]) @ v)
        rows, cols, values = M.triplets()
        assert M.nnz == rows.size
        assert np.array_equal(rows, pattern[0]) and np.array_equal(cols, pattern[1])
        assert np.array_equal(values, D[rows, cols])
        assert np.count_nonzero(D) <= M.nnz     # nothing outside the pattern
        assert np.array_equal((2.5 * M).toarray(), 2.5 * D)
        assert np.array_equal((M * np.float64(0.5)).toarray(), D * np.float64(0.5))
    norms = [np.abs(D).sum(axis=1).max() for D in forms.dense()]
    assert forms.norms() == pytest.approx(norms, rel=1e-15)
    with pytest.raises(LayoutError):
        forms.J @ x[:-1]
    with pytest.raises(LayoutError):
        forms.J + on_mesh(3 - order).J


@pytest.mark.parametrize("a, b, c", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.3, 0.09),
                                     (1.0, -2.0, 7.5)])
def test_weighted_sum_matches_scipy(a, b, c):
    # bottom_eig's A = a E0 + b E1 + c J, summed entry by entry as scipy sums
    # dia_matrix copies of the three forms
    forms = default_forms()
    E0, E1, J = (dia_matrix([M]) for M in (forms.E0, forms.E1, forms.J))
    A = a * forms.E0 + b * forms.E1 + c * forms.J
    assert np.array_equal(A.toarray(), (a * E0 + b * E1 + c * J).toarray())
    x = np.cos(np.arange(forms.n))
    assert np.array_equal(A @ x, dia_matrix([A]) @ x)


def test_missing_extension_names_the_scipy_version(monkeypatch, tmp_path):
    # a scipy release that renames or drops a private extension fails loudly at import
    monkeypatch.setattr(_kernels, "_SCIPY", tmp_path)
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools", raising=False)
    with pytest.raises(ImportError) as info:
        _kernels._extension("sparse._sparsetools")
    message = str(info.value)
    assert f"scipy {importlib.metadata.version('scipy')} " in message
    assert "scipy.sparse._sparsetools" in message


def test_missing_lapack_symbol_names_the_numpy_version():
    # a numpy whose OpenBLAS lacks a band routine fails loudly at import: there is
    # no second path through scipy's LAPACK
    with pytest.raises(ImportError) as info:
        _kernels._lapack("dpbtrx")
    message = str(info.value)
    assert f"numpy {np.__version__} " in message and "scipy_dpbtrx_64_" in message
    assert "BLAS: scipy-openblas" in message
