"""rtmodes._kernels, eigen's band factorization and the band type of the forms against
scipy's public API and dense oracles.

A fresh interpreter that imports only rtmodes (scipy's packages never
initialised) computes band factors, solves and mat-vecs of the default forms
and of an order-1 mesh of 8 elements per side at xi = 1: ``_kernels.dpbtrf``
(the band LAPACK of numpy's OpenBLAS) on lower band storage, eigen's own
factors and solves, and the mat-vec kernel loaded by file.  This process
recomputes them with ``scipy.linalg.lapack``, the lower factors on the same
lower bands and eigen's factors and solves on lower bands summed from the
top rows of the forms, and with ``scipy.sparse.dia_matrix``, and asks for
the same bits.  The band type's own
operations are compared with dense copies, with ``scipy.sparse.dia_matrix``
built from the same arrays, and with the CSR pattern the forms were once
stored in.  Last, every module's band builder, factor and solve are swapped
for scipy's lower-storage LAPACK on those bands, and sweeps, lattices, bottom
eigenpairs and trajectories must not move by a bit.
"""

import importlib.metadata
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtmodes
from rtmodes import _kernels, dispersion, eigen, evolution
from rtmodes.config import load_config
from rtmodes.errors import LayoutError
from rtmodes.forms import Band, assemble


def default_forms(*sets, xi=1.0):
    config = load_config(None, list(sets))
    return assemble(config.profile(), config.mesh(), xi)


# the default mesh (kd = 5, 2046 dofs) and an order-1 mesh of 8 elements per side (kd = 3, 30 dofs)
KERNEL_MESHES = {"default": (), "order1": ("mesh.order=1", "mesh.elements_per_side=8")}


def all_kernel_results(results):
    """``results(forms)`` on every mesh of KERNEL_MESHES, the keys prefixed by the mesh's name."""
    return {f"{mesh}.{key}": value for mesh, sets in KERNEL_MESHES.items()
            for key, value in results(default_forms(*sets)).items()}


def factor_cases(forms):
    """The bands factored here, as terms (c, M) of c_1 M_1 + c_2 M_2 + ...: J; E0,
    indefinite; the evolution step 2 J + dt E1 + (dt^2 / 2) E0 at dt = 5 and at dt = 20
    (evolve --xi 1 --dt 20: past 2 / lambda it is indefinite); and Q(s) = E0 + s E1 +
    s^2 J just below the rate, at lambda (1 - 1e-6), and at its definite end lambda."""
    E0, E1, J = forms.E0, forms.E1, forms.J
    hi = dispersion.growth_rate(forms.profile, forms.mesh, forms.xi).lam
    lo = hi * (1 - 1e-6)
    return {"J": [(1.0, J)], "E0": [(1.0, E0)],
            "step5": [(2.0, J), (5.0, E1), (12.5, E0)], "step20": [(2.0, J), (20.0, E1), (200.0, E0)],
            "Qlo": [(1.0, E0), (lo, E1), (lo**2, J)], "Qhi": [(1.0, E0), (hi, E1), (hi**2, J)]}


def lower_band(*terms):
    """LAPACK lower band storage of c_1 M_1 + c_2 M_2 + ..., summed in order from the top
    kd + 1 rows of the bands (upper storage) and moved row by row, A[j + d, j] = A[j, j + d],
    into a new array: no code shared with eigen._band, which reads the bottom rows."""
    (c, M), *rest = terms
    upper = c * M.data[:M.kd + 1]
    for c, M in rest:
        upper = upper + c * M.data[:M.kd + 1]
    kd, n = M.kd, upper.shape[1]
    lower = np.zeros_like(upper)
    for d in range(kd + 1):
        lower[d, :n - d] = upper[kd - d, d:]
    return lower


def kernel_results(lower, factor, solve, product, forms):
    """For each band of factor_cases, ``lower(terms)``, the (factor, info) of its lower
    storage, and, where ``factor(terms)`` gives a factor c, c and ``solve(c, b)``;
    and mat-vecs through ``product(mats, x)``, the bands ``mats`` stacked by rows; keyed
    by name."""
    E0, E1, J = forms.E0, forms.E1, forms.J
    b = np.linspace(-1.0, 1.0, forms.n)
    out = {}
    for name, terms in factor_cases(forms).items():
        out[name + "_lower"], out[name + "_info"] = lower(terms)
        c = factor(terms)
        if c is not None:
            out[name + "_chol"], out[name + "_solve"] = c, solve(c, b.copy())
    x = np.cos(np.arange(forms.n))
    mats = {"E0": [E0], "E1": [E1], "J": [J], "C": [forms.compression()], "stack": [J, E1, E0]}
    for name, M in mats.items():
        out[name + "_matvec"] = product(M, x)
    return out


def package_results(forms):
    """kernel_results of the package: ``_kernels.dpbtrf`` and eigen's factor and solve on
    eigen's lower bands, and the band type's own products."""
    return kernel_results(lambda terms: _kernels.dpbtrf(eigen._band(*terms)),
                          lambda terms: eigen._factor(eigen._band(*terms)), eigen._solve,
                          band_product, forms)


def scipy_results(forms):
    """kernel_results of scipy: ``scipy.linalg.lapack.dpbtrf(lower=1)`` on eigen's lower
    bands, its lower dpbtrf and dpbtrs on lower_band, and ``dia_matrix`` products."""
    from scipy.linalg import lapack

    def factor(terms):
        c, info = lapack.dpbtrf(lower_band(*terms), lower=1)
        return c if info == 0 else None

    return kernel_results(lambda terms: lapack.dpbtrf(eigen._band(*terms), lower=1), factor,
                          lambda c, b: lapack.dpbtrs(c, b, lower=1)[0],
                          lambda mats, x: dia_matrix(mats) @ x, forms)


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
    """package_results on every mesh of KERNEL_MESHES, saved to path."""
    results = all_kernel_results(package_results)
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
    # _kernels.dpbtrf's lower factors and infos are scipy's lower ones, failed
    # factorizations included; where scipy's factorization of lower_band succeeds,
    # and only there, eigen's factor and its solve are scipy's lower ones; and the
    # mat-vecs are dia_matrix's
    expected = all_kernel_results(scipy_results)
    assert sorted(loaded_results) == sorted(expected)
    for key, value in expected.items():
        assert np.array_equal(loaded_results[key], value), key
    cases = ("J", "E0", "step5", "step20", "Qlo", "Qhi")
    for mesh in KERNEL_MESHES:
        got = lambda key: loaded_results[f"{mesh}.{key}"]
        # the cases are the ones meant: definite, indefinite, the step integrate refuses,
        # and Q(s) failing just below the rate and factoring at it
        assert [got(name + "_info") == 0 for name in cases] == [True, False, True, False, False, True]
        assert [f"{mesh}.{name}_chol" in expected for name in cases] == [
            got(name + "_info") == 0 for name in cases]
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
    norms = [np.abs(D).sum(axis=1).max() for D in forms.dense()]
    assert forms.norms() == pytest.approx(norms, rel=1e-15)
    with pytest.raises(LayoutError):
        forms.J @ x[:-1]
    with pytest.raises(LayoutError):
        Band.stacked([forms.J, on_mesh(3 - order).J])


@pytest.mark.parametrize("a, b, c", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.3, 0.09),
                                     (1.0, -2.0, 7.5)])
def test_weighted_sum_matches_scipy(a, b, c):
    # eigen's band of a E0 + b E1 + c J, summed entry by entry as scipy sums
    # dia_matrix copies of the three forms, in lower band storage
    forms = default_forms()
    E0, E1, J = (dia_matrix([M]) for M in (forms.E0, forms.E1, forms.J))
    D = (a * E0 + b * E1 + c * J).toarray()
    lower = [np.concatenate([np.diagonal(D, -d), np.zeros(d)]) for d in range(forms.J.kd + 1)]
    assert np.array_equal(eigen._band((a, forms.E0), (b, forms.E1), (c, forms.J)), np.array(lower))


def test_band_solve_runs_in_place_on_float64_vectors_only():
    # dpbtrs has one form: it overwrites a contiguous, writeable float64 vector, and
    # anything it would have to copy or could not write is a ValueError
    forms = default_forms(*KERNEL_MESHES["order1"])
    c = eigen._factor(eigen._band((1.0, forms.J)))
    b = np.linspace(-1.0, 1.0, forms.n)
    x, info = _kernels.dpbtrs(c, b)
    assert x is b and info == 0 and np.abs(forms.J @ x - np.linspace(-1.0, 1.0, forms.n)).max() < 1e-12
    frozen = b.copy()
    frozen.flags.writeable = False
    for bad in (list(b), b.astype(np.float32), np.repeat(b, 2)[::2], frozen, b[:-1], b[None]):
        with pytest.raises(ValueError):
            _kernels.dpbtrs(c, bad)


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


def pipeline_results():
    """Rates, brackets, minimizers and trajectory ledgers of a sweep(n=8),
    lattice_modes(L=1), smallest_eig(s=0.1) and a 30-step integrate at 32 elements per
    side, flattened to named arrays.  Factorization counts are left out: they are
    bookkeeping, and the oracle's swapped factorization does not count itself."""
    config = load_config(None, ["mesh.elements_per_side=32"])
    profile, mesh = config.profile(), config.mesh()
    curve = dispersion.sweep(profile, mesh, *config.sweep_range(profile.xi_c), n=8)
    lattice = dispersion.lattice_modes(profile, mesh, 1.0)
    eig = eigen.smallest_eig(assemble(profile, mesh, 1.0), 0.1)
    mode = curve.argmax_mode
    traj = evolution.integrate(mode.forms, *evolution.mode_initial_data(mode),
                               0.1 / mode.lam, 3.0 / mode.lam)
    out = {"curve." + k: getattr(curve, k) for k in
           ("lam", "psi0", "residual", "Lambda", "bracket_rel_max")}
    modes = {"argmax": mode, **{f"lattice.{m!r}": r for m, r in lattice.modes.items()}}
    for name, r in modes.items():
        for k in ("lam", "bracket", "minimizer"):
            out[f"{name}.{k}"] = getattr(r, k)
    out["lattice.points"] = lattice.points
    out.update({"eig.mu": eig.mu, "eig.minimizer": eig.minimizer, "eig.residual": eig.residual})
    out.update({"traj." + k: getattr(traj, k) for k in (
        "kinetic", "potential", "dissipated_mid", "dissipated_trap", "norm1_sq", "norm2_sq",
        "norm1_dot_sq", "norm2_dot_sq", "states_u", "states_v")})
    return {k: np.asarray(v) for k, v in out.items()}


def test_lower_storage_lapack_reproduces_every_result(monkeypatch):
    # the independent oracle: every module's band builder, factor and solve swapped for
    # scipy's LAPACK (its own OpenBLAS) on lower band storage moved from sums of the
    # top rows (lower_band) moves no bit; the families (dispersion._q_factor, bottom_eig's factor_at) read the swapped names
    # at call time, so each module's own swap is the one that factors
    from scipy.linalg import lapack

    factored_in = set()

    def factor_in(module):
        def factor(ab):
            factored_in.add(module.__name__)
            c, info = lapack.dpbtrf(ab, lower=1)
            return c if info == 0 else None
        return factor

    package = pipeline_results()
    for module in (eigen, dispersion, evolution):
        swaps = {"_band": lower_band, "_factor": factor_in(module),
                 "_solve": lambda c, b: lapack.dpbtrs(c, b, lower=1)[0]}
        for name, oracle in swaps.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, oracle)
    oracle = pipeline_results()
    assert factored_in == {"rtmodes.eigen", "rtmodes.dispersion", "rtmodes.evolution"}
    assert sorted(oracle) == sorted(package) and len(package) > 20
    for key, value in oracle.items():
        assert np.array_equal(package[key], value), key
