"""Warm-started rates along sorted magnitudes against cold solves of the same magnitudes.

``sweep``, ``lattice_modes`` and ``NonperiodicField`` start each rate from the
ones solved before it (:func:`rtmodes.dispersion._rates_along`).  Every warm
bracket is certified as a cold one is, so both must give the same rates to the
resolution of the inertia test, the same Stable verdicts, and at most the cold
path's error when nothing factors below the cap, for fewer factorizations.
"""

import warnings

import pytest

from rtmodes import dispersion, eigen
from rtmodes.config import load_config
from rtmodes.dispersion import Stable, growth_rate, lattice_modes, sweep
from rtmodes.errors import SolverError
from rtmodes.synthesis import BumpProfile, NonperiodicField


def close(warm, cold):
    """Same verdict, and rates within 1e-9 lambda + 1e-12."""
    if isinstance(cold, Stable):
        return isinstance(warm, Stable)
    return not isinstance(warm, Stable) and abs(warm.lam - cold.lam) <= 1e-9 * cold.lam + 1e-12


def cold_rates(profile, mesh, magnitudes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return [growth_rate(profile, mesh, float(m)) for m in magnitudes]


def swept(*sets):
    """(profile, mesh, curve) of the configured sweep."""
    config = load_config(None, list(sets))
    profile, mesh = config.profile(), config.mesh()
    lo, hi = config.sweep_range(profile.xi_c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        curve = sweep(profile, mesh, lo, hi, n=config["sweep.n"])
    return profile, mesh, curve


def assert_sweep_matches_cold(profile, mesh, curve):
    """Every sample of ``curve`` (Stable ones at rate 0) agrees with a cold solve."""
    cold = cold_rates(profile, mesh, curve.xi)
    for xi, lam, c in zip(curve.xi, curve.lam, cold):
        assert (lam == 0.0) == isinstance(c, Stable), xi
        assert isinstance(c, Stable) or abs(lam - c.lam) <= 1e-9 * c.lam + 1e-12, xi


@pytest.fixture(scope="module")
def default_sweep():
    """(profile, mesh, curve, factorizations) of the default sweep."""
    eigen.counters.clear()
    return (*swept(), eigen.counters["factorizations"])


def test_default_sweep_matches_cold_rates(default_sweep):
    profile, mesh, curve, _ = default_sweep
    assert curve.stable_count == 0
    assert_sweep_matches_cold(profile, mesh, curve)


def test_default_sweep_factorizations_per_rate(default_sweep):
    # cold starts took 10.8 factorizations per rate here (531 over 49 solves)
    _, _, curve, factorizations = default_sweep
    solves = len(curve.xi) + (curve.fit_correction > 0)
    assert factorizations / solves <= 7.5


@pytest.mark.parametrize("sets", [["geometry.sigma=0"],
                                  ["viscosity.lower.eps=10", "viscosity.upper.eps=10"]],
                         ids=["sigma0", "eps10"])
def test_other_sweeps_match_cold_rates(sets):
    profile, mesh, curve = swept("mesh.elements_per_side=64", *sets)
    assert_sweep_matches_cold(profile, mesh, curve)


def test_lattice_and_radial_nodes_match_cold_rates():
    config = load_config()
    profile, mesh = config.profile(), config.mesh()
    lattice = lattice_modes(profile, mesh, 1.0)
    cold = cold_rates(profile, mesh, lattice.magnitudes)
    assert len(cold) >= 3
    assert all(close(lattice.modes.get(float(m), Stable(m, "")), c)
               for m, c in zip(lattice.magnitudes, cold))
    field = NonperiodicField(profile, mesh, BumpProfile.default(profile.xi_c), n_radial=8)
    assert all(close(w, c) for w, c in zip(field.modes, cold_rates(profile, mesh, field.r)))


def test_stable_verdicts_match_cold_on_a_coarse_order_one_mesh():
    # the discrete window of this mesh closes before xi_c, so its sweep has a
    # Stable sample just below xi_c, reached warm from the rate before it
    profile, mesh, curve = swept("mesh.order=1", "mesh.elements_per_side=8")
    assert curve.stable_count >= 1 and curve.lam[-1] == 0.0
    assert_sweep_matches_cold(profile, mesh, curve)


@pytest.fixture(scope="module")
def neighbours():
    """(profile, mesh, mode at |xi| = 1, cold mode at |xi| = 1.1) on a 32-element mesh."""
    config = load_config(None, ["mesh.elements_per_side=32"])
    profile, mesh = config.profile(), config.mesh()
    return profile, mesh, growth_rate(profile, mesh, 1.0), growth_rate(profile, mesh, 1.1)


@pytest.mark.parametrize("scale", [1e3, 1.0, 1e-3])
def test_poor_guesses_converge_to_the_cold_rate(neighbours, scale):
    profile, mesh, before, cold = neighbours
    warm = growth_rate(profile, mesh, 1.1, (scale * before.lam, before.minimizer))
    assert close(warm, cold)
    assert warm.bracket[0] <= warm.lam


def test_nothing_factoring_below_the_cap_is_a_solver_error(neighbours, monkeypatch):
    profile, mesh, before, _ = neighbours
    tried = []
    monkeypatch.setattr(dispersion, "_factor", lambda ab: tried.append(ab) and None)
    with pytest.raises(SolverError, match="not definite at s = 2 sqrt"):
        growth_rate(profile, mesh, 1.1, (before.lam, before.minimizer))
    # from lambda (1 + 1e-3) to the cap 2 sqrt(g |xi|) in fourfold steps: no search loop
    assert 1 < len(tried) <= 12
