import math

import numpy as np
import pytest

import rtmodes as rt
from rtmodes.errors import ConfigurationError, DomainError, VacuumError

from conftest import make_profile


def test_isothermal_closed_form(profile):
    # rho0 = rho^- exp(-g x3/K-) below, rho^+ exp(-g x3/K+) above
    assert profile.rho_plus == pytest.approx(2.0, rel=1e-13)
    xs = np.linspace(-0.95, -0.05, 11)
    assert profile.density(xs) == pytest.approx(np.exp(-xs / 2.0), rel=1e-11)
    xs = np.linspace(0.05, 0.95, 11)
    assert profile.density(xs) == pytest.approx(2.0 * np.exp(-xs), rel=1e-11)


def test_jump_and_critical_frequency(profile):
    assert profile.rho_jump == pytest.approx(1.0, rel=1e-13)
    assert profile.xi_c == pytest.approx(math.sqrt(10.0), rel=1e-13)


def test_sigma_zero_has_infinite_cutoff(profile_sigma0):
    assert math.isinf(profile_sigma0.xi_c)


def test_vacuum_error_on_upper_side():
    # upper polytrope gamma=2, K=1 with rho+ = 1: vacuum at ell = K gamma/(g(gamma-1)) = 2
    lower = rt.PressureLaw.polytropic(2, 2)   # P_-(1/sqrt2) = 1 = P_+(1)
    upper = rt.PressureLaw.polytropic(1, 2)
    rho_minus = 1 / math.sqrt(2)
    ok = rt.build_profile(lower, upper, rho_minus, rt.SlabGeometry(m=1, ell=1, g=1))
    assert ok.rho_plus == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(VacuumError) as err:
        rt.build_profile(lower, upper, rho_minus, rt.SlabGeometry(m=1, ell=3, g=1))
    assert err.value.side == "upper"


def test_vacuum_error_on_lower_side():
    # a tabulated lower law ends at its last sample: K = 2 gives h = 2 ln rho, so
    # h(rho-) + g m = m must stay below h(4) = 2 ln 4, and a depth m = 10 leaves the table
    rho = np.linspace(0.5, 4.0, 8)
    lower = rt.PressureLaw.tabulated(rho, 2.0 * rho)
    upper = rt.PressureLaw.polytropic(1, 1)
    ok = rt.build_profile(lower, upper, 1.0, rt.SlabGeometry(m=1, ell=1, g=1))
    assert ok.rho_plus == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(VacuumError) as err:
        rt.build_profile(lower, upper, 1.0, rt.SlabGeometry(m=10, ell=1, g=1))
    assert err.value.side == "lower" and "lower enthalpy range" in str(err.value)


def test_inadmissible_density_rejected():
    k1 = rt.PressureLaw.polytropic(1, 1)
    k2 = rt.PressureLaw.polytropic(2, 1)
    with pytest.raises(ConfigurationError):
        rt.build_profile(k1, k2, 1.0, rt.SlabGeometry(m=1, ell=1, g=1))


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        rt.SlabGeometry(m=1, ell=1, g=0.0)
    with pytest.raises(ConfigurationError):
        rt.SlabGeometry(m=1, ell=1, g=-1.0)
    with pytest.raises(ConfigurationError):
        rt.SlabGeometry(m=0, ell=1, g=1)
    with pytest.raises(ConfigurationError):
        rt.SlabGeometry(m=1, ell=1, g=1, sigma=-0.1)


def test_hydrostatic_residual_and_order(profile):
    r1 = rt.verify_hydrostatic(profile, h_fd=1e-4)
    assert r1 <= 1e-6
    r2 = rt.verify_hydrostatic(profile, h_fd=5e-5)
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_density_strictly_decreasing(profile):
    for side, a, b in ((-1, -1.0, 0.0), (+1, 0.0, 1.0)):
        xs = np.linspace(a + 1e-6, b - 1e-6, 50)
        rho = profile.density(xs, side=side)
        assert np.all(np.diff(rho) < 0)


def test_interface_pressure_continuity():
    for Km, Kp, gm, gp, rho in [(2, 1, 1, 1, 1.0), (2, 1, 1.4, 1.4, 0.8), (1, 1, 2, 1.2, 1.6)]:
        prof = rt.build_profile(
            rt.PressureLaw.polytropic(Km, gm), rt.PressureLaw.polytropic(Kp, gp),
            rho, rt.SlabGeometry(m=0.5, ell=0.4, g=1.0),
        )
        p_lo = prof.fields(np.array([0.0]), side=-1)["P"][0]
        p_hi = prof.fields(np.array([0.0]), side=+1)["P"][0]
        assert abs(p_hi - p_lo) <= 1e-10 * p_lo


def test_cutoff_monotone_in_sigma_and_jump():
    sigmas = [0.05, 0.1, 0.2, 0.5]
    cuts = [make_profile(sigma=s).xi_c for s in sigmas]
    assert np.all(np.diff(cuts) < 0)
    jumps = [2.5, 3.0, 4.0]
    cuts = [make_profile(K_lower=k).xi_c for k in jumps]   # larger K- -> larger rho+
    assert np.all(np.diff(cuts) > 0)


def test_eps0_prime_matches_finite_differences():
    visc = (
        rt.FluidViscosity(rt.ViscosityLaw(0.2, p=1.5), rt.ViscosityLaw(0.05, p=1.0)),
        rt.FluidViscosity(rt.ViscosityLaw(0.3, p=0.5), rt.ViscosityLaw(0.0)),
    )
    prof = rt.build_profile(
        rt.PressureLaw.polytropic(2, 1), rt.PressureLaw.polytropic(1, 1),
        1.0, rt.SlabGeometry(m=1, ell=1, g=1), visc,
    )
    h = 1e-6
    for side, x in ((-1, -0.4), (+1, 0.6)):
        f, up, down = (prof.fields(y, side=side) for y in (x, x + h, x - h))
        fd = lambda name: (up[name] - down[name]) / (2 * h)
        assert f["eps_prime"] == pytest.approx(fd("eps"), rel=1e-7)
        assert f["delta_prime"] == pytest.approx(fd("delta"), rel=1e-6, abs=1e-12)
        assert f["pr_prime"] == pytest.approx(fd("pr"), rel=1e-7)


def test_fields_match_pointwise_evaluators():
    visc = (
        rt.FluidViscosity(rt.ViscosityLaw(0.2, p=1.5), rt.ViscosityLaw(0.05, p=1.0)),
        rt.FluidViscosity(rt.ViscosityLaw(0.3, p=0.5), rt.ViscosityLaw(0.02)),
    )
    prof = rt.build_profile(
        rt.PressureLaw.polytropic(2, 1.4), rt.PressureLaw.polytropic(1, 1.2),
        1.0, rt.SlabGeometry(m=1, ell=1, g=1), visc,
    )
    xs = np.array([-0.9, -0.31, -1e-3, 2e-3, 0.4, 0.97])
    f = prof.fields(xs)                       # both sides in one call
    pointwise = [prof.fields(x, side=1 if x > 0 else -1) for x in xs]
    for name in f:
        assert all(isinstance(p[name], float) for p in pointwise)
        assert f[name] == pytest.approx([p[name] for p in pointwise], rel=1e-15, abs=0.0), name
    # closed forms of the polytropes K rho^gamma and of the viscosity laws
    rho = prof.density(xs)
    lower = xs < 0
    K, gamma = np.where(lower, 2.0, 1.0), np.where(lower, 1.4, 1.2)
    dp = K * gamma * rho ** (gamma - 1)
    assert f["rho"] == pytest.approx(rho, rel=1e-15)
    assert f["P"] == pytest.approx(K * rho**gamma, rel=1e-14)
    assert f["dp"] == pytest.approx(dp, rel=1e-14)
    assert f["rho_prime"] == pytest.approx(-rho / dp, rel=1e-14)
    assert f["eps"] == pytest.approx(np.where(lower, 0.2 * rho**1.5, 0.3 * rho**0.5), rel=1e-14)
    assert f["delta"] == pytest.approx(np.where(lower, 0.05 * rho, 0.02), rel=1e-14)
    assert f["gop"] == pytest.approx(1.0 / f["dp"], rel=1e-15)
    assert prof.fields(0.0, side=-1)["rho"] == pytest.approx(prof.rho_minus, rel=1e-14)
    assert prof.fields(0.0, side=+1)["rho"] == pytest.approx(prof.rho_plus, rel=1e-14)


def test_interface_needs_side(profile):
    with pytest.raises(DomainError):
        profile.density(0.0)
    lo = profile.density(0.0, side=-1)
    hi = profile.density(0.0, side=+1)
    assert hi - lo == pytest.approx(profile.rho_jump, rel=1e-13)


def test_outside_slab_rejected(profile):
    with pytest.raises(DomainError):
        profile.density(1.5)


def test_by_side_splits_at_the_interface(profile):
    x3 = np.array([0.25, -0.75, 0.0, -1e-15, 1.0])
    calls = []

    def evaluate(x, side):
        calls.append((side, x.copy()))
        return np.stack([np.full_like(x, side), profile.density(x, side=side)], axis=-1)

    out = rt.profile.by_side(x3, evaluate)
    assert [side for side, _ in calls] == [-1, +1]
    assert np.array_equal(calls[0][1], [-0.75, -1e-15])
    assert np.array_equal(calls[1][1], [0.25, 0.0, 1.0])
    assert out.shape == (5, 2)
    assert np.array_equal(out[:, 0], [1, -1, 1, -1, 1])
    assert out[2, 1] == profile.density(0.0, side=+1)    # x3 = 0 belongs to the upper fluid
    one_sided = rt.profile.by_side(np.array([0.5, 0.75]), lambda x, side: x * side)
    assert np.array_equal(one_sided, [0.5, 0.75])


def _power_viscosity():
    return (
        rt.FluidViscosity(rt.ViscosityLaw(0.2, p=1.5), rt.ViscosityLaw(0.05, p=1.0)),
        rt.FluidViscosity(rt.ViscosityLaw(0.3, p=0.5), rt.ViscosityLaw(0.02)),
    )


def _coarse_tabulated_laws():
    rho = np.geomspace(0.05, 20.0, 12)      # coarse: Newton needs several steps
    return rt.PressureLaw.tabulated(rho, 2.0 * rho**2), rt.PressureLaw.tabulated(rho, rho**1.2)


@pytest.mark.parametrize("kind", ["polytropic", "tabulated"])
def test_fields_side_split_matches_per_side_calls(kind):
    geom = rt.SlabGeometry(m=1, ell=1, g=1, sigma=0.1)
    if kind == "polytropic":
        lower, upper = rt.PressureLaw.polytropic(2, 1.4), rt.PressureLaw.polytropic(1, 1.2)
    else:
        lower, upper = _coarse_tabulated_laws()
    prof = rt.build_profile(lower, upper, 1.0, geom, _power_viscosity())
    x = np.random.default_rng(5).uniform(-1.0, 1.0, 41)
    f = prof.fields(x)
    lo, hi = prof.fields(x[x < 0], -1), prof.fields(x[x > 0], +1)
    for name in f:
        assert np.array_equal(f[name][x < 0], lo[name]), name     # bit for bit
        assert np.array_equal(f[name][x > 0], hi[name]), name
    with pytest.raises(DomainError):
        prof.fields(0.0)
    with pytest.raises(DomainError):
        prof.fields(np.array([-0.5, 0.0, 0.5]))


def test_density_jump_rounded_to_zero_is_a_configuration_error():
    # P-(1) exceeds P+(1) by 2 ulp, but rho+ = (1 + 2 eps)^(1/5) rounds to rho- = 1
    lower = rt.PressureLaw.polytropic(1.0 + 2 * np.finfo(float).eps, 1.0)
    geom = rt.SlabGeometry(m=1, ell=1, g=1, sigma=0.1)
    with pytest.raises(ConfigurationError, match="density jump"):
        rt.build_profile(lower, rt.PressureLaw.polytropic(1.0, 5.0), 1.0, geom)


def test_tabulated_density_is_independent_of_its_batch():
    # each point's Newton iteration stops at its own convergence, not the slowest point's
    geom = rt.SlabGeometry(m=1, ell=1, g=1, sigma=0.1)
    prof = rt.build_profile(*_coarse_tabulated_laws(), 1.0, geom, _power_viscosity())
    x = np.random.default_rng(5).uniform(-1.0, 1.0, 41)
    assert np.array_equal(prof.density(x), [prof.density(v) for v in x])     # bit for bit


def test_viscosity_law_exponent_zero_is_the_constant_law():
    rho = np.geomspace(0.01, 100.0, 9)
    law = rt.ViscosityLaw(0.1)
    assert np.array_equal(law(rho), np.full_like(rho, 0.1))
    assert np.array_equal(law.derivative(rho), np.zeros_like(rho))
    assert law(2.0) == 0.1 and isinstance(law(2.0), float)
    assert repr(law) == "ViscosityLaw(0.1, p=0.0)"
    power = rt.ViscosityLaw(0.1, p=2.0)
    assert power(rho) == pytest.approx(0.1 * rho**2, rel=1e-15)
    assert power.derivative(rho) == pytest.approx(0.2 * rho, rel=1e-15)
    assert repr(power) == "ViscosityLaw(0.1, p=2.0)"
