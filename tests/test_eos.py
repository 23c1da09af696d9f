import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

import rtmodes as rt
from rtmodes.eos import _pchip_coefficients
from rtmodes.errors import DomainError, RangeError


def test_pressure_polytropic_values():
    assert rt.PressureLaw.polytropic(1, 1).pressure(1.0) == pytest.approx(1.0)
    assert rt.PressureLaw.polytropic(2, 1).pressure(3.0) == pytest.approx(6.0)
    # 8^(5/3) = 32
    assert rt.PressureLaw.polytropic(1, 5 / 3).pressure(8.0) == pytest.approx(32.0, rel=1e-14)


def test_pressure_domain_errors():
    law = rt.PressureLaw.polytropic(1, 1.4)
    with pytest.raises(DomainError):
        law.pressure(0.0)
    with pytest.raises(DomainError):
        law.pressure(-1.0)


def test_enthalpy_closed_forms():
    assert rt.PressureLaw.polytropic(1, 1).enthalpy(1.0) == pytest.approx(0.0, abs=1e-15)
    # K ln(rho): 2 ln(e) = 2
    assert rt.PressureLaw.polytropic(2, 1).enthalpy(math.e) == pytest.approx(2.0, rel=1e-14)
    # K gamma/(gamma-1) (rho^{gamma-1} - 1): 2 (3 - 1) = 4
    assert rt.PressureLaw.polytropic(1, 2).enthalpy(3.0) == pytest.approx(4.0, rel=1e-14)


def test_enthalpy_inverse_values():
    assert rt.PressureLaw.polytropic(1, 1).enthalpy_inverse(0.0) == pytest.approx(1.0)
    assert rt.PressureLaw.polytropic(2, 1).enthalpy_inverse(2.0) == pytest.approx(math.e, rel=1e-13)
    # gamma = 2: image of h is (-2, inf); h = -2 is the vacuum boundary
    with pytest.raises(RangeError):
        rt.PressureLaw.polytropic(1, 2).enthalpy_inverse(-2.0)


@pytest.mark.parametrize("K,gamma", [(1.0, 1.0), (2.0, 1.0), (1.0, 5 / 3), (0.7, 2.4)])
def test_enthalpy_roundtrip(K, gamma):
    law = rt.PressureLaw.polytropic(K, gamma)
    for rho in np.geomspace(0.1, 10.0, 23):
        back = law.enthalpy_inverse(law.enthalpy(rho))
        assert abs(back - rho) <= 1e-10 * rho


@given(
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(0.2, 5.0),
    st.floats(1.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_enthalpy_strictly_increasing(r1, r2, K, gamma):
    law = rt.PressureLaw.polytropic(K, gamma)
    lo, hi = sorted((r1, r2))
    if hi - lo > 1e-9:
        assert law.enthalpy(lo) < law.enthalpy(hi)


def test_enthalpy_near_isothermal():
    # gamma - 1 = 2^-52: rho^(gamma-1) - 1 rounds to the same value at rho = 2 and 3
    law = rt.PressureLaw.polytropic(1.0, 1.0 + 2.0**-52)
    assert law.enthalpy(2.0) < law.enthalpy(3.0)
    assert law.enthalpy(3.0) == pytest.approx(math.log(3.0), rel=1e-12)
    assert law.enthalpy_inverse(law.enthalpy(3.0)) == pytest.approx(3.0, rel=1e-12)


def test_admissible_isothermal():
    k2 = rt.PressureLaw.polytropic(2, 1)
    k1 = rt.PressureLaw.polytropic(1, 1)
    assert rt.admissible(k2, k1, 1.0)       # K- > K+ suffices for equal gamma
    assert not rt.admissible(k1, k2, 1.0)


def test_admissible_needs_the_lower_pressure_in_the_upper_image():
    # the upper table spans P in [0.5, 1.5]: P_-(1) = 2 lies outside it, so no rho+
    # matches the interface pressure, while P_-(1) = 1.2 > P_+(1) = 1 does
    rho = np.linspace(0.5, 1.5, 6)
    upper = rt.PressureLaw.tabulated(rho, rho)
    assert not rt.admissible(rt.PressureLaw.polytropic(2, 1), upper, 1.0)
    assert rt.admissible(rt.PressureLaw.polytropic(1.2, 1), upper, 1.0)


def test_laws_print_their_parameters():
    assert repr(rt.PressureLaw.polytropic(2, 1.4)) == "PressureLaw.polytropic(K=2.0, gamma=1.4)"
    law = rt.PressureLaw.tabulated([0.5, 1.0, 2.0], [1.0, 2.0, 4.0])
    assert repr(law) == "PressureLaw.tabulated(<0.5..2.0>)"


def test_admissible_unequal_gamma():
    # gamma- = 2 > gamma+ = 1, K = 1 both: admissible iff rho > (K+/K-)^{1/(g- - g+)} = 1
    lower = rt.PressureLaw.polytropic(1, 2)
    upper = rt.PressureLaw.polytropic(1, 1)
    assert rt.admissible(lower, upper, 2.0)
    assert not rt.admissible(lower, upper, 0.5)


@pytest.mark.parametrize("Km,Kp,gm,gp", [(2, 1, 1, 1), (1, 1, 2, 1), (1, 2, 1, 3), (3, 2, 1.4, 1.4)])
def test_admissible_matches_polytropic_inequalities(Km, Kp, gm, gp):
    lower = rt.PressureLaw.polytropic(Km, gm)
    upper = rt.PressureLaw.polytropic(Kp, gp)
    for rho in np.geomspace(0.2, 5.0, 17):
        explicit = Km * rho**gm > Kp * rho**gp   # P_- > P_+; image of P_+ is (0, inf)
        assert rt.admissible(lower, upper, rho) == explicit


@pytest.fixture(scope="module")
def pair():
    rho = np.geomspace(0.05, 20.0, 400)
    poly = rt.PressureLaw.polytropic(1.3, 1.4)
    tab = rt.PressureLaw.tabulated(rho, poly.pressure(rho))
    return poly, tab


@pytest.fixture(scope="module")
def jittered():
    """A 40-sample gamma = 1.4 table with interior samples moved up to 40% of a log-step."""
    rng = np.random.default_rng(7)
    logs = np.linspace(np.log(0.05), np.log(20.0), 40)
    step = logs[1] - logs[0]
    logs[1:-1] += rng.uniform(-0.4, 0.4, 38) * step
    rho = np.exp(logs)
    return rt.PressureLaw.tabulated(rho, 1.3 * rho**1.4)


def knot_split_enthalpy(law, rho):
    """int_1^rho P'(r)/r dr by adaptive quadrature, one interval per PCHIP piece."""
    dp = law.dpressure
    lo, hi = sorted((1.0, rho))
    pts = [lo, *(x for x in law._x if lo < x < hi), hi]
    total = sum(quad(lambda r: dp(r) / r, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(pts[:-1], pts[1:]))
    return total if rho >= 1.0 else -total


def _oracle_tables():
    """(rho, P) tables: jittered, 2-sample, and two whose end slopes hit the clamps."""
    rng = np.random.default_rng(11)
    tables = []
    for n in (3, 4, 17, 40):
        logs = np.linspace(np.log(0.05), np.log(20.0), n)
        logs[1:-1] += rng.uniform(-0.4, 0.4, n - 2) * (logs[1] - logs[0])
        rho = np.exp(logs)
        tables.append((rho, rng.uniform(0.5, 2.0) * rho ** rng.uniform(1.0, 2.0)))
    tables.append((np.array([0.3, 4.0]), np.array([0.2, 5.0])))
    # first secant 0.1 then 10: the three-point end slope is negative, clamped to 0
    tables.append((np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.1, 11.1, 12.0])))
    # secants 1 then -4: the end slope 3.5 exceeds 3 m0 and is clamped to 3
    tables.append((np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -3.0])))
    return tables


@pytest.mark.parametrize("rho, P", _oracle_tables())
def test_pchip_matches_scipy_bit_for_bit(rho, P):
    ref = PchipInterpolator(rho, P)
    c = _pchip_coefficients(rho, P)
    assert np.array_equal(c, ref.c)
    pts = np.concatenate([rho, np.linspace(rho[0], rho[-1], 997)])
    law = SimpleNamespace(_x=rho, _c=c)
    for nu in (0, 1, 2):
        assert np.array_equal(rt.PressureLaw._cubic(law, pts, nu), ref.derivative(nu)(pts))
    if np.all(np.diff(P) > 0) and ref.derivative()(pts).min() > 0:
        law = rt.PressureLaw.tabulated(rho, P)
        for nu, f in enumerate((law.pressure, law.dpressure, law.d2pressure)):
            assert np.array_equal(f(pts), ref.derivative(nu)(pts))
            assert f(float(pts[5])) == float(ref.derivative(nu)(pts[5]))


class TestTabulated:
    def test_matches_polytropic(self, pair):
        poly, tab = pair
        for rho in (0.1, 0.7, 1.0, 3.3, 9.0):
            assert tab.pressure(rho) == pytest.approx(poly.pressure(rho), rel=1e-6)
            assert tab.dpressure(rho) == pytest.approx(poly.dpressure(rho), rel=1e-4)
            assert tab.enthalpy(rho) == pytest.approx(poly.enthalpy(rho), rel=1e-5, abs=1e-8)

    def test_inverse_consistency(self, pair):
        _, tab = pair
        for rho in (0.1, 1.0, 5.0):
            h = tab.enthalpy(rho)
            back = tab.enthalpy_inverse(h)
            assert abs(tab.enthalpy(back) - h) <= 1e-11 * (1 + abs(h))

    def test_closed_form_enthalpy_matches_knot_split_quadrature(self, jittered):
        rho = np.clip(np.geomspace(0.05, 20.0, 61), jittered.rho_min, jittered.rho_max)
        h = jittered.enthalpy(rho)
        ref = np.array([knot_split_enthalpy(jittered, r) for r in rho])
        assert np.all(np.abs(h - ref) <= 1e-12 * (1 + np.abs(ref)))
        assert abs(jittered.enthalpy(1.0)) <= 1e-15

    def test_vectorized_inverse_roundtrip(self, jittered):
        lo, hi = jittered.enthalpy_range()
        h = np.linspace(lo, hi, 1203)[1:-1]
        rho = jittered.enthalpy_inverse_vec(h)
        assert np.all(np.diff(rho) > 0)
        assert np.all(np.abs(jittered.enthalpy(rho) - h) <= 1e-11 * (1 + np.abs(h)))
        knots = jittered._x[1:-1]     # inversions landing exactly on knots
        assert jittered.enthalpy_inverse_vec(jittered.enthalpy(knots)) == pytest.approx(knots, rel=1e-14)
        assert jittered.enthalpy_inverse(h[500]) == rho[500]
        for outside in (lo - 1e-9 * (1 + abs(lo)), hi + 1e-9 * (1 + abs(hi))):
            with pytest.raises(RangeError):
                jittered.enthalpy_inverse_vec(np.array([h[0], outside]))
            with pytest.raises(RangeError):
                jittered.enthalpy_inverse(outside)

    def test_pressure_inverse_roundtrip(self, jittered):
        for r in (jittered.rho_min, 0.0512, 1.0, 3.3, jittered.rho_max):
            assert jittered.pressure_inverse(jittered.pressure(r)) == pytest.approx(r, rel=1e-14)
        with pytest.raises(RangeError):
            jittered.pressure_inverse(2.0 * jittered.pressure(jittered.rho_max))

    def test_working_range_enforced(self, pair):
        _, tab = pair
        with pytest.raises(DomainError):
            tab.pressure(0.01)
        with pytest.raises(DomainError):
            tab.pressure(40.0)
        with pytest.raises(RangeError):
            tab.enthalpy_inverse(1e9)

    def test_monotone_derivative_positive(self, pair):
        _, tab = pair
        xs = np.geomspace(tab.rho_min, tab.rho_max, 1000)
        assert np.all(tab.dpressure(xs) > 0)

    def test_rejects_nonmonotone_samples(self):
        with pytest.raises(DomainError):
            rt.PressureLaw.tabulated([1.0, 2.0, 1.5], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            rt.PressureLaw.tabulated([1.0, 2.0, 3.0], [1.0, 1.0, 3.0])

    @pytest.mark.parametrize("column", ["rho", "P"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_samples(self, column, bad):
        # a nan passes every ordering and sign check, so it is refused on its own
        samples = {"rho": [1.0, 2.0, 3.0], "P": [1.0, 2.0, 3.0]}
        samples[column][-1] = bad
        with pytest.raises(DomainError, match="finite"):
            rt.PressureLaw.tabulated(samples["rho"], samples["P"])

    def test_rejects_a_vanishing_slope(self):
        # strictly increasing samples whose PCHIP slope collapses at the middle knot
        # (a rise of 1e-14 beside one of 1) fall below the derivative floor
        with pytest.raises(DomainError, match="vanishing dP/drho"):
            rt.PressureLaw.tabulated([1.0, 2.0, 3.0], [1.0, 1.0 + 1e-14, 2.0])

    def test_law_does_not_alias_its_samples(self):
        rho = np.linspace(0.5, 4.0, 8)
        law = rt.PressureLaw.tabulated(rho, 2.0 * rho)
        rho *= 2.0
        assert law.pressure(2.0) == 4.0
