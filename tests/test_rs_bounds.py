"""Tests for the Riemann-Siegel-route constants and the affine bound."""

import cmath
import math

import numpy as np
import pytest

from zetabound import (
    AFFINE_INTERCEPT,
    GAMMA_MINUS_HALF_LOG_2PI,
    TABLE_T0,
    affine_C,
    b0,
    b1,
    c0,
    c1,
    c_sigma,
    chi_upper,
    ck_contour,
    computed_constants,
    kappa2,
    optimal_bound_params,
    theta,
)
from zetabound.rs_bounds import _GL_PANELS, _Y_CUT, _c0_closed, _h_body, _h_integrand


class TestChiUpper:
    def test_t10(self):
        assert chi_upper(10.0) == pytest.approx(0.800168963225159, rel=1e-12)

    def test_t1(self):
        # sqrt(2 pi) exp(pi/32 - 1/24 + 5/24) / (1 - e^(-pi)), frozen
        assert chi_upper(1.0) == pytest.approx(3.414241680478349, rel=1e-12)

    def test_asymptote(self):
        for t in (1e4, 1e6, 1e8):
            assert chi_upper(t) * math.sqrt(t / (2.0 * math.pi)) == pytest.approx(
                1.0, abs=1e-4
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            chi_upper(0.0)

    @pytest.mark.parametrize("t", [0.1, 1e-78, 1e-300])
    def test_inf_where_the_exponent_leaves_the_float_range(self, t):
        # 5/(24 t^4) overflows exp below t ~ 0.13, and t^4 underflows to 0
        # from t = 1e-78 down: inf is still an upper bound, not a float error
        assert chi_upper(t) == kappa2(t) == theta(t) == math.inf

    def test_values_from_t1_unchanged(self):
        # the bits these gave before small t returned inf
        for t, bits in [
            (1.0, ("0x1.b505df1325b53p+1", "0x1.340ddc58574dap+3", "0x1.afda5ce2a055ap+3")),
            (17.7477, ("0x1.324a9470418a4p-1", "0x1.683296e055677p-1", "0x1.26e72b5cfbb75p+1")),
            (1e6, ("0x1.488c7f0a170c3p-9", "0x1.48a3f54ce5136p-9", "0x1.014899dec52d8p+0")),
            (1e300, ("0x1.0690c7ea1cf12p-497", "0x1.0690c7ea1cf12p-497", "0x1.0000000000000p+0")),
        ]:
            assert tuple(f(t).hex() for f in (chi_upper, kappa2, theta)) == bits

class TestC0:
    def test_endpoint(self):
        expected = -0.5 * cmath.exp(7j * math.pi / 8.0)
        assert c0(1.0) == pytest.approx(expected, abs=1e-14)
        assert abs(c0(1.0)) == pytest.approx(0.5, abs=1e-14)

    def test_origin(self):
        expected = 0.5 * (cmath.exp(3j * math.pi / 8.0) - 1j * math.sqrt(2.0))
        assert c0(0.0) == pytest.approx(expected, abs=1e-14)
        assert abs(c0(0.0)) == pytest.approx(0.31099600891621065, abs=1e-12)

    def test_removable_singularity_continuity(self):
        # the series branch must agree with the raw quotient evaluated at the
        # same point to 1e-5 (it does far better); the function itself moves
        # by |C0'(1/2)| * 1e-4 ~ 2.5e-5 over the probe step
        centre = c0(0.5)
        for p in (0.5 + 1e-4, 0.5 - 1e-4, -0.5 + 1e-4, -0.5 - 1e-4):
            assert abs(c0(p) - _c0_closed(p)) < 1e-5
            assert abs(c0(p) - _c0_closed(p)) < 1e-10
            assert abs(c0(abs(p)) - centre) < 5e-5

    def test_evenness(self):
        rng = np.random.default_rng(42)
        for p in rng.uniform(0.0, 1.0, 100):
            assert abs(c0(float(p)) - c0(-float(p))) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            c0(1.0001)
        with pytest.raises(ValueError):
            c0(np.array([0.0, -1.0001]))

    def test_array_matches_float_calls(self):
        ps = np.concatenate([np.linspace(-1.0, 1.0, 997), np.arange(-12, 13) / 12.0])
        expected = np.array([c0(float(p)) for p in ps])
        assert c0(ps).tobytes() == expected.tobytes()
        assert c0(ps.reshape(2, -1)).shape == (2, ps.size // 2)
        assert type(c0(0.3)) is complex


class TestC1:
    def test_endpoint_moduli(self):
        assert abs(c1(1.0, 0)) == pytest.approx(0.0173, abs=1e-4)
        assert abs(c1(1.0, 1)) == pytest.approx(0.0932, abs=1e-4)

    def test_odd_at_zero(self):
        assert c1(0.0, 0) == 0j
        assert c1(0.0, 1) == 0j

    def test_oddness(self):
        rng = np.random.default_rng(43)
        for p in rng.uniform(0.0, 1.0, 100):
            for sigma in (0, 1):
                assert abs(c1(float(p), sigma) + c1(-float(p), sigma)) < 1e-12

    def test_array_matches_float_calls(self):
        ps = np.concatenate([np.linspace(-1.0, 1.0, 997), np.arange(-12, 13) / 12.0])
        for sigma in (0, 1):
            expected = np.array([c1(float(p), sigma) for p in ps])
            assert c1(ps, sigma).tobytes() == expected.tobytes()
        assert type(c1(0.3, 1)) is complex

    def test_continuity_at_half(self):
        for sigma in (0, 1):
            centre = c1(0.5, sigma)
            for p in (0.5 + 1e-4, 0.5 - 1e-4):
                assert abs(centre - c1(p, sigma)) < 1e-5


class TestDerivativeValidation:
    def test_first_derivative_against_finite_differences(self):
        # 4th-order central stencil at step 1e-5; noise level eps/h ~ 1e-11
        h = 1e-5
        for p in (0.1, 0.3, 0.77):
            fd = (
                -_c0_closed(p + 2 * h)
                + 8.0 * _c0_closed(p + h)
                - 8.0 * _c0_closed(p - h)
                + _c0_closed(p - 2 * h)
            ) / (12.0 * h)
            # recover C0' from c1 at two sigmas: c1(p,0) - c1(p,1) = C0'/(2 i pi)
            d1 = (c1(p, 0) - c1(p, 1)) * 2j * math.pi
            assert abs(d1 - fd) < 1e-6

    def test_third_derivative_against_finite_differences(self):
        # third derivatives need a wider step: at h = 1e-5 the eps/h^3 noise
        # would be O(0.1), so use h = 5e-3 where the 4th-order stencil is
        # accurate to ~1e-8
        h = 5e-3
        for p in (0.1, 0.3, 0.77):
            fd = (
                _c0_closed(p - 3 * h)
                - 8.0 * _c0_closed(p - 2 * h)
                + 13.0 * _c0_closed(p - h)
                - 13.0 * _c0_closed(p + h)
                + 8.0 * _c0_closed(p + 2 * h)
                - _c0_closed(p + 3 * h)
            ) / (8.0 * h**3)
            # c1(p,s) = C0'''/(12 pi^2) + (1-2s) C0'/(4 i pi): eliminate C0'
            d1 = (c1(p, 0) - c1(p, 1)) * 2j * math.pi
            d3 = (c1(p, 0) - d1 / (4j * math.pi)) * 12.0 * math.pi**2
            assert abs(d3 - fd) < 1e-6


class TestContourOracle:
    def test_c0_agreement(self):
        for p in (-1.0, -0.5, 0.0, 0.3, 0.5, 0.999, 1.0):
            assert abs(ck_contour(p, 0) - c0(p)) < 1e-6

    def test_c1_agreement(self):
        for p, sigma in ((0.3, 1), (1.0, 0), (1.0, 1), (-0.7, 0), (0.5, 1)):
            assert abs(ck_contour(p, 1, sigma) - c1(p, sigma)) < 1e-6

    def test_agreement_across_the_series_switch(self):
        # dense sweep through p = +-1/2, where a series about p itself
        # would divide by 2 cos(pi p) ~ 0 and lose up to 1e-6 in c1, plus
        # the midpoints (j + 1/2)/6 between table centres, the farthest
        # any point lies from its centre
        side = np.concatenate([np.linspace(0.44, 0.56, 241), (np.arange(6) + 0.5) / 6.0])
        for p in np.concatenate([side, -side]):
            p = float(p)
            assert abs(c0(p) - ck_contour(p, 0)) < 1e-10
            for sigma in (0, 1):
                assert abs(c1(p, sigma) - ck_contour(p, 1, sigma)) < 1e-10

    def test_odd_integrand_vanishes(self):
        assert abs(ck_contour(0.0, 1, 0)) < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            ck_contour(1.5, 0)
        with pytest.raises(ValueError):
            ck_contour(0.5, 2)


class TestMaxima:
    def test_b0(self):
        assert abs(b0() - 0.5) < 1e-9

    def test_b1_values(self):
        assert b1(0) == pytest.approx(0.0173, abs=1e-4)
        assert b1(1) == pytest.approx(0.0932, abs=1e-4)

    def test_maxima_at_endpoint(self):
        assert b0() == abs(c0(1.0))
        for sigma in (0, 1):
            assert b1(sigma) == abs(c1(1.0, sigma))

    def test_b1_domain(self):
        with pytest.raises(ValueError):
            b1(2)

    def test_moduli_nondecreasing_on_unit_interval(self):
        ps = np.linspace(0.0, 1.0, 1001)
        for f in (
            lambda p: abs(c0(p)),
            lambda p: abs(c1(p, 0)),
            lambda p: abs(c1(p, 1)),
        ):
            vals = np.array([f(float(p)) for p in ps])
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals.argmax() == len(ps) - 1


class TestRemainderConstant:
    def test_sigma0_range(self):
        val = c_sigma(0)
        assert 0.96 <= val <= 0.9709
        assert val <= 0.9704 + 0.0005  # never exceed the stated bound by more

    def test_sigma1_range(self):
        val = c_sigma(1)
        assert 1.035 <= val <= 1.0455
        assert val <= 1.0450 + 0.0005

    def test_parent_values(self):
        # the adaptive quadrature these numpy rules replaced gave these
        assert c_sigma(0) == pytest.approx(0.9703983486963415, abs=1e-12)
        assert c_sigma(1) == pytest.approx(1.0450238022489597, abs=1e-12)

    def test_array_matches_float_calls(self):
        ys = np.concatenate([np.linspace(-_Y_CUT, _Y_CUT, 20001), np.geomspace(1e-8, 1e6, 201)])
        for sigma in (0, 1):
            expected = np.array([_h_integrand(sigma, float(y)) for y in ys])
            assert _h_integrand(sigma, ys).tobytes() == expected.tobytes()
            assert _h_integrand(sigma, ys.reshape(2, -1)).shape == (2, ys.size // 2)
        assert type(_h_integrand(0, 3.0)) is float

    def test_tail_is_inverse_square(self):
        # H(0, y) * y^2 tends to 2; sample the decay exponent on the tail
        ys = np.geomspace(1e3, 1e5, 20)
        vals = np.array([_h_integrand(0, float(y)) for y in ys])
        exponents = -np.diff(np.log(vals)) / np.diff(np.log(ys))
        assert np.all(np.abs(exponents - 2.0) < 0.05)
        assert np.all(vals > 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            c_sigma(2)


def _mp_contour(mp, p, k, sigma):
    # the integral ck_contour takes, by mpmath's tanh-sinh rule over a
    # wider span (the integrand is below 1e-50 beyond |s| = 12)
    p = mp.mpf(p)
    rot = mp.expjpi(mp.mpf(-1) / 4)
    sq = mp.sqrt(mp.pi)

    def integrand(s):
        v = s * rot
        z = sq * (v - 1j * p)
        poly = 1 if k == 0 else -z**3 / 3 - 2j * sigma * z
        return mp.exp(-mp.pi * p * v - mp.pi * s * s / 2) / mp.cosh(mp.pi * v / 2) * poly * rot

    pref = mp.expjpi(mp.mpf(-1) / 8) / 4 / (4 * sq) ** k * mp.expjpi(p * p / 2)
    return complex(pref * mp.quad(integrand, [-16, 0, 16]))


def _mp_h_body(mp, sigma):
    # H(sigma, y) over |y| <= _Y_CUT, split at powers of ten
    def h(y):
        u = mp.mpf(0.5) + y * mp.expjpi(mp.mpf(1) / 4)
        f = -mp.mpf(0.5) - 1 / u - mp.log(1 - u) / (u * u)
        return abs(1 - u) ** (-sigma) / (abs(u) ** 2 * (1 + f.real))

    cuts = [10.0**j for j in range(5)]
    return float(mp.quad(h, [-c for c in reversed(cuts)] + [0] + cuts))


class TestMpmathReferences:
    """The numpy quadratures against 30-digit mpmath ones."""

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.0, 0.3, 0.501, 1.0])
    def test_contour(self, p):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for k, sigma in ((0, 0), (1, 0), (1, 1)):
                assert abs(ck_contour(p, k, sigma) - _mp_contour(mpmath, p, k, sigma)) < 1e-12

    @pytest.mark.parametrize("sigma", [0, 1])
    def test_c_sigma_body(self, sigma):
        mpmath = pytest.importorskip("mpmath")
        assert _Y_CUT == 1e4
        with mpmath.workdps(30):
            assert abs(_h_body(sigma, 2 * _GL_PANELS) - _mp_h_body(mpmath, sigma)) < 1e-12


class TestComputedConstants:
    def test_bundle_matches_stated_values(self):
        k = computed_constants()
        assert abs(k.b0 - 0.5) < 1e-9
        assert k.b1_sigma0 == pytest.approx(0.0173, abs=1e-4)
        assert k.b1_sigma1 == pytest.approx(0.0932, abs=1e-4)
        assert k.c_sigma0 == pytest.approx(0.9704, abs=5e-4)
        assert k.c_sigma1 == pytest.approx(1.0450, abs=5e-4)


class TestAssembledBound:
    def test_theta_at_1e6(self):
        assert round(theta(1e6), 4) == 1.0050

    def test_theta_decreasing(self):
        ts = np.geomspace(1.0, 1e10, 200)
        vals = [theta(float(t)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_theta_tends_to_one(self):
        assert theta(1e12) == pytest.approx(1.0, abs=1e-5)

    def test_kappa2_scaled_bounded(self):
        for t in np.geomspace(1.0, 1e8, 100):
            scaled = kappa2(float(t)) * math.sqrt(float(t))
            assert 0.0 < scaled < 10.0

    def test_affine_examples(self):
        assert round(affine_C(1e3).C, 4) == 0.8178
        ab = affine_C(1e6)
        assert round(ab.C, 4) == 0.6633
        assert round(ab.v_tilde, 4) == 0.5480
        ab10 = affine_C(1e10)
        assert round(ab10.C, 4) == 0.6583
        assert round(ab10.v_tilde, 4) == 0.5288

    def test_intercept_floor(self):
        floor = GAMMA_MINUS_HALF_LOG_2PI + 1.0  # = 0.6583 at 4 dp
        for t0 in np.geomspace(1.0, 1e15, 120):
            assert affine_C(float(t0)).C > floor
        # the four-decimal floor of the tabulated range is approached at 1e10
        for t0 in np.geomspace(1.0, 1e10, 80):
            assert affine_C(float(t0)).C >= 0.6583

    def test_v_tilde_absent_below_e(self):
        assert affine_C(2.0).v_tilde is None
        assert affine_C(math.e).v_tilde == pytest.approx(0.5 + AFFINE_INTERCEPT, rel=1e-12)

    def test_v_tilde_below_v_on_common_grid(self):
        for t0 in TABLE_T0:
            v = optimal_bound_params(t0).v
            vt = affine_C(t0).v_tilde
            assert vt is not None and vt < v

    def test_domain(self):
        with pytest.raises(ValueError):
            affine_C(0.5)
        with pytest.raises(ValueError):
            theta(0.0)
        with pytest.raises(ValueError):
            kappa2(-1.0)
