"""Tests for the exponential-sum bounds and the log-bound optimiser."""

import math
from dataclasses import replace

import numpy as np
import pytest

from zetabound import (
    TABLE_T0,
    asymptotic_constants,
    coeffs,
    h_E,
    h_G,
    kuzmin_landau_bound,
    omega,
    omega_residual,
    optimal_bound_params,
    partial_sum_bound,
    y_E,
    y_G,
)
from zetabound.expsum import BoundTriple, e0, e1, e2


def _brute_exp_sum(a: float, b: float, c2: float, c1: float) -> float:
    """|sum_{a < n <= b} e^(2 pi i (c2 n^2/2 + c1 n))| by direct summation."""
    n = np.arange(math.floor(a) + 1, math.floor(b) + 1, dtype=np.float64)
    if n.size == 0:
        return 0.0
    return float(abs(np.exp(2j * np.pi * (0.5 * c2 * n * n + c1 * n)).sum()))


def _brute_partial_sum(a: float, b: float, t: float) -> float:
    """|sum_{a < n <= b} n^(-1-it)| by direct summation."""
    n = np.arange(math.floor(a) + 1, math.floor(b) + 1, dtype=np.float64)
    if n.size == 0:
        return 0.0
    return float(abs(np.exp(-(1.0 + 1j * t) * np.log(n)).sum()))


class TestKuzminLandau:
    def test_unit_phase(self):
        bound = kuzmin_landau_bound(10.0, 1.0, 1.0)
        assert bound == pytest.approx(40.0811000102923, rel=1e-12)
        # the quadratic phase n^2/2 has f'' = 1; its sum over 1..10 vanishes
        assert _brute_exp_sum(0.0, 10.0, 1.0, 0.0) <= bound
        assert _brute_exp_sum(0.0, 10.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_one_point_interval(self):
        bound = kuzmin_landau_bound(1.0, 1.0, 1.0)
        assert bound == pytest.approx(10.770275002573076, rel=1e-12)
        assert bound >= 1.0

    def test_shallow_phase(self):
        bound = kuzmin_landau_bound(100.0, 0.01, 2.0)
        assert bound == pytest.approx(95.270333367641, rel=1e-12)
        assert _brute_exp_sum(0.0, 100.0, 0.01, 0.0) <= bound

    def test_dominates_random_quadratic_phases(self):
        rng = np.random.default_rng(2584)
        for _ in range(200):
            c2 = float(10.0 ** rng.uniform(-3, 0.3))
            c1 = float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(0.0, 100.0))
            length = float(rng.uniform(0.5, 500.0))
            bound = kuzmin_landau_bound(length, c2, 1.0)
            assert _brute_exp_sum(a, a + length, c2, c1) <= bound

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kuzmin_landau_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kuzmin_landau_bound(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kuzmin_landau_bound(1.0, 1.0, 0.5)


class TestPartialSumBound:
    def test_collapsed_interval(self):
        # log(b/a) -> 0 leaves 8*sqrt(2)/sqrt(t) + 3/a
        bound = partial_sum_bound(10.0, 10.0001, 100.0)
        assert bound == pytest.approx(1.4313927583000572, rel=1e-12)
        assert bound == pytest.approx(8.0 * math.sqrt(2.0) / 10.0 + 0.3, abs=2e-4)

    def test_mid_range(self):
        bound = partial_sum_bound(50.0, 100.0, 1e4)
        assert bound == pytest.approx(3.0459907690882306, rel=1e-12)
        assert _brute_partial_sum(50.0, 100.0, 1e4) <= bound

    def test_octave(self):
        bound = partial_sum_bound(10.0, 20.0, 1000.0)
        assert bound == pytest.approx(5.72961229797257, rel=1e-12)
        assert _brute_partial_sum(10.0, 20.0, 1000.0) <= bound

    def test_dominates_random_ranges(self):
        rng = np.random.default_rng(6765)
        for _ in range(200):
            a = float(rng.uniform(5.0, 1e3))
            b = float(a * rng.uniform(1.01, 10.0))
            t = float(10.0 ** rng.uniform(-1, 5))
            assert _brute_partial_sum(a, b, t) <= partial_sum_bound(a, b, t)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            partial_sum_bound(10.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            partial_sum_bound(-1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            partial_sum_bound(1.0, 2.0, 0.0)


class TestCoeffs:
    def test_e0_crossover(self):
        assert coeffs(e0 * e0).E0 == pytest.approx(0.0, abs=1e-12)
        assert e0 * e0 == pytest.approx(763.75, abs=5e-3)
        assert coeffs(800.0).E0 > 0.0
        assert coeffs(700.0).E0 < 0.0

    def test_g2_direct(self):
        assert coeffs(1e6).G2 == pytest.approx(31250156250.125, rel=1e-15)

    def test_q0(self):
        assert coeffs(1e4).Q0 == pytest.approx(0.7688734013688643, rel=1e-12)
        assert round(coeffs(1e4).Q0, 4) == 0.7689

    def test_positivity(self):
        for t in (0.5, 10.0, 763.0, 764.0, 1e6, 1e12):
            c = coeffs(t)
            assert c.E1 > 0 and c.E2 > 0 and c.G0 > 0 and c.G2 > 0 and c.Q0 > 0
            assert (c.E0 > 0) == (t > e0 * e0)

    def test_domain(self):
        with pytest.raises(ValueError):
            coeffs(0.0)


class TestHFunctions:
    def test_at_y_one(self):
        c = coeffs(1e5)
        assert h_E(1e5, 1.0) == pytest.approx(c.E1 + c.E2, rel=1e-14)
        assert h_G(1e5, 1.0) == pytest.approx(c.G2, rel=1e-14)

    @pytest.mark.parametrize("t", [1e4, 1e6])
    def test_y_E_minimises_h_E(self, t):
        ystar = y_E(t)
        floor = h_E(t, ystar)
        for y in np.geomspace(1.0, t * t, 10_000):
            assert h_E(t, float(y)) >= floor - 1e-9 * abs(floor)

    @pytest.mark.parametrize("t", [1e4, 1e6])
    def test_y_G_minimises_h_G(self, t):
        ystar = y_G(t)
        floor = h_G(t, ystar)
        for y in np.geomspace(1.0, t * t, 10_000):
            assert h_G(t, float(y)) >= floor - 1e-9 * abs(floor)

    def test_domain(self):
        with pytest.raises(ValueError):
            h_E(100.0, 0.5)
        with pytest.raises(ValueError):
            h_G(100.0, 0.999)


class TestMinimisers:
    def test_y_E_asymptote(self):
        lam1 = asymptotic_constants().lambda1
        assert y_E(1e12) / math.sqrt(1e12) == pytest.approx(lam1, abs=2e-4)
        assert y_E(1e16) / math.sqrt(1e16) == pytest.approx(lam1, abs=2e-6)

    def test_ordering_at_2000(self):
        assert y_E(2000.0) <= y_G(2000.0)

    def test_y_E_solves_its_quadratic(self):
        c = coeffs(1e6)
        y = y_E(1e6)
        residual = c.E0 * y * y - c.E1 * y - 2.0 * c.E2
        assert abs(residual) <= 1e-6 * abs(c.E1 * y)

    def test_y_E_domain(self):
        with pytest.raises(ValueError):
            y_E(763.0)
        with pytest.raises(ValueError):
            y_E(e0 * e0)

    def test_y_G_huge_t_overflows_to_inf(self):
        assert y_G(1e300) == math.inf


class TestOptimiser:
    def test_reference_rows(self):
        for t0, expected in (
            (1e6, (0.1796, 0.7421, 1.0295)),
            (1e10, (0.2108, 0.6370, 1.1177)),
            (1e300, (0.2116, 0.5046, 1.2456)),
        ):
            p = optimal_bound_params(t0)
            assert (round(p.beta, 4), round(p.v, 4), round(p.u, 4)) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_bound_params(1999.9)
        for t0 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="t0 must be finite"):
                optimal_bound_params(t0)

    def test_inadmissible_window_raises(self):
        # below t0 ~ 1.255e4 the computed v exceeds u, so no triple is returned
        with pytest.raises(ValueError, match="admissible"):
            optimal_bound_params(2000.0)
        with pytest.raises(ValueError, match="admissible"):
            optimal_bound_params(1e4)
        assert optimal_bound_params(1.3e4).v <= optimal_bound_params(1.3e4).u

    def test_defining_identities_moderate_t0(self):
        for t0 in (1e5, 1e6, 1e8):
            p = optimal_bound_params(t0)
            assert p.beta * t0**p.v == pytest.approx(y_E(t0), rel=1e-10)
            assert t0**p.u == pytest.approx(y_G(t0), rel=1e-10)

    def test_defining_identities_huge_t0_in_logs(self):
        from zetabound.expsum import _log_y_G, _y_E_scaled

        t0 = 1e300
        p = optimal_bound_params(t0)
        log_ye = 0.5 * math.log(t0) + math.log(_y_E_scaled(t0))
        assert math.log(p.beta) + p.v * math.log(t0) == pytest.approx(log_ye, rel=1e-10)
        assert p.u * math.log(t0) == pytest.approx(_log_y_G(t0), rel=1e-10)

    def test_admissibility_over_grid(self):
        for t0 in TABLE_T0:
            p = optimal_bound_params(t0)
            assert p.v <= p.u
            assert p.beta <= 1.0

    def test_v_decreasing_to_half(self):
        vs = [optimal_bound_params(t0).v for t0 in TABLE_T0]
        assert all(a > b for a, b in zip(vs, vs[1:]))
        assert vs[-1] - 0.5 < 0.005

    def test_u_increasing_toward_five_quarters(self):
        us = [optimal_bound_params(t0).u for t0 in TABLE_T0]
        assert all(a < b for a, b in zip(us, us[1:]))
        assert all(u < 1.25 for u in us)

    def test_beta_limit(self):
        assert abs(optimal_bound_params(1e300).beta - 0.2116) < 1e-4


class TestOmega:
    def test_residual_vanishes_at_optimum(self):
        for t0 in (2e4, 1e5, 1e6, 1e10, 1e50, 1e300):
            assert abs(omega_residual(optimal_bound_params(t0))) <= 1e-8

    def test_residual_of_rounded_row(self):
        rounded = BoundTriple(t0=1e6, beta=0.1796, v=0.7421, u=1.0295)
        assert abs(omega_residual(rounded)) <= 1e-3

    def test_residual_sign_under_perturbation(self):
        p = optimal_bound_params(1e6)
        slack = BoundTriple(t0=1e6, beta=p.beta, v=p.v + 0.01, u=p.u)
        assert omega_residual(slack) < 0.0

    def test_rows_past_t0(self):
        # v <= u is necessary, not sufficient, for a row to hold past t0:
        # the 1e5 row (u < 1) has its defect A + omega(t) turn positive
        # near t = 1.1e56, past which the 1e6 row's smaller v holds, and
        # every other row stays <= 0 (to rounding) on a log grid to 1e300
        rows = {t0: optimal_bound_params(t0) for t0 in TABLE_T0}

        def defect(p, t):
            return omega_residual(replace(p, t0=t))

        grid = [10.0 ** (0.075 * k) for k in range(4001)]
        first = rows[1e5]
        assert first.u < 1.0 and rows[1e6].v < first.v
        assert max(defect(first, t) for t in grid if 1e5 <= t <= 1e55) <= 1e-12
        assert defect(first, 1e55) < 0.0 < defect(first, 1.1e56) < defect(first, 1e300)
        for t0, p in rows.items():
            if t0 > 1e5:
                assert max(defect(p, t) for t in grid if t >= t0) <= 1e-12

    def test_omega_decreasing_from_e_squared(self):
        # sampled check of the monotonicity the optimiser relies on
        beta, v, u = 0.5, 0.7, 1.1
        ts = np.geomspace(math.e**2, 1e8, 200)
        vals = [omega(float(t), beta, v, u) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestAsymptoticConstants:
    def test_four_decimal_values(self):
        a = asymptotic_constants()
        assert round(a.lambda1, 4) == 4.9443
        assert round(a.lambda2, 4) == 2.5742
        assert round(a.hC_min, 4) == 3.1514
        assert round(a.beta_limit, 4) == 0.2116
        assert round(a.e0sq, 2) == 763.75

    def test_internal_consistency(self):
        a = asymptotic_constants()
        assert a.lambda1 == pytest.approx((e1 + math.sqrt(e1 * e1 + 8 * e2)) / 2, rel=1e-14)
        assert a.hC_min == pytest.approx(a.lambda2 + 0.5772156649015329, rel=1e-12)
