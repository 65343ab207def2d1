"""Tests for the certified evaluator and its alternating-series oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetabound import (
    CertifiedComplex,
    ConvergenceError,
    choose_N,
    error_bound,
    eval_zeta_certified,
    harmonic_bound,
    oracle_zeta,
)
from zetabound import zeta_eval
from zetabound.zeta_eval import _call_plan, _em_head, _eval_block, _transform

import em_reference
from plain_sum import fp_slack, main_sum

# t values of the Euler-Maclaurin checks: tiny t, the peak 17.7477, the
# thinnest affine margin 108.98, and two t whose N at r = 1e-8 is far past
# the split
EM_T = (1e-4, 1.0, math.e, 17.7477, 108.98, 2e3, 2e4)


class TestErrorBound:
    def test_smallest_arguments(self):
        assert error_bound(1.0, 1) == pytest.approx(6.0 / 32.0, rel=1e-15)

    def test_large_t_meets_threshold(self):
        assert error_bound(1e6, 2500004) <= 0.005

    def test_closed_formula(self):
        # frozen from (101*102)/(32*254^2)
        assert error_bound(100.0, 254) == pytest.approx(0.00499004123008246, rel=1e-12)
        assert error_bound(100.0, 254) <= 0.005

    def test_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t = float(rng.uniform(0.1, 1e5))
            n = int(rng.integers(1, 10**6))
            assert error_bound(t, n + 1) < error_bound(t, n)
            assert error_bound(t * 1.5, n) > error_bound(t, n)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            error_bound(0.0, 10)
        with pytest.raises(ValueError):
            error_bound(-1.0, 10)
        with pytest.raises(ValueError):
            error_bound(1.0, 0)
        for n in (math.nan, math.inf, 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                error_bound(1.0, n)
        assert error_bound(1.0, np.int64(3)) == error_bound(1.0, 3)


class TestChooseN:
    def test_examples(self):
        assert choose_N(100.0, 0.005) == 254
        assert choose_N(1e6, 0.005) == 2500004
        assert choose_N(1.0, 1.0) == 1  # 6/32 <= 1 already

    def test_minimality_randomised(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            T = float(rng.uniform(0.5, 1e5))
            r = float(10.0 ** rng.uniform(-8, -1))
            n = choose_N(T, r)
            assert error_bound(T, n) <= r
            if n > 1:
                assert error_bound(T, n - 1) > r

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            choose_N(0.0, 0.1)
        with pytest.raises(ValueError):
            choose_N(10.0, 0.0)
        with pytest.raises(ValueError):
            choose_N(10.0, -1.0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            choose_N(1e30, 1e-10)
        with pytest.raises(OverflowError):
            choose_N(1e300, 1e-300)
        # (1+T)(2+T) overflows to inf: still the documented error
        with pytest.raises(OverflowError, match="supported integer range"):
            choose_N(1e300, 1e-8)


class TestCertifiedComplex:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CertifiedComplex(complex(math.inf, 0.0), 0.0)
        with pytest.raises(ValueError):
            CertifiedComplex(1 + 1j, -1e-12)
        with pytest.raises(ValueError):
            CertifiedComplex(1 + 1j, math.nan)

    def test_modulus(self):
        assert CertifiedComplex(3 + 4j, 0.1).modulus == pytest.approx(5.0)


class TestEvalZetaCertified:
    def test_value_at_t1(self):
        cert = eval_zeta_certified(1.0, 10**4)
        # 5-digit prints of zeta(1+i)
        assert cert.value.real == pytest.approx(0.58216, abs=1e-5)
        assert cert.value.imag == pytest.approx(-0.92685, abs=1e-5)
        assert cert.modulus == pytest.approx(1.0945, abs=1e-4)
        oracle = oracle_zeta(1.0, 1e-10)
        assert abs(cert.value - oracle.value) <= cert.err + oracle.err

    def test_peak_modulus(self):
        t = 17.7477
        cert = eval_zeta_certified(t, choose_N(20.0, 1e-8))
        assert cert.modulus / math.log(t) == pytest.approx(0.6443, abs=1e-4)
        # recomputed from the printed digits 0.6443 * log(17.7477) = 1.8532 (4 dp)
        assert cert.modulus == pytest.approx(1.8531465, abs=1e-4)

    def test_triangle_inequality_between_truncations(self):
        a = eval_zeta_certified(5.0, 10**3)
        b = eval_zeta_certified(5.0, 10**4)
        assert abs(a.value - b.value) <= error_bound(5.0, 10**3) + error_bound(5.0, 10**4)

    def test_deterministic(self):
        a = eval_zeta_certified(123.456, 5000)
        b = eval_zeta_certified(123.456, 5000)
        assert a.value == b.value and a.err == b.err

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eval_zeta_certified(0.0, 10)
        with pytest.raises(ValueError):
            eval_zeta_certified(-3.0, 10)
        with pytest.raises(ValueError):
            eval_zeta_certified(1.0, 0)
        with pytest.raises(ValueError):
            eval_zeta_certified(math.inf, 1)
        for n in (math.nan, math.inf, 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                eval_zeta_certified(10.0, n)
        assert eval_zeta_certified(10.0, np.int64(3)) == eval_zeta_certified(10.0, 3)

    def test_head_over_the_budget_refused(self):
        # t = 1e300 and 1e12 are charged 3.2e299 and 3.2e11 kernel passes, over
        # DEFAULT_BUDGET = 5e10: refused before any sum, as eval refuses
        # them.  Run apart with a timeout, as a regression hangs rather
        # than fails
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "from zetabound import ResourceBudgetError, eval_zeta_certified\n"
            "for t in (1e300, 1e12):\n"
            "    try:\n"
            "        eval_zeta_certified(t, 1)\n"
            "    except ResourceBudgetError as exc:\n"
            "        print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "evaluation charges 3.183e+299 kernel passes, over the budget 5.000e+10\n"
            "evaluation charges 3.183e+11 kernel passes, over the budget 5.000e+10\n"
        )

    def test_tiny_t_allowed(self):
        # a = 64 for N = 64 and N = 65 alike: both sum the head and the
        # Euler-Maclaurin tail, to the same bits, whose radius holds no
        # truncation bound and encloses zeta despite the 1/(it) term
        t = 1e-4
        low, high = eval_zeta_certified(t, 64), eval_zeta_certified(t, 65)
        assert (low.value, low.err) == (high.value, high.err)
        assert math.isfinite(low.modulus)
        assert low.err < error_bound(t, 65)
        assert abs(low.value - _zeta_30(t)) <= low.err


def _zeta_30(t, a=1):
    # sum_{n>=a} n^(-1-it) at 30 digits: zeta(1+it) at a = 1, else the
    # Hurwitz zeta function, the exact tail of zeta past n = a - 1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return complex(mpmath.zeta(mpmath.mpc(1, t), a))


def _em_sizes(t):
    # nominal counts below, at and past the one-point head a, and the N of
    # r = 1e-8
    a = _em_head(t, 1)
    return (1, a, a + 1, 2 * a, choose_N(t, 1e-8))


class TestEulerMaclaurinRoute:
    @pytest.mark.parametrize("t", EM_T)
    def test_agrees_with_direct_sum(self, t):
        # every N gives the same value and err: the head n <= a plus the
        # Euler-Maclaurin tail, which encloses zeta itself, as does the plain
        # sum of the head plus the exact tail past a
        certs = [eval_zeta_certified(t, n) for n in _em_sizes(t)]
        assert len({(cert.value, cert.err) for cert in certs}) == 1
        cert, a = certs[0], _em_head(t, 1)
        assert abs(cert.value - _zeta_30(t)) <= cert.err
        gap = abs(cert.value - (main_sum(t, a) + _zeta_30(t, a + 1)))
        assert gap <= cert.err + fp_slack(t, a)
        if t >= math.e:
            assert gap <= 1e-13

    def test_high_t_radius(self):
        cert = eval_zeta_certified(1e6, choose_N(1e6, 1e-8))
        # the plain sum of all N = 1.77e9 terms carries 1.63e-6, most of it
        # 4 eps N
        assert cert.err < 4e-8
        # the radius holds no truncation bound
        assert eval_zeta_certified(17.7477, choose_N(17.7477, 1e-8)).err < 1e-12

    @pytest.mark.parametrize(
        "t", [1e5, 1e6, 2 * math.pi * 1000 / math.log(2), 2 * math.pi * 110_000 / math.log(2)]
    )
    @pytest.mark.parametrize("r", [1e-8, 1e-3])
    def test_against_mpmath(self, t, r):
        mpmath = pytest.importorskip("mpmath")
        cert = eval_zeta_certified(t, choose_N(t, r))
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(mpmath.mpc(1, t)))
        assert abs(cert.value - ref) <= cert.err

    def test_property_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(st.floats(-3.0, 6.0), st.floats(-10.0, -2.0))
        def check(log_t, log_r):
            t, r = 10.0**log_t, 10.0**log_r
            n = choose_N(t, r)
            cert = eval_zeta_certified(t, n)
            with mpmath.workdps(30):
                ref = complex(mpmath.zeta(mpmath.mpc(1, t)))
            assert abs(cert.value - ref) <= cert.err

        check()


# t of the one-point checks: small t, the peak, the last 0.548 crossing, a
# t where the oracle's denominator vanishes, and a high t
ONE_POINT_T = (3.0, 17.7477, 652.37, 2 * math.pi * 1000 / math.log(2), 1e5)


def _one_point_and_block(t, r):
    # eval_zeta_certified(t, N) and the middle point of a 9-point kernel
    # call at h = 1e-3 with the same N, with its radius
    n = choose_N(t, r)
    cert = eval_zeta_certified(t, n)
    pts = t + (np.arange(9) - 4) * 1e-3
    assert pts[4] == t
    vals, err = _eval_block(pts, n, _call_plan(pts))
    return cert, vals[4], err


class TestOnePointCall:
    @pytest.mark.parametrize("t", ONE_POINT_T)
    @pytest.mark.parametrize("r", [1e-8, 1e-3])
    def test_matches_nine_point_block(self, t, r):
        # both enclose zeta: their gap is within the sum of the radii
        cert, block, err = _one_point_and_block(t, r)
        assert abs(cert.value - block) <= cert.err + err

    @pytest.mark.parametrize("t", ONE_POINT_T)
    @pytest.mark.parametrize("r", [1e-8, 1e-3])
    def test_both_against_mpmath(self, t, r):
        cert, block, err = _one_point_and_block(t, r)
        ref = _zeta_30(t)
        assert abs(cert.value - ref) <= cert.err
        assert abs(block - ref) <= err


def _count_grid_tables(monkeypatch):
    # calls of the grid path's head weights and transform tables, by name
    counts = {"_head_weights": 0, "_pruned_layout": 0}
    for name in counts:
        def counted(*args, _fn=getattr(zeta_eval, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(zeta_eval, name, counted)
    return counts


class TestOnePointRoute:
    @pytest.mark.parametrize("t", [3.0, 17.7477, 1e4])
    def test_point_call_skips_the_grid_tables(self, monkeypatch, t):
        counts = _count_grid_tables(monkeypatch)
        eval_zeta_certified(t, 1)
        assert counts == {"_head_weights": 0, "_pruned_layout": 0}

    def test_scan_with_a_one_point_call(self, monkeypatch):
        # 9 points in runs of 8: one 8-point call, then one 1-point call,
        # which takes the point route and returns eval_zeta_certified's bits
        from zetabound import verifier

        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 8)
        calls = []

        def recorded(t_pts, n, plan, _kernel=verifier._eval_block):
            calls.append((t_pts, *_kernel(t_pts, n, plan)))
            return calls[-1][1:]

        monkeypatch.setattr(verifier, "_eval_block", recorded)
        counts = _count_grid_tables(monkeypatch)
        verifier.scan_interval(verifier.ScanConfig(t_lo=100.0, t_hi=100.0 + 8 * 0.01))
        assert [len(t_pts) for t_pts, _, _ in calls] == [8, 1]
        assert counts == {"_head_weights": 1, "_pruned_layout": 1}
        t_pts, vals, err = calls[-1]
        cert = eval_zeta_certified(float(t_pts[0]), 1)
        assert vals.tobytes() == np.array([cert.value]).tobytes() and err == cert.err


def _partial_call_indices(size):
    # every point of a small call; in a large one, the ends, both sides of
    # the centre (k = -1, 0, 1, where the rotation from bin order joins) and
    # a stride through the rest
    if size <= 3:
        return list(range(size))
    mid = (size - 1) // 2
    return sorted({0, 1, mid - 1, mid, mid + 1, size - 2, size - 1, *range(0, size, 97)})


def _reached_bins(size, h, n_hi):
    # the bins of the kernel's phases h ln n, n <= n_hi, with its own array
    # arithmetic, folded mod M
    M = 1 << (size - 1).bit_length()
    x = np.log(np.arange(1, n_hi + 1, dtype=np.float64)) * (h / (2.0 * math.pi / M))
    return np.rint(x).astype(np.int64) & (M - 1)


def _grid_call(t0, h, size, route):
    # a call of size points from t0 at step h, after checking that its
    # phases reach only bins below B, with N = choose_N at its last point,
    # past every head.  route "direct" names N = a(t_0), no larger than any
    # point's head (an N the deleted g_N route took): as N has no effect,
    # it must give the same bits, and the one-point calls then take it
    pts = t0 + np.arange(size) * h
    a = _em_head(float(pts[-1]), size)
    assert _reached_bins(size, h, a).max() < _transform(size, h, a)[1]
    n = choose_N(float(pts[-1]), 0.005)
    vals, err = _eval_block(pts, n, _call_plan(pts))
    if route == "direct":
        n = _em_head(t0, size)
        same, same_err = _eval_block(pts, n, _call_plan(pts))
        assert same.tobytes() == vals.tobytes() and same_err == err
    return pts, n, (vals, err)


def _assert_within_one_point_calls(pts, n, vals, err):
    # both enclose zeta: their gap is within the sum of the radii
    for j in _partial_call_indices(len(pts)):
        one = eval_zeta_certified(float(pts[j]), n)
        assert abs(vals[j] - one.value) <= err + one.err


def _assert_within_mpmath(pts, vals, err):
    size = len(pts)
    for j in sorted({0, (size - 1) // 2, size // 3, size - 1}):
        assert abs(vals[j] - _zeta_30(float(pts[j]))) <= err


class TestPartialCalls:
    # calls of K points with 2^q < K < 2^(q+1) use M = 2^(q+1) bins, of which
    # the Horner pass in k runs over all and the rotation keeps K
    @pytest.mark.parametrize("size", [2, 3, (1 << 13) + 1, (1 << 14) - 1])
    @pytest.mark.parametrize("route", ["euler-maclaurin", "direct"])
    def test_within_one_point_calls(self, size, route):
        pts, n, (vals, err) = _grid_call(1e3, 0.01, size, route)
        _assert_within_one_point_calls(pts, n, vals, err)

    @pytest.mark.parametrize("size", [2, 3, (1 << 13) + 1, (1 << 14) - 1])
    def test_against_mpmath(self, size):
        pts, _, (vals, err) = _grid_call(1e3, 0.01, size, "euler-maclaurin")
        _assert_within_mpmath(pts, vals, err)


# TestPartialCalls runs calls at h = 0.01 and t ~ 1e3, whose phases reach
# a few hundred of the M bins; here, a full 2^14 points there, and every
# size at h = 1 and t ~ 1e4, where the phases wind
PRUNED_CALLS = [(1e3, 0.01, 1 << 14), *((1e4, 1.0, size) for size in (2, 3, (1 << 13) + 1, 1 << 14))]


class TestPrunedTransform:
    @pytest.mark.parametrize("size", [2, 3, (1 << 13) + 1, 1 << 14])
    def test_bins_pruned_unless_the_phases_wind(self, size):
        for t0, h, pruned in ((1e3, 0.01, size > 2), (1e4, 1.0, False)):
            t_max = t0 + (size - 1) * h
            M, B = _transform(size, h, _em_head(t_max, size))[:2]
            assert (B < M) == pruned

    def test_twiddles_within_their_rounding_bound(self):
        # the radius charges each twiddle (2 pi + 2 sqrt(2)) eps: its angle
        # and its cos and sin, checked here at 30 digits for every entry
        mpmath = pytest.importorskip("mpmath")
        eps = 2.220446049250313e-16
        M, B = 1 << 14, 256
        twiddles = zeta_eval._pruned_layout(M, B)[0]
        worst = 0.0
        with mpmath.workdps(30):
            for (v, j), w in np.ndenumerate(twiddles):
                exact = mpmath.expjpi(-2 * mpmath.mpf(v * j) / M)
                worst = max(worst, abs(complex(mpmath.mpc(w) - exact)))
        assert worst <= (2 * math.pi + 2 * math.sqrt(2)) * eps

    @pytest.mark.parametrize("M, B", [(1, 1), (256, 4), (1 << 14, 256), (1 << 14, 1 << 14)])
    def test_layout_made_once_per_pair_and_read_only(self, M, B):
        # the tables depend on (M, B) alone: a second call returns the same
        # arrays, which no call can write, with the bytes a fresh build gives
        twiddles, ik = zeta_eval._pruned_layout(M, B)
        assert all(x is y for x, y in zip(zeta_eval._pruned_layout(M, B), (twiddles, ik)))
        for table in (twiddles, ik):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0
        fresh = zeta_eval._pruned_layout.__wrapped__(M, B)
        assert [x.tobytes() for x in fresh] == [twiddles.tobytes(), ik.tobytes()]

    def test_scan_builds_each_layout_once(self, monkeypatch):
        # four 256-point calls at t ~ 100 share (M, B) = (256, 4): the
        # first builds the tables, the other three reuse them
        from zetabound import verifier

        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 256)
        cfg = verifier.ScanConfig(t_lo=100.0, t_hi=100.0 + 1023 * 0.01)
        t, calls = verifier._grid(cfg, math.inf)
        plans = [zeta_eval._call_plan(t[lo:hi + 1]) for lo, hi in calls]
        assert len(plans) == 4 and {(plan.M, plan.B) for plan in plans} == {(256, 4)}
        zeta_eval._pruned_layout.cache_clear()
        verifier.scan_interval(cfg)
        info = zeta_eval._pruned_layout.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    @pytest.mark.parametrize("t0, h, size", PRUNED_CALLS)
    @pytest.mark.parametrize("route", ["euler-maclaurin", "direct"])
    def test_within_one_point_calls(self, t0, h, size, route):
        pts, n, (vals, err) = _grid_call(t0, h, size, route)
        _assert_within_one_point_calls(pts, n, vals, err)

    @pytest.mark.parametrize("t0, h, size", PRUNED_CALLS)
    def test_against_mpmath(self, t0, h, size):
        pts, _, (vals, err) = _grid_call(t0, h, size, "euler-maclaurin")
        _assert_within_mpmath(pts, vals, err)


class TestHeadWeights:
    @pytest.mark.parametrize("t, n_hi", [
        (math.e, 1 << 18), (17.7477, 1 << 18), (1e3, 1 << 18), (1.5e5, 1 << 18), (1e6, 10**6),
    ])
    def test_within_the_charged_bound(self, t, n_hi):
        # every z_n against cos and sin of t ln n in 64-bit-mantissa long
        # double, whose own error is ~eps t ln n / 2048: within the phase
        # the radius charges, 2 eps t ln n, plus the (2 log2 n_hi + 1) eps
        # it charges for the products and each factor's cos and sin
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("needs an extended-precision long double")
        eps = 2.220446049250313e-16
        z = zeta_eval._head_weights(t, n_hi)[1:]
        n = np.arange(1, n_hi + 1)
        ph = np.longdouble(t) * np.log(n.astype(np.longdouble))
        gap = np.hypot((z.real - np.cos(ph)).astype(np.float64),
                       (z.imag + np.sin(ph)).astype(np.float64))
        bound = eps * (2.0 * t * np.log(n) + 2.0 * math.log2(n_hi) + 1.0)
        assert np.all(gap <= bound)

    def test_call_at_1e6_against_mpmath(self):
        # a 257-point call at t ~ 1e6 sums 1e6 weights, most of them products
        pts = 1e6 + np.arange(257) * 0.01
        vals, err = _eval_block(pts, choose_N(float(pts[-1]), 0.005), _call_plan(pts))
        for j in (0, 64, 128, 192, 256):
            assert abs(vals[j] - _zeta_30(float(pts[j]))) <= err


class TestTailTurns:
    @pytest.mark.parametrize("t0, size", [
        (math.e, 1 << 14), (1e3, 1 << 14), (1.5e5, 10001), (1e6, 257), (1e4, 2),
    ])
    def test_within_the_charged_bound(self, t0, size):
        # every a^(-it) of a call's tail, taken from its two tables at
        # t_0 + j h, against 30-digit a^(-i t_j) at the exact t_j: within
        # the phase the radius charges, (4 eps + slip) t_j ln a with slip
        # the measured max |t_0 + j h - t_j| / t_j, plus 3 eps for the
        # tables' cos and sin and their product
        mpmath = pytest.importorskip("mpmath")
        eps = 2.220446049250313e-16
        pts = t0 + np.arange(size) * 0.01
        a = _em_head(float(pts[-1]), size)
        h = (float(pts[-1]) - float(pts[0])) / (size - 1)
        turns = zeta_eval._tail_turns(pts, math.log(a), h)
        slip = float(np.max(np.abs(np.arange(size) * h + pts[0] - pts) / pts))
        bound = (4.0 * eps + slip) * pts * math.log(a) + 3.0 * eps
        with mpmath.workdps(30):
            ln_a = mpmath.log(a)
            gap = [abs(complex(mpmath.mpc(z) - mpmath.expj(-mpmath.mpf(t) * ln_a)))
                   for t, z in zip(pts.tolist(), turns.tolist())]
        assert np.all(np.array(gap) <= bound)


class TestSegments:
    @pytest.mark.parametrize("t0, h, size, chunk", [
        (1e3, 1.0, 1 << 10, None),          # each small n its own bin, bins skipped between
        (1e4, 1.0, 1 << 12, None),          # the phases wind: B = M
        (1.5e5, 0.01, 10001, None),         # scan-high's calls
        (1e3, 0.01, 1 << 14, 1000),         # segments cut by chunk ends
        (1e4, 1.0, 1 << 14, 1000),          # chunks spanning more bins than terms
    ])
    def test_starts_are_the_steps_of_j(self, monkeypatch, t0, h, size, chunk):
        # in a kernel call, every chunk's searched segments equal those of
        # the nonzero steps of j
        calls = []
        segments = zeta_eval._segments

        def checked(j, M):
            starts, bins = segments(j, M)
            steps = np.flatnonzero(np.diff(j, prepend=-1.0))
            assert np.array_equal(starts, steps)
            assert np.array_equal(bins, j[steps].astype(np.intp) & (M - 1))
            calls.append(len(j))
            return starts, bins

        monkeypatch.setattr(zeta_eval, "_segments", checked)
        if chunk is not None:
            monkeypatch.setattr(zeta_eval, "_KERNEL_CHUNK", chunk)
        pts = t0 + np.arange(size) * h
        _eval_block(pts, choose_N(float(pts[-1]), 0.005), _call_plan(pts))
        assert sum(calls) == _em_head(float(pts[-1]), size)  # every chunk was checked


class TestExpansionOrder:
    def test_least_order_below_the_segment_sum_rounding(self):
        # p is the least order with 2 (d/2)^(p+1)/(p+1)! / (1 - d/(2(p+2)))
        # < eps D/2, D the segment-sum depth, so H times that remainder
        # bound is within half the segment-sum rounding term
        # eps H e^d (D + p + 7) of the radius
        mpmath = pytest.importorskip("mpmath")
        eps = 2.220446049250313e-16
        rng = np.random.default_rng(1818)
        for _ in range(200):
            size = int(rng.integers(2, 1 << 14, endpoint=True))
            h = float(10.0 ** rng.uniform(-4, 0))
            t_max = float(rng.uniform(math.e + size * h, 2e5))
            n_hi = _em_head(t_max, size)
            M, B, p, d, factor, chunk, depth = _transform(size, h, n_hi)
            assert chunk == min(n_hi, zeta_eval._KERNEL_CHUNK)
            D = chunk + -(-n_hi // chunk) + h * math.log(n_hi) / (2 * math.pi)
            assert depth == pytest.approx(D, rel=1e-15)
            with mpmath.workdps(30):
                exact_d = (size - 1 - (size - 1) // 2) * mpmath.pi / M
                assert d >= exact_d

                def bound(q):  # the remainder bound of order q for the call's d
                    half = mpmath.mpf(d) / 2
                    return 2 * half ** (q + 1) / mpmath.factorial(q + 1) / (1 - half / (q + 2))

                assert bound(p) < eps * D / 2
                assert p == 0 or bound(p - 1) >= eps * D / 2
                assert factor == pytest.approx(float(bound(p)), rel=1e-14)
            assert p + 1 <= 16
            h_n = harmonic_bound(n_hi)
            assert h_n * factor <= 0.5 * eps * h_n * math.exp(d) * (depth + p + 7)

    @pytest.mark.parametrize("t0, size, order", [
        (1e3, 1 << 14, 15),   # paper's calls at t ~ 1e3 (19 by the Taylor remainder)
        (1.5e5, 10001, 12),   # a 100-wide check at h = 0.01 (14 by Taylor)
        (1e6, 1 << 14, 14),   # the [e, 1e6] target's regime (17 by Taylor)
    ])
    def test_orders_of_documented_calls(self, t0, size, order):
        t_max = t0 + (size - 1) * 0.01
        assert _transform(size, 0.01, _em_head(t_max, size))[2] + 1 == order


class TestPhaseCoeffs:
    # full calls (d = pi/2 (1 + eps)), 2^13 + 1 points (d ~ pi/4), a
    # partial call, and the two smallest multi-point calls, each at the
    # orders (and remainder bounds) of calls at t ~ e, 1e3 and 1e6
    @pytest.mark.parametrize("size", [1 << 14, (1 << 13) + 1, 2000, 2, 3])
    def test_economized_expansion(self, size):
        mpmath = pytest.importorskip("mpmath")
        factors = {}
        for t0 in (math.e, 1e3, 1e6):
            _, _, p, d, factor, _, _ = _transform(size, 0.01, _em_head(t0 + size * 0.01, size))
            factors[p] = factor
        with mpmath.workdps(30):
            for p, factor in factors.items():
                rho = zeta_eval._phase_coeffs(d, p)
                assert len(rho) == p + 1
                # the 30-digit truncation sum_{q<=p} e_q (-i)^q J_q(d) T_q(w/d)
                # = sum_m rho_m (-iw)^m; (-i)^q / (-i)^m = (-1)^((q-m)/2)
                exact = [mpmath.mpf(0)] * (p + 1)
                for q in range(p + 1):
                    jq = mpmath.besselj(q, d) * (1 if q == 0 else 2)
                    for m, c in enumerate(_chebyshev(q)):
                        exact[m] += jq * c * (-1) ** ((q - m) // 2) / mpmath.mpf(d) ** m
                for m, (r, x) in enumerate(zip(rho, exact)):
                    assert abs(r - float(x)) <= 2 * math.ulp(float(x))
                    assert 0.0 < r <= 1.0 / math.factorial(m)
                # the remainder bound covers the dropped orders and, at the
                # float coefficients, e^(-iw) on a dense grid of |w| <= d
                dropped = 2 * mpmath.fsum(abs(mpmath.besselj(q, d)) for q in range(p + 1, p + 40))
                assert factor >= dropped
                worst = max(
                    abs(mpmath.fsum(r * mpmath.mpc(0, -w) ** m for m, r in enumerate(rho))
                        - mpmath.expj(-w))
                    for w in np.linspace(-d, d, 401)
                )
                assert worst <= factor

    def test_one_point_calls_sum_plainly(self):
        # K = 1 has d = 0 and p = 0, and its one coefficient is 1 exactly
        assert _transform(1, 0.0, 64)[2:4] == (0, 0.0)
        assert zeta_eval._phase_coeffs(0.0, 0) == (1.0,)


def _chebyshev(q):
    # the integer coefficients of T_q, lowest power first
    prev, cur = [1], [0, 1]
    if q == 0:
        return prev
    for _ in range(q - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _head_branch(t_max, size):
    # which term of max(64, ceil(t_max/pi), min(ceil t_max, K)) sets the head
    a = _em_head(t_max, size)
    if size == 1:
        return "one point"
    if a == math.ceil(t_max):
        return "ceil t"
    return "K" if a == size else "t/pi"


class TestTailBounds:
    def test_call_bounds_cover_every_point(self):
        # _em_bounds gives the tail's rounding and remainder as one float
        # each for a call: each must be at least the per-point bound, with
        # sigma at the point's own t, at every point of the call, for the
        # order m that the reference takes at the call's (a, t_max).  The
        # first call has its largest per-point rounding at its first point
        # (the 4/t term)
        calls = [
            (math.e, 0.01, 50), (math.e, 1.0, 62),
            (1e3, 0.01, 1 << 14),                  # ceil t: t_max <= K
            (2e4, 0.01, 10001), (1e4, 1.0, 5000),  # K: t_max/pi < K < t_max
            (1.5e5, 0.01, 10001), (1e6, 0.01, 1 << 14),  # t/pi
            (201.0, 0.0, 1), (1e4, 0.0, 1), (1e6, 0.0, 1),
        ]
        rng = np.random.default_rng(1717)
        for _ in range(30):
            size = int(rng.integers(1, 1 << 14, endpoint=True))
            h = float(10.0 ** rng.uniform(-4, 0))
            calls.append((float(rng.uniform(math.e, 1e6 - size * h)), h, size))
        branches = set()
        for t_lo, h, size in calls:
            pts = t_lo + np.arange(size) * h
            t_max = float(pts[-1])
            a = _em_head(t_max, size)
            branches.add(_head_branch(t_max, size))
            m = em_reference.order(t_max, a)
            assert zeta_eval._em_bounds(np.array([t_max]), a)[0] == m
            _, remainder, rounding = zeta_eval._em_bounds(pts, a)
            assert rounding >= em_reference.tail_rounding(pts, a, m).max()
            assert remainder >= em_reference.tail_remainder(pts, a, m).max()
        assert branches == {"one point", "ceil t", "K", "t/pi"}
        first = math.e + np.arange(50) * 0.01
        m = em_reference.order(float(first[-1]), 64)
        assert np.argmax(em_reference.tail_rounding(first, 64, m)) == 0

    @pytest.mark.parametrize("t, size, order", [
        (1e3, 1 << 14, 10), (1e6, 1 << 25, 10),  # a = ceil t
        (1e3, 1, 25), (1.5e5, 10001, 25), (1e6, 1 << 14, 25), (1e8, 1, 25),  # a = ceil(t/pi)
        (math.e, 1, 5), (17.7477, 1, 6),  # a = 64
    ])
    def test_orders_of_documented_heads(self, t, size, order):
        assert zeta_eval._em_bounds(np.array([t]), _em_head(t, size))[0] == order

    def test_no_order_in_the_table_is_refused(self):
        # at a = t/16 the Bernoulli terms grow: no order up to 25 meets eps/2
        with pytest.raises(ConvergenceError, match="order up to 25"):
            zeta_eval._em_bounds(np.array([1024.0]), 64)


class TestHeadBranches:
    @pytest.mark.parametrize("t0, h, size, branch", [
        (1.5e5, 0.01, 10001, "t/pi"), (1e6, 0.01, 1 << 14, "t/pi"),
        (2e4, 0.01, 10001, "K"), (1e3, 0.01, 1 << 14, "ceil t"), (math.e, 0.01, 1 << 14, "ceil t"),
        (201.0, 0.0, 1, "one point"), (1e4, 0.0, 1, "one point"), (1e6, 0.0, 1, "one point"),
    ])
    def test_calls_contain_mpmath(self, t0, h, size, branch):
        # each term of the head rule sets the head of one of these calls,
        # and every call's radius holds 30-digit mpmath.zeta
        pts = t0 + np.arange(size) * h
        assert _head_branch(float(pts[-1]), size) == branch
        vals, err = _eval_block(pts, choose_N(float(pts[-1]), 0.005), _call_plan(pts))
        _assert_within_mpmath(pts, vals, err)


class TestCallPlan:
    @pytest.mark.parametrize("t0, h, size, branch", [
        (1e3, 0.0, 1, "one point"), (100.0, 0.01, 2000, "ceil t"), (1e4, 0.01, 100, "t/pi"),
    ])
    def test_each_decision_made_once_per_call(self, monkeypatch, t0, h, size, branch):
        # the head, the transform and the Bernoulli order are derived once
        # per kernel call and once per point evaluation, in _call_plan, whose
        # radius the call returns: the kernel runs the plan it is handed
        pts = t0 + np.arange(size) * h
        assert _head_branch(float(pts[-1]), size) == branch
        plan = zeta_eval._call_plan(pts)
        counts = {}
        for name in ("_em_head", "_transform", "_em_bounds"):
            def counted(*args, _fn=getattr(zeta_eval, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(zeta_eval, name, counted)
        vals, err = _eval_block(pts, 1, plan)
        assert counts == {} and err == plan.radius
        again, err = _eval_block(pts, 1, _call_plan(pts))
        assert counts == {"_em_head": 1, "_transform": 1, "_em_bounds": 1}
        assert err == plan.radius and again.tobytes() == vals.tobytes()
        counts.clear()
        eval_zeta_certified(float(pts[-1]), 1)
        assert counts == {"_em_head": 1, "_transform": 1, "_em_bounds": 1}


class TestBernoulliCoefficients:
    def test_exact_rationals(self):
        # c_k = B_2k/(2k)! for k <= 25, each the correctly rounded float of
        # the exact rational (Fraction's float rounds correctly)
        assert len(zeta_eval._EM_COEFFS) == em_reference.MAX_ORDER
        for c, exact in zip(zeta_eval._EM_COEFFS, em_reference.COEFFS):
            assert c == float(exact)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for k, c in enumerate(zeta_eval._EM_COEFFS, start=1):
                assert c == float(mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k))


class TestOracleZeta:
    def test_value_at_t1(self):
        cert = oracle_zeta(1.0, 1e-9)
        assert cert.err <= 1e-9
        assert cert.value.real == pytest.approx(0.58216, abs=1e-5)
        assert cert.value.imag == pytest.approx(-0.92685, abs=1e-5)

    def test_mutual_consistency_with_evaluator(self):
        a = oracle_zeta(2.0, 1e-9)
        b = eval_zeta_certified(2.0, choose_N(2.0, 1e-10))
        assert abs(a.value - b.value) <= a.err + b.err

    def test_crossing_level_modulus(self):
        t = 652.3704
        cert = oracle_zeta(t, 1e-6)
        # 0.5480 * log(652.3704) = 3.5514 (4 dp)
        assert cert.modulus / math.log(t) == pytest.approx(0.5480, abs=1e-4)
        assert cert.modulus == pytest.approx(3.5514413, abs=2e-4)

    def test_unreachable_target_raises(self):
        with pytest.raises(ConvergenceError):
            oracle_zeta(5000.0, 1e-25)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            oracle_zeta(0.0, 1e-6)
        with pytest.raises(ValueError):
            oracle_zeta(1.0, 0.0)
        with pytest.raises(ValueError):
            oracle_zeta(math.inf, 1e-8)


class TestAgreementProperty:
    def test_evaluator_inside_oracle_disk(self):
        rng = np.random.default_rng(4181)
        for _ in range(30):
            t = float(rng.uniform(1.0, 2e3))
            r = float(10.0 ** rng.uniform(-7, -2))
            cert = eval_zeta_certified(t, choose_N(t, r))
            oracle = oracle_zeta(t, 1e-10)
            assert abs(cert.value - oracle.value) <= cert.err + 1e-10


class TestHarmonicBound:
    def test_single_term(self):
        assert harmonic_bound(1.0) == pytest.approx(1.5772156649015329, rel=1e-12)
        assert harmonic_bound(1.0) >= 1.0

    def test_ten_terms(self):
        assert harmonic_bound(10.0) == pytest.approx(2.9798007578955787, rel=1e-12)
        assert harmonic_bound(10.0) >= 2.9289682539682538

    def test_fractional_x(self):
        assert harmonic_bound(2.5) == pytest.approx(
            math.log(2.5) + 0.5772156649015329 + 0.4, rel=1e-12
        )
        assert harmonic_bound(2.5) >= 1.5  # sum over n <= 2.5

    def test_dominates_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            x = float(rng.uniform(1.0, 1e4))
            brute = float((1.0 / np.arange(1, math.floor(x) + 1)).sum())
            assert harmonic_bound(x) >= brute

    def test_domain_error(self):
        with pytest.raises(ValueError):
            harmonic_bound(0.999)
