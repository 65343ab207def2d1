"""Tests for the certified grid-scan verifier."""

import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from zetabound import (
    CrossingNotFound,
    ResourceBudgetError,
    ScanConfig,
    check_bound,
    choose_N,
    crossing_point,
    error_bound,
    eval_zeta_certified,
    max_ratio,
    oracle_zeta,
    scan_interval,
)
from zetabound import verifier, zeta_eval
from zetabound.verifier import GRID_NOTE, _call_plan, _eval_block
from zetabound.zeta_eval import _em_head

from plain_sum import fp_slack, main_sum


def _zeta_30(t, a=1):
    # sum_{n>=a} n^(-1-it) at 30 digits: zeta(1+it) at a = 1, else the
    # Hurwitz zeta function, the exact tail of zeta past n = a - 1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return complex(mpmath.zeta(mpmath.mpc(1, t), a))


def _assert_certified(pts, n, vals, err, ks):
    # the block and a one-point call with the same N enclose zeta within
    # their radii, and 30-digit mpmath.zeta lies within the block's
    for k in ks:
        t = float(pts[k])
        one = eval_zeta_certified(t, n)
        assert abs(vals[k] - one.value) <= err + one.err
        assert abs(vals[k] - _zeta_30(t)) <= err


def _spy_tails(monkeypatch):
    # the sizes of the point arrays the kernel passes to the closed-form tail
    sizes = []
    tail = zeta_eval._em_tail

    def recorded(t, a, m, h):
        sizes.append(np.size(t))
        return tail(t, a, m, h)

    monkeypatch.setattr(zeta_eval, "_em_tail", recorded)
    return sizes


def _record_calls(monkeypatch):
    # every kernel call's (t_pts, N, plan) and its err, in call order
    calls = []
    kernel = verifier._eval_block

    def recorded(t_pts, n, plan):
        vals, err = kernel(t_pts, n, plan)
        calls.append((t_pts, n, plan, err))
        return vals, err

    monkeypatch.setattr(verifier, "_eval_block", recorded)
    return calls


def _runs(t):
    # (k_lo, k_hi) of each kernel call, from the documented plan: fixed
    # runs of _KERNEL_POINTS points
    size = verifier._KERNEL_POINTS
    return [(lo, min(lo + size, len(t)) - 1) for lo in range(0, len(t), size)]


def _plan(cfg, budget):
    # the kernel calls of a scan of cfg under budget, as scan_interval runs them
    return verifier._grid(cfg, budget)[1]


def _random_config(seed):
    # a scan of 1 to 2000 points at t from e to 1e6, h from 1e-3 to 1 and r
    # from 1e-7, above every call's radius there, to 1e-2
    rng = np.random.default_rng(seed)
    t_lo = math.e * (1e6 / math.e) ** float(rng.uniform())
    h = 10.0 ** float(rng.uniform(-3, 0))
    points = int(rng.integers(1, 2000, endpoint=True))
    r = 10.0 ** float(rng.uniform(-7, -2))
    return ScanConfig(t_lo=t_lo, t_hi=t_lo + (points - 0.5) * h, h=h, r=r)


class TestScanConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(t_lo=2.0, t_hi=10.0)  # below e
        with pytest.raises(ValueError):
            ScanConfig(t_lo=10.0, t_hi=5.0)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=3.0, t_hi=10.0, h=1.5)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=3.0, t_hi=10.0, r=0.02)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=3.0, t_hi=10.0, block=0.0)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=3.0, t_hi=math.inf)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=3.0, t_hi=math.nan)


class TestEvalBlock:
    def test_matches_single_point_evaluator(self):
        # N = a, no more than the head: the call and the one-point calls
        # with that N sum their heads and tails, and their radii, under
        # 1e-11, hold no truncation bound
        pts = np.arange(100.0, 102.0, 0.01)
        n = _em_head(float(pts[-1]), len(pts))
        vals, err = _eval_block(pts, n, _call_plan(pts))
        assert err < 1e-11
        for k in (0, 57, 123, len(pts) - 1):
            one = eval_zeta_certified(float(pts[k]), n)
            assert one.err < 1e-11
            assert abs(vals[k] - one.value) <= err + one.err

    @pytest.mark.parametrize("t0", [math.e, 1e3, 1e5, 2e5])
    @pytest.mark.parametrize("size", [1, 2, 5000])
    def test_against_direct_summation(self, t0, size):
        # the plain sum of the call's head n <= a plus the exact tail past a
        # lies within the radius and its floating-point slack
        pts = t0 + np.arange(size) * 0.01
        n = choose_N(float(pts[-1]), 0.005)
        vals, err = _eval_block(pts, n, _call_plan(pts))
        assert err < 1e-7
        ks = sorted({0, size // 3, size - 1})
        _assert_certified(pts, n, vals, err, ks)
        a = _em_head(float(pts[-1]), size)
        for k in ks:
            t = float(pts[k])
            plain = main_sum(t, a) + _zeta_30(t, a + 1)
            assert abs(vals[k] - plain) <= err + fp_slack(t, a)

    def test_chunk_boundaries(self, monkeypatch):
        pts = 3e3 + np.arange(301) * 0.01
        n = choose_N(float(pts[-1]), 0.005)
        # the head of a = 956 terms (t/pi, over the 301 points) in chunks
        # of 300: three full chunks and a partial
        a = _em_head(float(pts[-1]), len(pts))
        assert a % 300 != 0 and a > 900
        whole, err_whole = _eval_block(pts, n, _call_plan(pts))
        monkeypatch.setattr(zeta_eval, "_KERNEL_CHUNK", 300)
        vals, err = _eval_block(pts, n, _call_plan(pts))
        _assert_certified(pts, n, vals, err, (0, 150, 300))
        assert np.all(np.abs(vals - whole) <= err + err_whole)

    @pytest.mark.parametrize("t0", [1e3, 1e5])
    @pytest.mark.parametrize("size", [4, 5, 1024, 1025])
    def test_power_of_two_sizes(self, t0, size):
        # 2^q points fill the FFT exactly (d = pi/2), 2^q + 1 double it
        pts = t0 + np.arange(size) * 0.01
        n = choose_N(float(pts[-1]), 0.005)
        vals, err = _eval_block(pts, n, _call_plan(pts))
        _assert_certified(pts, n, vals, err, (0, size // 2, size - 1))

    def test_both_sides_of_the_euler_maclaurin_switch(self, monkeypatch):
        # N = a and N = a + 1 both sum the head n <= a and add zeta's
        # closed-form tail at each point, whatever the call's size, to the
        # same bits: N has no effect
        tails = _spy_tails(monkeypatch)
        for t0, size in ((17.7477, 1), (1e3, 1), (1e3, 300), (1e5, 50)):
            pts = t0 + np.arange(size) * 0.01
            a = _em_head(float(pts[-1]), size)
            tails.clear()
            plan = _call_plan(pts)
            (vals, err), (other, other_err) = (_eval_block(pts, n, plan) for n in (a, a + 1))
            assert tails == [size, size]
            assert vals.tobytes() == other.tobytes() and err == other_err
            _assert_certified(pts, a, vals, err, sorted({0, size // 2, size - 1}))

    def test_route_taken_below_twice_the_head(self, monkeypatch):
        # r = 0.1 gives N ~ 0.56 t < 2a, a = t/pi; the route needs only a < N
        tails = _spy_tails(monkeypatch)
        pts = 1e4 + np.arange(100) * 0.01
        n = choose_N(float(pts[-1]), 0.1)
        assert _em_head(float(pts[-1]), 100) < n < 2 * _em_head(float(pts[-1]), 100)
        vals, err = _eval_block(pts, n, _call_plan(pts))
        assert tails == [100]
        _assert_certified(pts, n, vals, err, (0, 50, 99))

    def test_property_against_direct_summation(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tails = _spy_tails(monkeypatch)

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
        @hypothesis.given(
            st.floats(0.5, 5.3), st.integers(1, 3000), st.floats(1e-3, 1e-2)
        )
        def check(log_t, size, r):
            # every call adds the closed-form tail at its points, whatever N
            pts = 10.0**log_t + np.arange(size) * 0.01
            n = choose_N(float(pts[-1]), r)
            tails.clear()
            vals, err = _eval_block(pts, n, _call_plan(pts))
            assert tails == [size]
            _assert_certified(pts, n, vals, err, sorted({0, size // 2, size - 1}))

        check()

    def test_remainder_bound_is_small(self):
        pts = np.arange(50.0, 60.0, 0.01)
        n = choose_N(60.0, 0.005)
        _, err = _eval_block(pts, n, _call_plan(pts))
        assert 0.0 <= err < 1e-9


class TestScanInterval:
    def test_short_interval_shape(self):
        report = scan_interval(ScanConfig(t_lo=math.e, t_hi=3.0))
        assert 28 <= len(report.t) <= 30
        assert np.all(np.isfinite(report.modulus))
        # log e = 1, so the first ratio equals the modulus
        assert report.ratio[0] == pytest.approx(report.modulus[0], rel=1e-14)
        assert report.t[0] == pytest.approx(math.e, rel=1e-15)

    def test_peak_found_on_fine_grid(self):
        cfg = ScanConfig(t_lo=17.0, t_hi=18.0, h=0.0001, r=1e-6)
        report = scan_interval(cfg)
        assert report.max_ratio == pytest.approx(0.6443, abs=2e-4)
        assert report.argmax_t == pytest.approx(17.7477, abs=1e-3)

    def test_certified_against_oracle(self):
        cfg = ScanConfig(t_lo=100.0, t_hi=101.0)
        report = scan_interval(cfg)
        rng = np.random.default_rng(5)
        for k in rng.integers(0, len(report.t), 12):
            ref = oracle_zeta(float(report.t[k]), 1e-10)
            assert abs(report.modulus[k] - ref.modulus) <= report.err[k] + 1e-10

    def test_err_within_target(self):
        cfg = ScanConfig(t_lo=100.0, t_hi=105.0, r=0.005)
        report = scan_interval(cfg)
        assert np.all(report.err <= cfg.r + 1e-6)

    def test_block_n_meets_target(self):
        cfg = ScanConfig(t_lo=math.e, t_hi=350.0, block=100.0)
        for hi in (102.7, 202.7, 302.7, 350.0):
            assert error_bound(hi, choose_N(hi, cfg.r)) <= cfg.r

    def test_deterministic(self):
        cfg = ScanConfig(t_lo=40.0, t_hi=45.0)
        a = scan_interval(cfg)
        b = scan_interval(cfg)
        assert np.array_equal(a.modulus, b.modulus)
        assert np.array_equal(a.err, b.err)

    def test_workers_bit_identical(self):
        for cfg in (
            ScanConfig(t_lo=math.e, t_hi=420.0, h=0.05, block=50.0),
            # N ~ 7.5e4 spans two n-chunks of the block kernel
            ScanConfig(t_lo=3e4, t_hi=3e4 + 3.0, h=0.01, block=1.0),
        ):
            seq = scan_interval(cfg)
            par = scan_interval(cfg, workers=2)
            assert seq.modulus.tobytes() == par.modulus.tobytes()
            assert seq.err.tobytes() == par.err.tobytes()
            assert seq.max_ratio == par.max_ratio

    def test_workers_bit_identical_multi_chunk_head(self):
        # a call at t = 3e5 takes the Euler-Maclaurin route, whose head
        # a ~ 3e5/pi spans two n-chunks of the block kernel
        assert _em_head(3e5 + 1.0, 101) > zeta_eval._KERNEL_CHUNK
        cfg = ScanConfig(t_lo=3e5, t_hi=3e5 + 1.0, h=0.01, block=0.5)
        seq = scan_interval(cfg)
        par = scan_interval(cfg, workers=2)
        assert seq.modulus.tobytes() == par.modulus.tobytes()
        assert seq.err.tobytes() == par.err.tobytes()

    def test_workers_bit_identical_merged_calls(self, monkeypatch):
        # with at most 60 points per call, the config above, in blocks of
        # 50, 50 and 1 points, runs as two calls of 60 and 41 points that
        # each span two blocks
        cfg = ScanConfig(t_lo=1e5, t_hi=1e5 + 1.0, h=0.01, block=0.5)
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 60)
        calls = _record_calls(monkeypatch)
        seq = scan_interval(cfg)
        assert [len(pts) for pts, _, _, _ in calls] == [60, 41]
        for workers in (2, 3):  # as many threads as calls, and more
            par = scan_interval(cfg, workers=workers)
            assert seq.modulus.tobytes() == par.modulus.tobytes()
            assert seq.err.tobytes() == par.err.tobytes()

    def test_r_below_the_radius_floor_refused(self, monkeypatch):
        # the one 101-point call at t = 1e6 returns the radius 5.421e-8 at
        # every point, known before the sum: r = 1e-8 is refused, naming
        # it, before any kernel call, and above it every err is that radius
        calls = _record_calls(monkeypatch)
        cfg = ScanConfig(t_lo=1e6, t_hi=1e6 + 1.0, r=1e-8)
        with pytest.raises(ValueError, match=r"radius 5\.421e-08 of the kernel call"):
            scan_interval(cfg, budget=math.inf)
        assert calls == []
        report = scan_interval(ScanConfig(t_lo=1e6, t_hi=1e6 + 1.0, r=7e-8), budget=math.inf)
        [(pts, _, _, _)] = calls
        radius = zeta_eval._call_plan(pts).radius
        assert radius == pytest.approx(5.421e-8, abs=1e-11)
        assert np.all(report.err == radius)

    def test_every_call_floor_checked_before_the_first_call(self, monkeypatch):
        # at h = 1 over [1e6, 1.2e6] the plan has 13 calls whose radii rise
        # with t: an r between the first call's radius and the last one's
        # is refused, naming a later call's radius, before any kernel call
        cfg = ScanConfig(t_lo=1e6, t_hi=1.2e6, h=1.0, r=1e-7)
        plan = _plan(cfg, math.inf)
        t = cfg.t_lo + np.arange(plan[-1][1] + 1) * cfg.h
        radii = [zeta_eval._call_plan(t[lo:hi + 1]).radius for lo, hi in plan]
        assert len(plan) == 13 and radii[0] < radii[-1]
        r = math.sqrt(radii[0] * radii[-1])
        calls = _record_calls(monkeypatch)
        with pytest.raises(ValueError, match="radius") as refused:
            scan_interval(ScanConfig(t_lo=1e6, t_hi=1.2e6, h=1.0, r=r), budget=math.inf)
        assert calls == []
        named = float(str(refused.value).split("radius ")[1].split()[0])
        assert named > r and named == pytest.approx(min(x for x in radii if x > r), rel=1e-3)

    def test_r_above_the_grid_terms_below_the_radius_refused(self, monkeypatch):
        # 5.36e-8 is above the call's grid and phase terms (5.355e-8) but
        # below the radius it returns: refused, naming that radius, before
        # any kernel call
        calls = _record_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"radius 5\.421e-08"):
            scan_interval(ScanConfig(t_lo=1e6, t_hi=1e6 + 1.0, r=5.36e-8), budget=math.inf)
        assert calls == []

    @pytest.mark.parametrize("cfg", [ScanConfig(t_lo=1e6, t_hi=1e6 + 1.0, r=5.43e-8)] + [
        _random_config(seed) for seed in range(8)
    ])
    def test_r_is_a_ceiling_on_every_radius(self, monkeypatch, cfg):
        # each planned call runs the _call_plan of its points and returns its
        # radius, bit for bit, and an accepted r holds them all
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 700)
        plan = _plan(cfg, math.inf)
        calls = _record_calls(monkeypatch)
        report = scan_interval(cfg, budget=math.inf)
        assert len(calls) == len(plan)
        for pts, _, handed, err in calls:
            assert handed == zeta_eval._call_plan(pts)
            assert type(err) is float and err == zeta_eval._call_plan(pts).radius
        assert report.err.max() <= cfg.r

    def test_workers_must_be_positive(self):
        cfg = ScanConfig(t_lo=10.0, t_hi=11.0)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                scan_interval(cfg, workers=workers)

    def test_budget_enforced(self):
        cfg = ScanConfig(t_lo=math.e, t_hi=100.0)
        with pytest.raises(ResourceBudgetError):
            scan_interval(cfg, budget=1e3)

    def test_budget_must_be_positive(self):
        # nan would pass every budget comparison and switch the budget off;
        # this grid is one the default budget refuses
        cfg = ScanConfig(t_lo=2.72, t_hi=1e6, h=1e-9)
        for budget in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="budget"):
                scan_interval(cfg, budget=budget)
        small = ScanConfig(t_lo=10.0, t_hi=10.1)
        assert len(scan_interval(small, budget=math.inf).t) == 11

    def test_infinite_budget_fails_fast_on_a_grid_memory_cannot_hold(self):
        # budget=inf counts nothing, and the 1e15 + 1 points of [1e15, 2e15]
        # at h = 1 fail as numpy refuses to build the grid, before ~6e10
        # calls would be listed one by one.  Run apart with a timeout, as a
        # regression hangs rather than fails
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import math\n"
            "from zetabound import ScanConfig, scan_interval\n"
            "try:\n"
            "    scan_interval(ScanConfig(t_lo=1e15, t_hi=2e15, h=1.0), budget=math.inf)\n"
            "except MemoryError:\n"
            "    print('MemoryError')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "MemoryError\n"

    def test_bound_must_be_finite(self):
        # a nan margin would read as "violated" rather than as bad input
        cfg = ScanConfig(t_lo=10.0, t_hi=11.0)
        for bound in ((math.nan, 0.0), (0.5, math.inf), (-math.inf, 0.6633)):
            with pytest.raises(ValueError, match="finite"):
                scan_interval(cfg, bound=bound)
        with pytest.raises(ValueError, match="finite"):
            check_bound(math.e, 20.0, math.nan, 0.0)

    def test_oversized_grid_refused_before_allocation(self):
        # 1e15 points, about 7 PiB for t alone
        cfg = ScanConfig(t_lo=2.72, t_hi=1e6, h=1e-9)
        with pytest.raises(ResourceBudgetError, match="kernel passes"):
            scan_interval(cfg)
        with pytest.raises(ResourceBudgetError, match="kernel passes"):
            scan_interval(ScanConfig(t_lo=1e300, t_hi=2e300, h=1.0))

    @pytest.mark.parametrize(
        "t_lo, t_hi", [(1e300, 2e300), (1e17, 1e17 + 64.0)], ids=["1e300", "1e17"]
    )
    def test_step_below_float_spacing_refused(self, monkeypatch, t_lo, t_hi):
        # t_lo + k h repeats points where h is below the float spacing at
        # t_hi (65 points take 5 values at 1e17): refused at any budget,
        # before any kernel call, rather than walked one index at a time
        calls = _record_calls(monkeypatch)
        with pytest.raises(ValueError, match="below the float spacing"):
            scan_interval(ScanConfig(t_lo=t_lo, t_hi=t_hi, h=1.0), budget=math.inf)
        assert calls == []

    def test_exact_count_refused_before_any_array(self):
        # 4.7e9 points in 2.9e5 kernel calls are charged 1.19e11 kernel
        # passes, over the default budget: refused without building the grid
        tracemalloc = pytest.importorskip("tracemalloc")
        cfg = ScanConfig(t_lo=2.72, t_hi=50.0, h=1e-8, r=0.01)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetError, match=r"1\.185e\+11 kernel passes"):
                scan_interval(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("cfg", [
        ScanConfig(t_lo=10.0, t_hi=40.0),
        ScanConfig(t_lo=math.e, t_hi=1e4),
        ScanConfig(t_lo=1e5, t_hi=1e5 + 400.0),
        ScanConfig(t_lo=1e6, t_hi=1e6 + 200.0),
    ], ids=["one-call", "e-1e4", "1e5", "1e6"])
    def test_charge_bounds_the_passes_of_the_calls(self, cfg):
        # a call of K points makes (p+1) a + m K passes, p+1 = len(plan.rho):
        # the charge holds their sum over the calls, and the budget admits
        # the scan at its charge and refuses it just below
        t, calls = verifier._grid(cfg, math.inf)
        exact = 0
        for lo, hi in calls:
            plan = _call_plan(t[lo:hi + 1])
            exact += len(plan.rho) * plan.a + plan.m * (hi - lo + 1)
        charge = verifier._charge(float(len(t)), cfg.t_hi)
        assert charge >= exact
        assert len(verifier._grid(cfg, charge)[0]) == len(t)
        with pytest.raises(ResourceBudgetError, match="kernel passes"):
            verifier._grid(cfg, charge * (1.0 - 1e-12))

    @pytest.mark.parametrize("t", [1e12, 1e300])
    def test_a_one_point_scan_is_charged_as_a_point_evaluation(self, t):
        # one head pass over a = ceil(t/pi) terms and 25 tail levels, in the
        # unit and at the figure a point evaluation is refused with, before
        # any sum
        charge = verifier._charge(1.0, t)
        assert charge == zeta_eval._call_passes(t, 1) == math.ceil(t / math.pi) + 25.0
        refusal = re.escape(f"charges {charge:.3e} kernel passes")
        with pytest.raises(ResourceBudgetError, match=refusal):
            zeta_eval._point_plan(t)

    def test_head_passes_bound_the_widest_expansion(self):
        # the charge takes p+1 <= 16 passes per head term: the widest
        # expansion, 2^14 points over the least head a = 64, takes all 16
        for h in (1e-8, 0.01, 1.0):
            for a in (64, 10**3, 10**6):
                p = zeta_eval._transform(verifier._KERNEL_POINTS, h, a)[2]
                assert p + 1 <= zeta_eval._HEAD_PASSES
        assert zeta_eval._transform(verifier._KERNEL_POINTS, 0.01, 64)[2] + 1 == 16

    def test_full_range_and_fine_radius_admitted_at_the_default_budget(self, monkeypatch):
        # [e, 1e6] at h = 0.01 is charged 3.36e10 passes, under 5e10.  Its
        # 1e8-point grid is not built here: with physical memory read as
        # 0 B, _grid passes the budget and the float spacing and stops at
        # the memory check, before any array
        cfg = ScanConfig(t_lo=math.e, t_hi=1e6)
        points = math.floor((cfg.t_hi - cfg.t_lo) / cfg.h + 1e-9) + 1
        charge = verifier._charge(float(points), cfg.t_hi)
        assert charge == pytest.approx(3.359e10, rel=1e-3)
        monkeypatch.setattr(verifier, "_physical_memory", lambda: 0.0)
        with pytest.raises(MemoryError, match="physical memory"):
            verifier._grid(cfg, verifier.DEFAULT_BUDGET)
        monkeypatch.undo()
        # at r = 1e-8, [1e6, 1e6 + 1] is one 101-point call, charged 5.1e6
        t, calls = verifier._grid(ScanConfig(t_lo=1e6, t_hi=1e6 + 1.0, r=1e-8),
                                  verifier.DEFAULT_BUDGET)
        assert len(t) == 101 and calls == [(0, 100)]
        assert verifier._charge(101.0, 1e6 + 1.0) == pytest.approx(5.096e6, rel=1e-3)

    def test_r_changes_no_charge(self):
        # r caps the radius only: at every r the scan is admitted at one
        # charge and refused just below it
        base = ScanConfig(t_lo=1e5, t_hi=1e5 + 10.0)
        charge = verifier._charge(1001.0, base.t_hi)
        for r in (1e-8, 1e-4, 0.01):
            cfg = ScanConfig(t_lo=base.t_lo, t_hi=base.t_hi, r=r)
            assert len(verifier._grid(cfg, charge)[0]) == 1001
            with pytest.raises(ResourceBudgetError, match="kernel passes"):
                verifier._grid(cfg, charge * (1.0 - 1e-12))

    def test_grid_over_physical_memory_refused_before_any_array(self, monkeypatch):
        # [2.72, 10] at h = 1e-8: 7.28e8 points, charged 1.8e10 passes,
        # which the default budget admits, but 24 B a point of arrays
        # (17.5 GB) is over physical memory, here read as 8 GiB
        tracemalloc = pytest.importorskip("tracemalloc")
        monkeypatch.setattr(verifier, "_physical_memory", lambda: float(8 << 30))
        cfg = ScanConfig(t_lo=2.72, t_hi=10.0, h=1e-8)
        assert verifier._charge(7.28e8, cfg.t_hi) < verifier.DEFAULT_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="physical memory"):
                scan_interval(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # 11 points take 264 B: admitted at exactly that, refused below it
        small = ScanConfig(t_lo=10.0, t_hi=10.1)
        monkeypatch.setattr(verifier, "_physical_memory", lambda: 264.0)
        assert len(scan_interval(small).t) == 11
        monkeypatch.setattr(verifier, "_physical_memory", lambda: 263.0)
        with pytest.raises(MemoryError):
            scan_interval(small)

    def test_physical_memory_unknown_is_no_limit(self, monkeypatch):
        # where os.sysconf gives no figure, no grid is refused for memory
        def unavailable(name):
            raise ValueError(name)

        monkeypatch.setattr(verifier.os, "sysconf", unavailable)
        assert verifier._physical_memory() == math.inf

    def test_wide_block_split_into_capped_kernel_calls(self, monkeypatch):
        # 3001 points in one call; at a cap of 1000 points per kernel call
        # they become four calls, each with the N of its last point
        cfg = ScanConfig(t_lo=100.0, t_hi=130.0, h=0.01)
        calls = _record_calls(monkeypatch)
        whole = scan_interval(cfg)
        [(pts, n_whole, _, _)] = calls
        assert len(pts) == 3001 and n_whole == choose_N(float(pts[-1]), cfg.r)
        calls.clear()
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 1000)
        capped = scan_interval(cfg)
        assert [(len(pts), n) for pts, n, _, _ in calls] == [
            (size, choose_N(float(whole.t[hi]), cfg.r))
            for size, hi in ((1000, 999), (1000, 1999), (1000, 2999), (1, 3000))
        ]
        assert calls[-1][1] == n_whole
        assert np.all(np.abs(capped.modulus - whole.modulus) <= capped.err + whole.err)

    def test_euler_maclaurin_blocks_share_one_kernel_call(self, monkeypatch):
        # 10001 points: one head over n <= a serves them all, and agrees
        # with separate calls on blocks of 5000, 5000 and 1 of them
        cfg = ScanConfig(t_lo=1.3e5, t_hi=1.3e5 + 100.0)
        calls = _record_calls(monkeypatch)
        check_bound(cfg.t_lo, cfg.t_hi, 0.5, 0.6633, config=cfg)
        assert len(calls) == 1
        monkeypatch.setattr(verifier, "_MEMO", {})  # or the scan below reuses the check's call
        report = scan_interval(cfg)
        [(pts, n_max, _, err)] = calls[1:]
        t = report.t
        assert len(t) == 10001 and n_max == choose_N(float(t[-1]), cfg.r)
        # each point's radius is the call's, which holds no truncation bound
        assert np.all(report.err == err)
        assert err < 1e-7
        for lo, hi in ((0, 4999), (5000, 9999), (10000, 10000)):
            n = choose_N(float(t[hi]), cfg.r)
            seg = slice(lo, hi + 1)
            vals, err_block = _eval_block(t[seg], n, _call_plan(t[seg]))
            assert np.all(np.abs(report.modulus[seg] - np.abs(vals)) <= err + err_block)
        for k in (0, 5000, 10000):
            assert abs(report.modulus[k] - abs(_zeta_30(float(t[k])))) <= err

    def test_joined_calls_take_the_euler_maclaurin_route(self, monkeypatch):
        # at r = 0.01 the points below t ~ 34.7 have N <= a = 64.  In runs
        # of 2500 points the first run holds only such points, the second
        # joins some of them to points with N > a, and every run sums its
        # head n <= a and adds zeta's closed-form tail, with the N of its
        # last point as its nominal count
        cfg = ScanConfig(t_lo=math.e, t_hi=60.0, r=0.01)
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 2500)
        plan = _plan(cfg, math.inf)
        calls = _record_calls(monkeypatch)
        tails = _spy_tails(monkeypatch)
        report = scan_interval(cfg)
        t = report.t
        assert plan == _runs(t) == [(0, 2499), (2500, 4999), (5000, len(t) - 1)]
        assert [(len(pts), n) for pts, n, _, _ in calls] == [
            (hi - lo + 1, choose_N(float(t[hi]), cfg.r)) for lo, hi in plan
        ]
        assert tails == [hi - lo + 1 for lo, hi in plan]

        def within_head(k):  # a = 64 for any call ending at t <= 60
            return choose_N(float(t[k]), cfg.r) <= _em_head(float(t[k]), 1)

        assert [(within_head(lo), within_head(hi)) for lo, hi in plan] == [
            (True, True), (True, False), (False, False)
        ]
        # no run's radius holds a truncation bound
        assert report.err.max() < 1e-7
        for k in (0, 2499, 2500, 2999, 3000, len(t) - 1):
            assert abs(report.modulus[k] - abs(_zeta_30(float(t[k])))) <= report.err[k]

    def test_plan_runs_carry_the_n_of_their_last_block(self, monkeypatch):
        # the default config on [e, 1e4]: fixed calls of _KERNEL_POINTS
        # points and a shorter last one, each with the N of its last point
        cfg = ScanConfig(t_lo=math.e, t_hi=1e4)
        K = math.floor((cfg.t_hi - cfg.t_lo) / cfg.h + 1e-9)
        t = cfg.t_lo + np.arange(K + 1, dtype=np.float64) * cfg.h
        plan = _plan(cfg, verifier.DEFAULT_BUDGET)
        assert len(plan) == 62 and plan == _runs(t)
        calls = _record_calls(monkeypatch)
        check_bound(cfg.t_lo, cfg.t_hi, 0.5, 0.6633, config=cfg)
        assert [(float(pts[0]), len(pts), n) for pts, n, _, _ in calls] == [
            (float(t[lo]), hi - lo + 1, choose_N(float(t[hi]), cfg.r)) for lo, hi in plan
        ]

    def test_margins_present_only_with_bound(self):
        cfg = ScanConfig(t_lo=10.0, t_hi=11.0)
        plain = scan_interval(cfg)
        assert plain.min_margin is None and plain.argmin_t is None
        assert plain.margin is None
        bounded = scan_interval(cfg, bound=(0.5, 0.6633))
        assert bounded.min_margin is not None
        assert cfg.t_lo <= bounded.argmin_t <= cfg.t_hi
        expected = 0.5 * np.log(bounded.t) + 0.6633 - (bounded.modulus + bounded.err)
        assert bounded.margin.tobytes() == expected.tobytes()
        assert bounded.margin.min() == bounded.min_margin

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t_lo, t_hi, bound", [
        (math.e, 2000.0, None),
        (math.e, 2000.0, (0.5, 0.6633)),
        (math.e, 1e4, (0.5, 0.6633)),
        (1e5, 1e5 + 100.0, (0.5, 0.6633)),
        (1e6, 1e6 + 50.0, (0.5, 0.6633)),
    ], ids=["e-2000", "e-2000-bound", "e-1e4", "1e5", "1e6"])
    def test_derived_columns_and_summaries_match_the_whole_grid(self, t_lo, t_hi, bound,
                                                                workers):
        # ratio and margin are formed on first read and the summaries
        # reduced call by call: the bytes of the whole-grid operations, and
        # the first argmax / argmin over them
        cfg = ScanConfig(t_lo=t_lo, t_hi=t_hi)
        report = scan_interval(cfg, bound, budget=math.inf, workers=workers)
        t, modulus, err = report.t, report.modulus, report.err
        ratio = modulus / np.log(t)
        assert report.ratio.tobytes() == ratio.tobytes()
        k = int(np.argmax(ratio))
        assert (report.max_ratio, report.argmax_t) == (ratio[k], t[k])
        if bound is None:
            assert report.margin is report.min_margin is report.argmin_t is None
            return
        margin = bound[0] * np.log(t) + bound[1] - (modulus + err)
        assert report.margin.tobytes() == margin.tobytes()
        k = int(np.argmin(margin))
        assert (report.min_margin, report.argmin_t) == (margin[k], t[k])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ties_across_calls_go_to_the_earlier_point(self, monkeypatch, workers):
        # zero moduli and one radius for every call: every ratio is 0 and
        # every margin -radius, so each call's first point ties with the
        # grid's first, which np.argmax and np.argmin pick
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 100)
        plan = verifier._call_plan
        monkeypatch.setattr(verifier, "_call_plan", lambda pts: plan(pts)._replace(radius=1e-3))
        monkeypatch.setattr(verifier, "_eval_block",
                            lambda pts, n, p: (np.zeros(len(pts)), p.radius))
        report = scan_interval(ScanConfig(t_lo=10.0, t_hi=15.0), (0.0, 0.0), workers=workers)
        assert len(_runs(report.t)) == 6
        assert report.argmax_t == report.argmin_t == report.t[0]
        assert (report.max_ratio, report.min_margin) == (0.0, -1e-3)

    def test_check_bound_holds_three_arrays_a_point(self):
        # check_bound reads only the summaries, so its scan keeps t, modulus
        # and err, 24 B a point, and never forms ratio or margin: on [e, 1e4]
        # (999 729 points) it peaks within that plus 8 MiB of kernel work
        tracemalloc = pytest.importorskip("tracemalloc")
        assert verifier._POINT_BYTES == 24
        tracemalloc.start()
        try:
            check_bound(math.e, 1e4, 0.5, 0.6633)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 999_729 * 24 + (8 << 20)


def _count_plans(monkeypatch):
    # the points of every _call_plan, by either module's name for it, and of
    # every kernel call in zeta_eval (point evaluations and the CLI eval)
    planned, kernel_calls = [], []
    plan, kernel = zeta_eval._call_plan, zeta_eval._eval_block

    def counted_plan(t_pts):
        planned.append(t_pts.copy())
        return plan(t_pts)

    def counted_kernel(t_pts, n, handed):
        kernel_calls.append((t_pts.copy(), handed))
        return kernel(t_pts, n, handed)

    for module in (zeta_eval, verifier):
        monkeypatch.setattr(module, "_call_plan", counted_plan)
    monkeypatch.setattr(zeta_eval, "_eval_block", counted_kernel)
    return planned, kernel_calls


class TestOnePlanPerCall:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_scan_plans_each_call_once(self, monkeypatch, workers):
        # 1001 points in calls of 400: three calls, each planned once, in
        # its r check, and run on that plan, on one thread or on a pool
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 400)
        plan = zeta_eval._call_plan
        planned, _ = _count_plans(monkeypatch)
        calls = _record_calls(monkeypatch)
        report = scan_interval(ScanConfig(t_lo=100.0, t_hi=110.0), workers=workers)
        assert len(report.t) == 1001 and len(calls) == 3
        # on a pool the calls may finish, and be recorded, out of order
        calls.sort(key=lambda call: float(call[0][0]))
        assert [p.tobytes() for p in planned] == [pts.tobytes() for pts, _, _, _ in calls]
        for pts, _, handed, err in calls:
            assert handed == plan(pts) and err == handed.radius

    def test_point_evaluation_plans_once(self, monkeypatch):
        plan = zeta_eval._call_plan
        planned, kernel_calls = _count_plans(monkeypatch)
        cert = eval_zeta_certified(17.7477, 10)
        [(pts, handed)] = kernel_calls
        assert [p.tobytes() for p in planned] == [pts.tobytes()]
        assert handed == plan(pts) and cert.err == handed.radius

    def test_cli_eval_plans_once(self, monkeypatch, capsys):
        # the plan the CLI checks --r and the head budget against is the one it runs
        from zetabound import cli

        plan = zeta_eval._call_plan
        planned, kernel_calls = _count_plans(monkeypatch)
        assert cli.main(["--format", "json", "eval", "--t", "1e3", "--r", "1e-8"]) == 0
        [row] = json.loads(capsys.readouterr().out)["rows"]
        assert row["err"] == plan(np.array([1e3])).radius
        [(pts, handed)] = kernel_calls
        assert [p.tobytes() for p in planned] == [pts.tobytes()]
        assert handed == plan(pts)


class TestCallMemo:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_scan_runs_only_the_calls_an_earlier_scan_did_not(self, monkeypatch, workers):
        # in calls of 500 points, [e, 30] and [e, 60] share their first five
        # calls (the sixth of [e, 30] is shorter): after [e, 30], the scan of
        # [e, 60] runs only its last seven calls, and its report is the
        # bytes of a cold scan's
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 500)
        wide = ScanConfig(t_lo=math.e, t_hi=60.0)
        cold = scan_interval(wide, bound=(0.5, 0.6633))
        monkeypatch.setattr(verifier, "_MEMO", {})
        scan_interval(ScanConfig(t_lo=math.e, t_hi=30.0), workers=workers)
        calls = _record_calls(monkeypatch)
        warm = scan_interval(wide, bound=(0.5, 0.6633), workers=workers)
        calls.sort(key=lambda call: float(call[0][0]))  # a pool may finish out of order
        runs = _runs(cold.t)
        assert len(runs) == 12
        assert [pts.tobytes() for pts, _, _, _ in calls] == [
            cold.t[lo:hi + 1].tobytes() for lo, hi in runs[5:]
        ]
        for name in ("t", "modulus", "err", "ratio", "margin"):
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes()
        assert (warm.max_ratio, warm.argmax_t, warm.min_margin, warm.argmin_t) == (
            cold.max_ratio, cold.argmax_t, cold.min_margin, cold.argmin_t
        )

    @pytest.mark.parametrize("cfg, points", [
        (ScanConfig(t_lo=math.e, t_hi=420.0, h=0.05), 3000),
        (ScanConfig(t_lo=3e4, t_hi=3e4 + 3.0), 1 << 14),
        (ScanConfig(t_lo=3e5, t_hi=3e5 + 1.0), 60),  # a head of two n-chunks
    ], ids=["e-420", "3e4", "3e5"])
    def test_cold_scans_bit_identical_at_any_workers(self, monkeypatch, cfg, points):
        # the second scan of test_workers_bit_identical* reuses the first's
        # calls; here each scan starts from an empty memo and runs every
        # call, on one thread or on a pool
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", points)
        calls = _record_calls(monkeypatch)
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(verifier, "_MEMO", {})
            calls.clear()
            reports.append(scan_interval(cfg, workers=workers))
            assert len(calls) == len(_runs(reports[-1].t))
        seq = reports[0]
        for par in reports[1:]:
            assert seq.modulus.tobytes() == par.modulus.tobytes()
            assert seq.err.tobytes() == par.err.tobytes()

    @pytest.mark.parametrize("other", [
        ScanConfig(t_lo=40.0, t_hi=50.0, h=0.02),
        ScanConfig(t_lo=40.005, t_hi=45.005),
    ], ids=["h", "t_lo"])
    def test_a_call_is_reused_only_on_its_own_grid(self, monkeypatch, other):
        # the one call of [40, 45] has k = 0..500, as has the call of a grid
        # with another h or t_lo, whose points differ: that call runs
        scan_interval(ScanConfig(t_lo=40.0, t_hi=45.0))
        calls = _record_calls(monkeypatch)
        report = scan_interval(other)
        assert len(report.t) == 501 and len(calls) == 1
        monkeypatch.setattr(verifier, "_MEMO", {})
        assert scan_interval(other).modulus.tobytes() == report.modulus.tobytes()

    def test_r_below_a_remembered_radius_refused(self, monkeypatch):
        # the call at t = 1e6 is remembered with its radius 5.421e-8: r = 1e-8
        # is refused, naming that radius, with no plan made and no kernel call
        scan_interval(ScanConfig(t_lo=1e6, t_hi=1e6 + 1.0, r=7e-8), budget=math.inf)
        planned, _ = _count_plans(monkeypatch)
        calls = _record_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"radius 5\.421e-08 of the kernel call"):
            scan_interval(ScanConfig(t_lo=1e6, t_hi=1e6 + 1.0, r=1e-8), budget=math.inf)
        assert planned == [] and calls == []

    def test_memo_holds_at_most_its_bound(self, monkeypatch):
        # [e, 3000] makes 19 calls, more than the 16 the bound holds: the
        # memo keeps the first calls within it, so a rescan reruns only the
        # last three calls
        cfg = ScanConfig(t_lo=math.e, t_hi=3000.0)
        first = scan_interval(cfg)
        runs = _runs(first.t)
        assert len(runs) == 19 and verifier._MEMO_CALLS == 16
        assert len(verifier._MEMO) <= verifier._MEMO_CALLS
        calls = _record_calls(monkeypatch)
        again = scan_interval(cfg)
        assert [float(pts[0]) for pts, _, _, _ in calls] == [
            float(first.t[lo]) for lo, _ in runs[-3:]
        ]
        assert len(verifier._MEMO) <= verifier._MEMO_CALLS
        assert again.modulus.tobytes() == first.modulus.tobytes()

    def test_the_last_scan_publishes_its_first_calls(self, monkeypatch):
        # with room for three calls of 100 points: after the 19 calls of
        # [e, e + 18.99] the memo holds its first three only, a rescan runs
        # the other 16, and a scan of another grid replaces the map
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 100)
        monkeypatch.setattr(verifier, "_MEMO_CALLS", 3)
        cfg = ScanConfig(t_lo=math.e, t_hi=math.e + 18.99)
        first = scan_interval(cfg)
        runs = _runs(first.t)
        assert len(runs) == 19
        assert list(verifier._MEMO) == [(cfg.t_lo, cfg.h, lo, hi) for lo, hi in runs[:3]]
        calls = _record_calls(monkeypatch)
        scan_interval(cfg)
        assert [float(pts[0]) for pts, _, _, _ in calls] == [
            float(first.t[lo]) for lo, _ in runs[3:]
        ]
        published = verifier._MEMO
        scan_interval(ScanConfig(t_lo=10.0, t_hi=10.99))
        assert list(verifier._MEMO) == [(10.0, 0.01, 0, 99)]
        assert len(published) == 3  # replaced, not changed

    def test_writing_into_a_report_leaves_later_scans_unchanged(self, monkeypatch):
        # the memo keeps a read-only copy of a call's moduli, not the report's
        cfg = ScanConfig(t_lo=40.0, t_hi=45.0)
        first = scan_interval(cfg)
        expected = first.modulus.tobytes()
        first.modulus[:] = 0.0
        _, stored = verifier._MEMO.get((cfg.t_lo, cfg.h, 0, 500))
        assert not stored.flags.writeable
        calls = _record_calls(monkeypatch)
        assert scan_interval(cfg).modulus.tobytes() == expected
        assert calls == []

    def test_concurrent_scans_share_the_memo_safely(self, monkeypatch):
        # four threads scan three grids that share calls, in calls of 50
        # points, while the memo holds at most 8 calls, with a short switch
        # interval, so lookups, stores and drops interleave: every report
        # is a cold scan's, and the memo stays within its bound
        monkeypatch.setattr(verifier, "_KERNEL_POINTS", 50)
        monkeypatch.setattr(verifier, "_MEMO_CALLS", 8)
        cfgs = [ScanConfig(t_lo=math.e, t_hi=math.e + width) for width in (3.0, 4.0, 5.0)]
        cold = []
        for cfg in cfgs:
            monkeypatch.setattr(verifier, "_MEMO", {})
            cold.append(scan_interval(cfg).modulus.tobytes())
        monkeypatch.setattr(verifier, "_MEMO", {})

        def scans(offset):
            wrong = []
            for k in range(12):
                i = (k + offset) % len(cfgs)
                if scan_interval(cfgs[i], workers=1 + k % 2).modulus.tobytes() != cold[i]:
                    wrong.append(i)
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(scans, offset) for offset in range(4)]
                assert [f.result(timeout=120) for f in futures] == [[]] * 4
        finally:
            sys.setswitchinterval(interval)
        assert len(verifier._MEMO) <= 8

    @pytest.mark.parametrize("order, warm", [
        ("peak crossing check", 63),
        ("check peak crossing", 63),
        ("crossing check peak", 64),
    ], ids=["peak-crossing-check", "check-peak-crossing", "crossing-check-peak"])
    def test_the_paper_scans_share_their_first_calls(self, monkeypatch, order, warm):
        # the peak and the crossing scan [e, 2000] and the affine check
        # [e, 1e4], all at h = 0.01: in one process, in any order, they make
        # at most 64 kernel calls, against 88 from an empty memo each, with
        # the same results
        scans = {
            "peak": lambda: max_ratio(math.e, 2000.0, 0.01, 1e-4),
            "crossing": lambda: crossing_point(0.5480, math.e, 2000.0),
            "check": lambda: check_bound(math.e, 1e4, 0.5, 0.6633).worst_margin,
        }
        calls = _record_calls(monkeypatch)
        results = {}
        for cold in (False, True):
            monkeypatch.setattr(verifier, "_MEMO", {})
            calls.clear()
            found = {}
            for name in order.split():
                if cold:
                    monkeypatch.setattr(verifier, "_MEMO", {})
                found[name] = scans[name]()
            results[cold] = (len(calls), found)
        found = {"peak": (17.747695890959044, 0.6442912339129055),
                 "crossing": 652.3704769578535, "check": 0.15022012530594075}
        assert results == {False: (warm, found), True: (88, found)}


class TestAgainstMpmath:
    @pytest.mark.parametrize("t_lo", [math.e, 1e3, 1e4, 1e5])
    def test_scan_certificates_at_30_digits(self, t_lo):
        mpmath = pytest.importorskip("mpmath")
        for r in (1e-5, 0.005):
            cfg = ScanConfig(t_lo=t_lo, t_hi=t_lo + 1.0, r=r)
            report = scan_interval(cfg)
            with mpmath.workdps(30):
                for k in (0, 37, len(report.t) - 1):
                    ref = abs(mpmath.zeta(mpmath.mpc(1, float(report.t[k]))))
                    assert abs(report.modulus[k] - float(ref)) <= report.err[k]
            # the radius holds no truncation bound, whatever r
            assert report.err.max() < 1e-7


class TestMaxRatio:
    def test_global_peak_small_range(self):
        t_star, ratio = max_ratio(math.e, 100.0, 0.01, 1e-4)
        assert t_star == pytest.approx(17.7477, abs=1e-3)
        assert ratio == pytest.approx(0.6443, abs=2e-4)

    def test_local_max_away_from_peak(self):
        _, ratio = max_ratio(18.0, 20.0, 0.01, 1e-4)
        assert ratio < 0.6443

    def test_monotone_refinement(self):
        cfg = ScanConfig(t_lo=17.0, t_hi=18.5, h=0.01, r=1e-4)
        coarse = scan_interval(cfg)
        _, refined = max_ratio(17.0, 18.5, 0.01, 1e-6)
        # the refined peak dominates every certified coarse sample
        assert refined >= coarse.max_ratio - cfg.r / math.log(17.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            max_ratio(2.0, 10.0, 0.01, 1e-4)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_rejects_bad_refine_tol(self, tol):
        with pytest.raises(ValueError, match="refine_tol"):
            max_ratio(17.0, 18.5, 0.01, tol)

    def test_tol_below_float_resolution_terminates(self):
        t_star, ratio = max_ratio(17.0, 18.5, 0.01, 1e-300)
        assert t_star == pytest.approx(17.7477, abs=1e-3)
        assert ratio == pytest.approx(0.6443, abs=2e-4)

    def test_bimodal_bracket_finds_tall_peak(self, monkeypatch):
        # inside the coarse bracket [17.70, 17.80]: a wide low peak at 17.74
        # and a narrow tall one at 17.79 that only the grid points see
        def two_peaks(t):
            wide = 0.01 * math.exp(-(((t - 17.74) / 0.05) ** 2))
            tall = 0.03 * math.exp(-(((t - 17.79) / 0.002) ** 2))
            return 0.6 + wide + tall

        monkeypatch.setattr(verifier, "_accurate_ratio", two_peaks)
        t_star, ratio = max_ratio(17.0, 18.5, 0.01, 1e-4)
        assert t_star == pytest.approx(17.79, abs=1e-4)
        assert ratio > 0.629


class TestCheckBound:
    def test_tight_vlog_bound_holds(self):
        # the headroom at the peak is ~2.6e-5, so the certification radius
        # folded into the margin must sit well below it
        cfg = ScanConfig(t_lo=math.e, t_hi=100.0, r=1e-4)
        res = check_bound(math.e, 100.0, 0.6443, 0.0, config=cfg)
        assert res.holds_on_grid
        assert res.worst_margin == pytest.approx(0.0, abs=5e-4)
        assert res.worst_t == pytest.approx(17.7477, abs=0.02)
        assert res.grid_note == GRID_NOTE

    def test_tight_vlog_holds_at_default_radius(self):
        # at the default r = 0.005 this scan is one Euler-Maclaurin call,
        # whose radius holds no truncation bound, so the same check keeps
        # nearly all of the peak headroom
        res = check_bound(math.e, 100.0, 0.6443, 0.0)
        assert res.holds_on_grid
        assert 0.0 < res.worst_margin < 5e-5
        assert res.worst_t == pytest.approx(17.7477, abs=1e-3)

    def test_tight_vlog_holds_where_blocks_have_n_within_the_head(self):
        # on [e, 20] at the default r = 0.005 every block has N <= a = 64;
        # its one call sums the head and the tail like any other, so the
        # check keeps the peak headroom rather than r of truncation bound
        res = check_bound(math.e, 20.0, 0.6443, 0.0)
        assert res.holds_on_grid
        assert res.worst_margin == pytest.approx(2.528e-5, abs=1e-8)
        assert res.worst_t == pytest.approx(17.7483, abs=1e-4)

    def test_half_log_fails(self):
        res = check_bound(math.e, 100.0, 0.5, 0.0)
        assert not res.holds_on_grid
        # the peak ratio 0.6443 > 1/2 forces a violation; the worst offender
        # by margin is the secondary peak near t = 45.6 (larger log t)
        assert res.worst_margin < -0.4
        peak = eval_zeta_certified(17.7477, choose_N(18.0, 1e-8))
        assert peak.modulus / math.log(17.7477) > 0.5

    def test_affine_bound_holds_desk_scale(self):
        res = check_bound(math.e, 2000.0, 0.5, 0.6633)
        assert res.holds_on_grid
        assert res.worst_margin > 0.0


class TestCrossingPoint:
    def test_descending_crossing(self):
        t = crossing_point(0.5480, 600.0, 700.0)
        assert t == pytest.approx(652.3704, abs=1e-3)

    def test_tangency_at_peak(self):
        t = crossing_point(0.6443, math.e, 100.0)
        assert t == pytest.approx(17.7477, abs=1e-3)

    def test_tangency_zooms_once(self, monkeypatch):
        # no point reaches v, and the best candidate lies in the first
        # window (last - 20 .. last + 1), whose zoom has followed its peak
        # already: no second zoom.  71 accurate evaluations, where the
        # second zoom made it 131, and the same t
        evaluated = []
        evaluate = verifier.eval_zeta_certified

        def counted(t, n):
            evaluated.append(t)
            return evaluate(t, n)

        monkeypatch.setattr(verifier, "eval_zeta_certified", counted)
        t = crossing_point(0.6443, math.e, 100.0)
        assert len(evaluated) == 71
        assert t == pytest.approx(17.747687346037168, abs=1e-6)

    def test_level_never_reached(self):
        with pytest.raises(CrossingNotFound):
            crossing_point(0.9, math.e, 100.0)

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_level_must_be_finite(self, v):
        # as check_bound refuses a non-finite bound: bad input, not a
        # level the ratio never reaches
        with pytest.raises(ValueError, match="finite"):
            crossing_point(v, 600.0, 700.0)

    def test_crossing_ratio_is_close(self):
        t = crossing_point(0.5480, 600.0, 700.0)
        cert = eval_zeta_certified(t, choose_N(t, 1e-8))
        assert abs(cert.modulus / math.log(t) - 0.5480) <= 5e-5

    @pytest.mark.parametrize("t_lo, t_hi", [(600.0, 700.0), (math.e, 2000.0)])
    def test_crossing_brackets_level(self, t_lo, t_hi):
        t = crossing_point(0.5480, t_lo, t_hi)
        assert verifier._accurate_ratio(t) >= 0.5480 > verifier._accurate_ratio(t + 1e-6)

    def test_still_above_at_t_hi(self):
        with pytest.raises(CrossingNotFound, match="still at or above"):
            crossing_point(0.6, 17.0, 17.8)


class TestZoom:
    @pytest.mark.parametrize("refine", [
        lambda: max_ratio(17.0, 18.5, 0.01, 1e-4),
        lambda: crossing_point(0.5480, 600.0, 700.0),
        lambda: crossing_point(0.6443, math.e, 100.0),
    ], ids=["peak", "crossing", "tangency"])
    def test_no_point_evaluated_twice(self, monkeypatch, refine):
        # each round's grid ends are the last round's kept cell ends, whose
        # ratios are kept, so every evaluation within one zoom is at a new t
        zooms = []
        zoom, evaluate = verifier._zoom, verifier.eval_zeta_certified

        def recorded_zoom(*args):
            zooms.append([])
            return zoom(*args)

        def recorded_eval(t, n):
            zooms[-1].append(t)
            return evaluate(t, n)

        monkeypatch.setattr(verifier, "_zoom", recorded_zoom)
        monkeypatch.setattr(verifier, "eval_zeta_certified", recorded_eval)
        refine()
        assert zooms and all(zooms)
        for ts in zooms:
            assert len(ts) == len(set(ts))
