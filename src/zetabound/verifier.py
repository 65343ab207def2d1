"""Grid-scan verification of zeta bounds.

A scan walks the grid t_k = t_lo + k h, evaluates |zeta(1+it_k)| with a
certified radius at every point, and checks inequalities of the form
modulus + err <= slope * log t + intercept.  Only grid points are
certified; behaviour between them is explicitly out of scope, and every
verification result carries a note saying so.

Cost control: zeta(1+it) is evaluated by the block kernel
zeta_eval._eval_block in fixed runs of 2^14 consecutive grid points (the
last run is shorter), at all of a run's points at once: a NUFFT of the
main sum over n <= a, plus zeta's closed Euler-Maclaurin tail past a, where
a = max(64, ceil(t_max/pi), min(ceil t_max, K)) for a run of K points
ending at t_max.  _grid lists the runs once, each with the nominal term
count N (zeta_eval.choose_N) of its last point, which only the budget
counts.  Each run is planned once from its points (zeta_eval._call_plan):
r is checked against every plan's radius, which folds in the expansion
and Euler-Maclaurin remainders and every floating-point effect, before
the first run, and each run then executes its plan and returns that
radius.  The refiners evaluate single points with
zeta_eval.eval_zeta_certified, the kernel's one-point call.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .errors import CrossingNotFound, ResourceBudgetError
from .zeta_eval import _call_plan, _eval_block, _Plan, choose_N, eval_zeta_certified

__all__ = [
    "GRID_NOTE",
    "DEFAULT_BUDGET",
    "ScanConfig",
    "ScanReport",
    "VerificationResult",
    "scan_interval",
    "check_bound",
    "max_ratio",
    "crossing_point",
]

GRID_NOTE = (
    "certified at the grid points only; values of t between grid points "
    "are not covered by this check"
)

# Nominal summation budget per invocation, counted as sum over kernel calls
# of the N of a call's last point times its points (_grid), an upper bound
# on sum over grid points of N(t_k).  Exceeding it raises before any work.
DEFAULT_BUDGET = 5.0e10

_KERNEL_POINTS = 1 << 14  # most grid points per kernel call
# r of the refiners' evaluations, which sets only their nominal N: the
# radius is the kernel's (1.14e-13 at t = 17.7477, 1.80e-8 at t = 1e6)
_REFINE_R = 1e-8    # r of single-point refinement
_COARSE_R = 1e-4    # r of max_ratio's coarse scan
_CROSS_TOL = 1e-6   # width of the cell that pins a crossing
# a kernel call of a scan: (k_lo, k_hi, N), run as _eval_block(t[k_lo:k_hi + 1], N, plan)
_Call = tuple[int, int, int]
_OVER_BUDGET = "scan needs {} summed terms, over the budget {:.3e}; raise it or relax the grid"


@dataclass(frozen=True)
class ScanConfig:
    """Grid and accuracy parameters of a scan.

    h is the grid spacing (0.01 reflects behaviour well for plotting-scale
    work) and r the largest radius accepted per point, which also sets the
    nominal term count N that the budget counts.  block is validated but
    has no effect: the plan is fixed-size kernel calls (_calls).
    """

    t_lo: float
    t_hi: float
    h: float = 0.01
    r: float = 0.005
    block: float = 100.0

    def __post_init__(self) -> None:
        if not self.t_lo >= math.e - 1e-12:
            raise ValueError(f"t_lo must be >= e, got {self.t_lo}")
        if not math.isfinite(self.t_hi):
            raise ValueError(f"t_hi must be finite, got {self.t_hi}")
        if not self.t_hi > self.t_lo:
            raise ValueError(f"need t_hi > t_lo, got [{self.t_lo}, {self.t_hi}]")
        if not 0.0 < self.h <= 1.0:
            raise ValueError(f"h must lie in (0, 1], got {self.h}")
        if not 0.0 < self.r <= 0.01:
            raise ValueError(f"r must lie in (0, 0.01], got {self.r}")
        if not self.block > 0.0:
            raise ValueError(f"block must be positive, got {self.block}")


@dataclass(frozen=True)
class ScanReport:
    """Per-point certified moduli and ratios, plus interval summary.

    modulus[k] carries certificate |modulus[k] - |zeta(1+i t[k])|| <= err[k];
    ratio is modulus / log t (its uncertainty is err / log t).  margin,
    min_margin and argmin_t are filled only when the scan was given a bound
    (slope, intercept) to check: margin[k] = slope * log t[k] + intercept
    - (modulus[k] + err[k]).
    """

    t: np.ndarray
    modulus: np.ndarray
    err: np.ndarray
    ratio: np.ndarray
    max_ratio: float
    argmax_t: float
    min_margin: Optional[float] = None
    argmin_t: Optional[float] = None
    margin: Optional[np.ndarray] = None


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a bound check over a grid."""

    holds_on_grid: bool
    worst_margin: float
    worst_t: float
    grid_note: str = GRID_NOTE


def _grid(config: ScanConfig, budget: float) -> tuple[np.ndarray, list[_Call]]:
    """A scan's grid t_lo + k h and its kernel calls (_calls), once the budget and h allow them.

    The budget, sum over the calls of their last point's N times their
    points, is an upper bound on sum_k N(t_k), as N is nondecreasing in t;
    so N at t_hi times all points bounds it.  A grid that bound does not
    clear is counted call by call, keeping nothing and stopping as soon as
    the budget is passed, before any array exists.  Then the grid is built,
    and its calls listed once; an infinite budget needs no count, so a
    grid that memory cannot hold raises MemoryError at once.  h below the
    float spacing at t_hi would repeat points, and raises ValueError.
    """
    t_lo, h, r = config.t_lo, config.h, config.r
    steps = float(np.floor((config.t_hi - t_lo) / h + 1e-9))
    # every point needs N >= (1 + t_lo)/sqrt(32 r) (choose_N): an O(1) floor
    least = (steps + 1.0) * (1.0 + t_lo) / math.sqrt(32.0 * r)
    if least > budget:
        raise ResourceBudgetError(_OVER_BUDGET.format(f"at least {least:.3e}", budget))
    if h < math.ulp(config.t_hi):  # t_lo + k h would repeat points
        raise ValueError(f"h = {h:g} is below the float spacing {math.ulp(config.t_hi):g} at t_hi")
    K = int(steps)
    if choose_N(t_lo + K * h, r) * (K + 1.0) > budget:
        nominal = 0.0
        for k_lo, k_hi, N in _calls(config, K):
            nominal += float(N) * (k_hi - k_lo + 1)
            if nominal > budget:  # counted so far, so the whole grid needs more
                raise ResourceBudgetError(
                    _OVER_BUDGET.format(f"about {nominal:.3e} or more", budget))
    return t_lo + np.arange(K + 1, dtype=np.float64) * h, list(_calls(config, K))


def _calls(config: ScanConfig, K: int) -> Iterator[_Call]:
    """The kernel calls (k_lo, k_hi, N) of a scan of grid points 0..K, in grid order.

    Grid point k is t_lo + k h.  The calls are fixed runs of _KERNEL_POINTS
    points from k = 0, the last one shorter, each with its last point's N.
    """
    for k_lo in range(0, K + 1, _KERNEL_POINTS):
        k_hi = min(k_lo + _KERNEL_POINTS - 1, K)
        yield k_lo, k_hi, choose_N(config.t_lo + k_hi * config.h, config.r)


def scan_interval(
    config: ScanConfig,
    bound: tuple[float, float] | None = None,
    budget: float = DEFAULT_BUDGET,
    workers: int = 1,
) -> ScanReport:
    """Certified scan of |zeta(1+it)| over the grid of config.

    bound, when given, is (slope, intercept); the margins
    slope * log t + intercept - (modulus + err) are then returned in margin
    and summarised in min_margin / argmin_t; both must be finite.  budget,
    positive (inf for none), caps the nominal term count (_grid), checked
    before any array is built; with inf, a grid that memory cannot hold
    raises MemoryError at once.  h below the float spacing at t_hi raises
    ValueError.  Each kernel call is planned once (zeta_eval._call_plan)
    and runs that plan, whose radius it returns at every point; config.r,
    the largest radius accepted, must be at least every plan's, checked
    before the first call, or ValueError names the radius.  workers > 1
    distributes kernel calls over threads, merged in call order, so the
    report is identical for any worker count; on 2 cores two measured
    about 1.4x faster than one ([e, 1e4]: medians 0.38 and 0.26 s;
    [1e6, 1e6 + 1000]: 0.17 and 0.12 s; 12 alternating pairs each, ranges
    overlapping).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if not budget > 0.0:  # also refuses nan, which every budget comparison would pass
        raise ValueError(f"budget must be positive, got {budget}")
    if bound is not None and not all(map(math.isfinite, bound)):
        raise ValueError(f"bound slope and intercept must be finite, got {bound}")
    t, calls = _grid(config, budget)
    plans: list[_Plan] = []
    for k_lo, k_hi, _ in calls:  # r is a ceiling on the radius each call returns
        pts = t[k_lo:k_hi + 1]
        plans.append(plan := _call_plan(pts))
        if config.r < plan.radius:
            raise ValueError(
                f"r = {config.r:g} is below the radius {plan.radius:.3e} of the kernel call on "
                f"t in [{pts[0]:.9g}, {pts[-1]:.9g}]"
            )

    def run(call: _Call, plan: _Plan) -> tuple[np.ndarray, float]:
        k_lo, k_hi, N = call
        return _eval_block(t[k_lo:k_hi + 1], N, plan)

    modulus = np.empty(len(t))
    err = np.empty(len(t))
    with ExitStack() as stack:
        run_all = map if workers == 1 else stack.enter_context(ThreadPoolExecutor(workers)).map
        for (k_lo, k_hi, _), (vals, call_err) in zip(calls, run_all(run, calls, plans)):
            np.abs(vals, out=modulus[k_lo:k_hi + 1])
            err[k_lo:k_hi + 1] = call_err

    log_t = np.log(t)
    ratio = modulus / log_t
    k_max = int(np.argmax(ratio))
    margin = min_margin = argmin_t = None
    if bound is not None:
        slope, intercept = bound
        margin = log_t  # log t is read no more: its buffer takes the margins
        margin *= slope
        margin += intercept
        margin -= modulus + err
        k_min = int(np.argmin(margin))
        min_margin = float(margin[k_min])
        argmin_t = float(t[k_min])
    return ScanReport(
        t=t, modulus=modulus, err=err, ratio=ratio,
        max_ratio=float(ratio[k_max]), argmax_t=float(t[k_max]),
        min_margin=min_margin, argmin_t=argmin_t, margin=margin,
    )


def check_bound(
    t_lo: float,
    t_hi: float,
    slope: float,
    intercept: float,
    config: ScanConfig | None = None,
    budget: float = DEFAULT_BUDGET,
    workers: int = 1,
) -> VerificationResult:
    """Check modulus + err <= slope * log t + intercept at every grid point.

    config supplies grid spacing and r; its endpoints are replaced by
    t_lo / t_hi.  The result is a grid statement only, as its grid_note says.
    """
    base = config if config is not None else ScanConfig(t_lo=t_lo, t_hi=t_hi)
    cfg = replace(base, t_lo=t_lo, t_hi=t_hi)
    report = scan_interval(cfg, bound=(slope, intercept), budget=budget, workers=workers)
    assert report.min_margin is not None and report.argmin_t is not None
    return VerificationResult(
        holds_on_grid=report.min_margin >= 0.0,
        worst_margin=report.min_margin,
        worst_t=report.argmin_t,
    )


def _accurate_ratio(t: float) -> float:
    cert = eval_zeta_certified(t, choose_N(t, _REFINE_R))
    return cert.modulus / math.log(t)


def _zoom(ts: np.ndarray, tol: float, v: float = math.inf) -> tuple[float, float, bool]:
    """Zoom on the sorted points ts with the ratios of point evaluations.

    Each round evaluates every point and keeps one cell: the cell right of
    the last point reaching v, where a crossing lies, or else the two cells
    around the best point.  The next round puts 9 points on that cell, until
    it is at most tol wide or floats stop narrowing it; the points of the
    kept cell that reappear in it, always its two ends, keep their ratios.
    Returns (t, ratio, reached): the last point reaching v, or the best
    point when none does.
    """
    width = math.inf
    known: dict[float, float] = {}
    while True:
        f = np.array([known[x] if x in known else _accurate_ratio(x) for x in map(float, ts)])
        hit = np.flatnonzero(f >= v)
        last = len(ts) - 1
        if hit.size:
            k = int(hit[-1])
            lo, hi = k, min(k + 1, last)
        else:
            k = int(np.argmax(f))
            lo, hi = max(k - 1, 0), min(k + 1, last)
        a, b = float(ts[lo]), float(ts[hi])
        if b - a <= tol or b - a >= width:
            return float(ts[k]), float(f[k]), bool(hit.size)
        width = b - a
        known = dict(zip(map(float, ts[lo:hi + 1]), map(float, f[lo:hi + 1])))
        ts = np.linspace(a, b, 9)


def max_ratio(
    t_lo: float,
    t_hi: float,
    coarse_h: float = 0.01,
    refine_tol: float = 1e-4,
    budget: float = DEFAULT_BUDGET,
    workers: int = 1,
) -> tuple[float, float]:
    """Locate the maximum of |zeta(1+it)| / log t on [t_lo, t_hi].

    A certified scan at spacing coarse_h (r = 1e-4) finds the best grid
    point; the grid points up to five steps on either side of it (enough to
    cover the coarse certification noise near a smooth peak) are the first
    grid of a zoom with point evaluations (r = 1e-8), which keeps the two
    cells around the best point until they are at most refine_tol wide.
    Their radii are the kernel's, whatever r: 1.14e-13 at the peak
    t = 17.7477.  Returns (argmax t, ratio there): the best point the zoom
    evaluated, so a peak narrower than a cell of some round can be missed.
    """
    if not (refine_tol > 0.0 and math.isfinite(refine_tol)):
        raise ValueError(f"refine_tol must be positive and finite, got {refine_tol}")
    cfg = ScanConfig(t_lo=t_lo, t_hi=t_hi, h=coarse_h, r=_COARSE_R)
    report = scan_interval(cfg, budget=budget, workers=workers)
    k = int(np.argmax(report.ratio))
    t, ratio, _ = _zoom(report.t[max(k - 5, 0):k + 6], refine_tol)
    return t, ratio


def crossing_point(
    v: float,
    t_lo: float,
    t_hi: float,
    budget: float = DEFAULT_BUDGET,
    workers: int = 1,
) -> float:
    """Largest t in [t_lo, t_hi] with |zeta(1+it)| / log t = v.

    A certified scan (h = 0.01, r = 0.005) keeps as candidates the grid
    points whose ratio plus certified radius comes within 5e-5 of v; every
    later point is proven below v - 5e-5.  A zoom with point evaluations
    (r = 1e-8; the radii are the kernel's, 2.4e-12 at t = 652.37) on the
    grid points from 20 steps before the last candidate to one step after
    it follows the last point reaching v down to a 1e-6 wide cell and
    returns its left end.  When no point reaches v, that zoom has followed
    the window's peak instead; if the best candidate lies before the
    window, a second zoom on the five grid steps either side of it looks
    for its peak.  A peak reaching v is
    followed to its crossing as above, and a peak within 5e-5 of v is a
    tangency whose location is returned.  Raises CrossingNotFound when the
    ratio is still at or above v at the last grid point, or never comes
    that close to v, and ValueError for a non-finite v.
    """
    if not math.isfinite(v):
        raise ValueError(f"level v must be finite, got {v}")
    report = scan_interval(ScanConfig(t_lo=t_lo, t_hi=t_hi), budget=budget, workers=workers)
    t = report.t
    candidates = np.flatnonzero(report.ratio + report.err / np.log(t) >= v - 5e-5)
    if candidates.size == 0:
        raise CrossingNotFound(
            f"ratio never reaches {v} on the grid (max {report.max_ratio:.6f} "
            f"at t = {report.argmax_t:.4f})"
        )

    last = int(candidates[-1])
    best = int(candidates[np.argmax(report.ratio[candidates])])
    first = max(last - 20, 0)
    windows = [t[first:last + 2]]
    if best < first:  # the first zoom has not followed the best candidate's peak
        windows.append(t[max(best - 5, 0):best + 6])
    for ts in windows:
        x, fx, reached = _zoom(ts, _CROSS_TOL, v)
        if reached:
            if x == t[-1]:
                raise CrossingNotFound(f"ratio is still at or above {v} at t_hi = {t_hi}")
            return x
    if fx >= v - 5e-5:
        return x
    raise CrossingNotFound(
        f"ratio never reaches {v} on the grid (refined local max {fx:.6f} at t = {x:.4f})"
    )
