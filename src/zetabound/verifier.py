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
ending at t_max.  Before any array exists, _grid charges the scan an O(1)
upper bound on the passes its runs make over head terms and points
(_charge) against the budget, then builds the grid and lists the runs
once.  Each run is planned once from its points (zeta_eval._call_plan):
r is checked against every plan's radius, which folds in the expansion
and Euler-Maclaurin remainders and every floating-point effect, before
the first run, and each run then executes its plan and returns that
radius.  The refiners evaluate single points with
zeta_eval.eval_zeta_certified, the kernel's one-point call.

Scans remember the first _MEMO_CALLS = 16 runs of the last scan to finish
(_MEMO, at most 2^18 points, 2 MB): the key (t_lo, h, k_lo, k_hi) fixes a
run's points t_lo + k h to the bit, and with them its plan and values, so
a later scan of the same grid takes a remembered run's plan (for its r
check) and moduli instead of running it again, and its report is bit for
bit a cold scan's.  A scan binds the map once, never changes it, and after
its last run rebinds _MEMO to a new map of its own first runs: no map is
ever mutated, so scans on several threads share it with no lock, and each
holds at most two maps, 4 MB.  The paper's peak and crossing scan
[e, 2000] (13 runs) and its affine check [e, 1e4] (62 runs): in any order
they make 63 or 64 kernel calls, against 88 cold.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import CrossingNotFound, ResourceBudgetError
from .zeta_eval import _call_passes, _call_plan, _eval_block, _Plan
from .zeta_eval import DEFAULT_BUDGET, choose_N, eval_zeta_certified

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

_KERNEL_POINTS = 1 << 14  # most grid points per kernel call
# r of the refiners' evaluations, which sets only their nominal N: the
# radius is the kernel's (1.14e-13 at t = 17.7477, 1.80e-8 at t = 1e6)
_REFINE_R = 1e-8    # r of single-point refinement
_COARSE_R = 1e-4    # r of max_ratio's coarse scan
_CROSS_TOL = 1e-6   # width of the cell that pins a crossing
# bytes scan_interval holds per grid point: six float64 arrays (t, modulus,
# err, ratio, log t, which becomes the margins, and modulus + err)
_POINT_BYTES = 6 * 8
# a kernel call of a scan, on its grid points t[k_lo:k_hi + 1]: (k_lo, k_hi)
_Call = tuple[int, int]
# a scan's kernel call by the grid it is on and its place there: (t_lo, h, k_lo, k_hi)
_Key = tuple[float, float, int, int]
_MEMO_CALLS = 16  # most calls _MEMO keeps, each at most _KERNEL_POINTS moduli of 8 bytes: 2 MB
_OVER_BUDGET = "scan charges {:.3e} kernel passes, over the budget {:.3e}; raise it or relax the grid"


@dataclass(frozen=True)
class ScanConfig:
    """Grid and accuracy parameters of a scan.

    h is the grid spacing (0.01 reflects behaviour well for plotting-scale
    work) and r the largest radius accepted per point; r changes no
    budget charge (_charge).  block is validated but has no effect: the
    plan is fixed-size kernel calls (_grid).
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
    """A scan's grid t_lo + k h and its kernel calls, once budget, h and memory allow them.

    Three checks, in this order and before any array exists: a charge
    (_charge) over the budget raises ResourceBudgetError; h below the
    float spacing at t_hi, which would repeat points, raises ValueError;
    and a grid whose arrays in scan_interval (_POINT_BYTES a point) exceed
    the machine's physical memory raises MemoryError.  Then the grid is
    built and its calls listed once, in grid order: fixed runs
    (k_lo, k_hi) of _KERNEL_POINTS points from k = 0, the last one shorter.
    """
    t_lo, h = config.t_lo, config.h
    steps = float(np.floor((config.t_hi - t_lo) / h + 1e-9))
    if (charge := _charge(steps + 1.0, config.t_hi)) > budget:
        raise ResourceBudgetError(_OVER_BUDGET.format(charge, budget))
    if h < math.ulp(config.t_hi):  # t_lo + k h would repeat points
        raise ValueError(f"h = {h:g} is below the float spacing {math.ulp(config.t_hi):g} at t_hi")
    if (need := (steps + 1.0) * _POINT_BYTES) > (memory := _physical_memory()):
        raise MemoryError(f"scan of {steps + 1.0:.3e} points needs about {need:.3e} bytes, "
                          f"over the {memory:.3e} bytes of physical memory")
    K = int(steps)
    calls = [(k_lo, min(k_lo + _KERNEL_POINTS - 1, K)) for k_lo in range(0, K + 1, _KERNEL_POINTS)]
    return t_lo + np.arange(K + 1, dtype=np.float64) * h, calls


def _charge(points: float, t_hi: float) -> float:
    """An upper bound on the kernel passes of a scan of points grid points up to t_hi, in O(1).

    A scan has ceil(points / _KERNEL_POINTS) calls of at most
    K = min(points, _KERNEL_POINTS) points, and a call's passes
    (zeta_eval._call_passes) rise with t_max and K, so each call is charged
    as one of K points ending at t_hi.  That is 2.4x the exact passes on
    [e, 1e4] and 1.2x on windows at 1e5 and 1e6 (h = 0.01); a one-point
    scan is charged as the point evaluation at t_hi.
    """
    K = min(points, _KERNEL_POINTS)
    return float(np.ceil(points / _KERNEL_POINTS)) * _call_passes(t_hi, int(K))


def _physical_memory() -> float:
    """The machine's physical memory in bytes, or inf where os.sysconf does not give it."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf
    return float(pages * size) if pages > 0 and size > 0 else math.inf


# the plan and read-only moduli of the last scan's first calls, by key: a
# published map is never mutated (scan_interval replaces it whole)
_MEMO: dict[_Key, tuple[_Plan, np.ndarray]] = {}


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
    positive (inf for none), caps the kernel passes the scan is charged
    (_charge), checked before any array is built, as physical memory is:
    a grid whose arrays it cannot hold raises MemoryError at once, at any
    budget.  h below the float spacing at t_hi raises ValueError.  Each
    kernel call is planned once (zeta_eval._call_plan) and runs that plan,
    whose radius it returns at every point; config.r, the largest radius
    accepted, must be at least every plan's, checked before the first
    call, or ValueError names the radius.  A call that the last scan to
    finish made among its first 16 on the same grid (_MEMO, see the module
    docstring) is not run again: its remembered plan is checked against
    r, and its moduli are copied, which changes no bit of the report.
    The scan binds the memo once, before planning, and after its last call
    publishes its own first calls in a new map.  workers > 1 distributes
    the calls over threads, merged in call order, so the report is
    identical for any worker count; on 2 cores two measured about 1.4x
    faster than one ([e, 1e4]: medians 0.38 and 0.26 s; [1e6, 1e6 + 1000]:
    0.17 and 0.12 s; 12 alternating pairs each, ranges overlapping).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if not budget > 0.0:  # also refuses nan, which every budget comparison would pass
        raise ValueError(f"budget must be positive, got {budget}")
    if bound is not None and not all(map(math.isfinite, bound)):
        raise ValueError(f"bound slope and intercept must be finite, got {bound}")
    global _MEMO
    t, calls = _grid(config, budget)
    keys = [(config.t_lo, config.h, k_lo, k_hi) for k_lo, k_hi in calls]
    held = _MEMO  # bound once: no published map is mutated, so it needs no lock
    plans: list[_Plan] = []
    for (k_lo, k_hi), key in zip(calls, keys):  # r is a ceiling on the radius each call returns
        pts = t[k_lo:k_hi + 1]
        plan = held[key][0] if key in held else _call_plan(pts)
        plans.append(plan)
        if config.r < plan.radius:
            raise ValueError(
                f"r = {config.r:g} is below the radius {plan.radius:.3e} of the kernel call on "
                f"t in [{pts[0]:.9g}, {pts[-1]:.9g}]"
            )

    def run(i: int) -> np.ndarray:
        if keys[i] in held:
            return held[keys[i]][1]
        pts = t[calls[i][0]:calls[i][1] + 1]
        # N changes no value, radius or charge: it is there because the
        # benchmark's tracer (bench/tracing.py) reads the kernel's second argument
        moduli = np.abs(_eval_block(pts, choose_N(float(pts[-1]), config.r), plans[i])[0])
        moduli.flags.writeable = False
        return moduli

    modulus = np.empty(len(t))
    err = np.empty(len(t))
    lead: list[np.ndarray] = []  # the moduli of the first _MEMO_CALLS calls
    with ExitStack() as stack:
        run_all = map if workers == 1 else stack.enter_context(ThreadPoolExecutor(workers)).map
        for (k_lo, k_hi), plan, moduli in zip(calls, plans, run_all(run, range(len(calls)))):
            modulus[k_lo:k_hi + 1] = moduli
            err[k_lo:k_hi + 1] = plan.radius
            if len(lead) < _MEMO_CALLS:
                lead.append(moduli)
    _MEMO = dict(zip(keys, zip(plans, lead)))

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
