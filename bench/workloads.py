"""Timed pass bodies and correctness gates of the in-process workloads.

Each pass body receives only generated numbers, never a workload name, and
calls the library through module attributes (``verifier.check_bound``, not a
name bound at import) so that the tracing wrappers see every call.  Checks
run after the timed region.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Optional

import numpy as np

from zetabound import expsum, rs_bounds, verifier, zeta_eval
from zetabound.errors import ConvergenceError

# The paper's tables, as the acceptance suite states them.
# (t0 exponent, beta, v, u)
TABLE1_ROWS = (
    (5, 0.1474, 0.8134, 0.9854), (6, 0.1796, 0.7421, 1.0295),
    (7, 0.1978, 0.7003, 1.0610), (8, 0.2061, 0.6726, 1.0847),
    (9, 0.2095, 0.6526, 1.1030), (10, 0.2108, 0.6370, 1.1177),
    (11, 0.2113, 0.6245, 1.1297), (12, 0.2115, 0.6141, 1.1398),
    (13, 0.2115, 0.6053, 1.1482), (14, 0.2116, 0.5978, 1.1555),
    (15, 0.2116, 0.5912, 1.1618), (20, 0.2116, 0.5684, 1.1839),
    (30, 0.2116, 0.5456, 1.2059), (40, 0.2116, 0.5342, 1.2169),
    (50, 0.2116, 0.5274, 1.2235), (60, 0.2116, 0.5228, 1.2280),
    (70, 0.2116, 0.5196, 1.2311), (80, 0.2116, 0.5171, 1.2335),
    (90, 0.2116, 0.5152, 1.2353), (100, 0.2116, 0.5137, 1.2368),
    (200, 0.2116, 0.5068, 1.2434), (300, 0.2116, 0.5046, 1.2456),
)
# (t0 exponent, C)
TABLE2_ROWS = (
    (1, 2.4868), (2, 1.1727), (3, 0.8178), (4, 0.7085), (5, 0.6741),
    (6, 0.6633), (7, 0.6599), (8, 0.6588), (9, 0.6584), (10, 0.6583),
)
# (t0 exponent, v_tilde)
TABLE3_ROWS = (
    (5, 0.5576), (6, 0.5480), (7, 0.5412), (8, 0.5360), (9, 0.5320),
    (10, 0.5288), (11, 0.5262), (12, 0.5240), (13, 0.5222), (14, 0.5206),
    (15, 0.5192), (20, 0.5144), (30, 0.5096), (40, 0.5072), (50, 0.5058),
    (60, 0.5048), (70, 0.5041), (80, 0.5036), (90, 0.5032), (100, 0.5029),
    (200, 0.5014), (300, 0.5010),
)

AFFINE = (0.5, rs_bounds.AFFINE_INTERCEPT)  # (1/2) log t + 0.6633
EVAL_R = 1e-8      # requested radius of each witness evaluation
ORACLE_R = 1e-7    # target radius of the oracle it is checked against
CONTOUR_TOL = 1e-8


class Checks:
    """Counts correctness checks; keeps the first few failures for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_constants(checks: Checks, k: rs_bounds.RSConstants) -> None:
    """The Riemann-Siegel constants within their stated tolerances."""
    checks.expect(abs(k.b0 - 0.5) <= 1e-9, f"b0 = {k.b0!r}")
    checks.expect(abs(k.b1_sigma0 - 0.0173) <= 1e-4, f"b1(0) = {k.b1_sigma0!r}")
    checks.expect(abs(k.b1_sigma1 - 0.0932) <= 1e-4, f"b1(1) = {k.b1_sigma1!r}")
    checks.expect(0.96 <= k.c_sigma0 <= 0.9709, f"c(0) = {k.c_sigma0!r}")
    checks.expect(1.035 <= k.c_sigma1 <= 1.0455, f"c(1) = {k.c_sigma1!r}")


def nominal_terms(cfg: verifier.ScanConfig) -> float:
    """Sum over grid points of N, as scan_interval budgets a scan.

    The documented rule: the grid t_lo + k h is cut into blocks of width
    cfg.block measured from t_lo, and each block uses the N its largest t
    needs for radius cfg.r.  This is a property of the input, so it stays
    the same whatever the kernel does inside a block.
    """
    K = int(math.floor((cfg.t_hi - cfg.t_lo) / cfg.h + 1e-9))
    t = cfg.t_lo + np.arange(K + 1, dtype=np.float64) * cfg.h
    block = np.floor_divide(t - cfg.t_lo, cfg.block).astype(np.int64)
    last = np.flatnonzero(np.diff(block, append=block[-1] + 1))
    sizes = np.diff(last, prepend=-1)
    return float(sum(zeta_eval.choose_N(float(t[k]), cfg.r) * int(n)
                     for k, n in zip(last, sizes)))


class ScanObserver:
    """Summarises every ScanReport scan_interval returns during a pass.

    Kept in both timed and traced passes: it only reads the report, and a
    check_bound / max_ratio / crossing_point call returns no arrays of its
    own.  For a scan with a bound it records the smallest share of the
    headroom (bound - modulus) that the certified radius leaves, and can
    hash the modulus and err bytes for the worker-merge identity check.
    """

    def __init__(self, digest: bool) -> None:
        self.digest = digest
        self.configs: list[verifier.ScanConfig] = []
        self.points = 0
        self.max_err_over_r = 0.0
        self.headroom_kept = math.inf
        self.digests: list[str] = []

    def install(self) -> None:
        scan = verifier.scan_interval

        def observed(config: verifier.ScanConfig, bound: Optional[tuple[float, float]] = None,
                     *args: Any, **kwargs: Any) -> verifier.ScanReport:
            report = scan(config, bound, *args, **kwargs)
            self.configs.append(config)
            self.points += len(report.t)
            self.max_err_over_r = max(self.max_err_over_r,
                                      float(report.err.max()) / config.r)
            if bound is not None:
                headroom = bound[0] * np.log(report.t) + bound[1] - report.modulus
                # 1 - err / headroom where the radius fits, below 0 where not
                kept = (headroom - report.err) / np.maximum(headroom, report.err)
                self.headroom_kept = min(self.headroom_kept, float(kept.min()))
            if self.digest:
                h = hashlib.sha256(report.modulus.tobytes())
                h.update(report.err.tobytes())
                self.digests.append(h.hexdigest())
            return report

        verifier.scan_interval = observed


# ---------------------------------------------------------------------------
# paper: every headline claim, from cold caches
# ---------------------------------------------------------------------------


def run_paper(inputs: dict[str, Any], workers: int) -> dict[str, Any]:
    out: dict[str, Any] = {}
    out["table1"] = [
        tuple(getattr(expsum.optimal_bound_params(10.0**k), a) for a in ("beta", "v", "u"))
        for k, *_ in TABLE1_ROWS
    ]
    out["table3"] = [
        (rs_bounds.affine_C(10.0**k).v_tilde, expsum.optimal_bound_params(10.0**k).v)
        for k, _ in TABLE3_ROWS
    ]
    bundle = rs_bounds.computed_constants()
    out["constants"] = bundle
    out["table2"] = [
        (rs_bounds.affine_C(10.0**k).C, rs_bounds.affine_C(10.0**k, constants=bundle).C)
        for k, _ in TABLE2_ROWS
    ]
    out["peak"] = verifier.max_ratio(math.e, 2000.0, 0.01, 1e-4, workers=workers)
    out["crossing"] = verifier.crossing_point(0.5480, math.e, 2000.0, workers=workers)
    cfg = verifier.ScanConfig(t_lo=math.e, t_hi=1e4, h=0.01, r=0.005)
    out["check"] = verifier.check_bound(math.e, 1e4, *AFFINE, config=cfg, workers=workers)
    return out


def check_paper(out: dict[str, Any], obs: ScanObserver, checks: Checks) -> dict[str, float]:
    for (k, *expected), got in zip(TABLE1_ROWS, out["table1"]):
        checks.expect(tuple(round(x, 4) for x in got) == tuple(expected), f"table1 1e{k}: {got}")
    for (k, expected), (default, computed) in zip(TABLE2_ROWS, out["table2"]):
        checks.expect(abs(default - expected) <= 1e-4, f"table2 1e{k}: {default!r}")
        checks.expect(abs(computed - expected) <= 1e-4, f"table2 1e{k} computed: {computed!r}")
    for (k, expected), (v_tilde, v) in zip(TABLE3_ROWS, out["table3"]):
        checks.expect(v_tilde is not None and abs(v_tilde - expected) <= 1e-4 and v > v_tilde,
                      f"table3 1e{k}: {v_tilde!r}, v = {v!r}")
    check_constants(checks, out["constants"])
    t_star, ratio = out["peak"]
    checks.expect(abs(t_star - 17.7477) <= 1e-3 and abs(ratio - 0.6443) <= 2e-4,
                  f"peak {ratio!r} at {t_star!r}")
    checks.expect(abs(out["crossing"] - 652.3704) <= 1e-3, f"crossing {out['crossing']!r}")
    checks.expect(out["check"].holds_on_grid, f"affine bound fails: {out['check']}")
    return {
        "points": obs.points,
        "nominal_terms": sum(nominal_terms(c) for c in obs.configs),
        "worst_margin": out["check"].worst_margin,
        "max_err_over_r": obs.max_err_over_r,
    }


# ---------------------------------------------------------------------------
# scan-high: affine checks where N is 2.5e5 to 5e5
# ---------------------------------------------------------------------------


def run_scan_high(inputs: dict[str, Any], workers: int) -> dict[str, Any]:
    checks = []
    for t_lo in inputs["t_lo"]:
        t_hi = t_lo + inputs["width"]
        cfg = verifier.ScanConfig(t_lo=t_lo, t_hi=t_hi, h=0.01, r=0.005, block=inputs["block"])
        checks.append(verifier.check_bound(t_lo, t_hi, *AFFINE, config=cfg, workers=workers))
    return {"checks": checks}


def check_scan_high(out: dict[str, Any], obs: ScanObserver, checks: Checks) -> dict[str, float]:
    for result in out["checks"]:
        checks.expect(result.holds_on_grid, f"affine bound fails: {result}")
    return {
        "points": obs.points,
        "nominal_terms": sum(nominal_terms(c) for c in obs.configs),
        # The raw margin here is set by where the seed puts t_lo (its
        # quartiles spread 20-45% across seeds); the share of headroom the
        # radius leaves is the part the code controls.
        "worst_margin": obs.headroom_kept,
        "max_err_over_r": obs.max_err_over_r,
    }


# ---------------------------------------------------------------------------
# witness: kernel-free cross-checks of zeta_eval and rs_bounds
# ---------------------------------------------------------------------------


def run_witness(inputs: dict[str, Any], workers: int) -> dict[str, Any]:
    evals = []
    for t in inputs["t"]:
        n = zeta_eval.choose_N(t, EVAL_R)
        cert = zeta_eval.eval_zeta_certified(t, n)
        try:
            ref: Optional[zeta_eval.CertifiedComplex] = zeta_eval.oracle_zeta(t, ORACLE_R)
        except ConvergenceError:
            # documented refusal near t = 2 pi k / log 2; counted, not failed
            ref = None
        evals.append((t, n, cert, ref))
    coeffs = []
    for p in inputs["p"]:
        coeffs.append((p, "c0", rs_bounds.c0(p), rs_bounds.ck_contour(p, 0)))
        for sigma in (0, 1):
            coeffs.append((p, f"c1 sigma={sigma}", rs_bounds.c1(p, sigma),
                           rs_bounds.ck_contour(p, 1, sigma)))
    return {"evals": evals, "coeffs": coeffs, "constants": rs_bounds.computed_constants()}


def check_witness(out: dict[str, Any], obs: ScanObserver, checks: Checks) -> dict[str, float]:
    # smallest share of a certified allowance left unused; the coefficient
    # comparisons carry a fixed tolerance, not a certified radius
    kept = math.inf
    refusals = 0
    for t, _, cert, ref in out["evals"]:
        if ref is None:
            refusals += 1
            continue
        allowance = cert.err + ref.err
        gap = abs(cert.value - ref.value)
        checks.expect(gap <= allowance, f"eval vs oracle at t = {t!r}: {gap:.3e} > {allowance:.3e}")
        kept = min(kept, 1.0 - gap / allowance)
    for p, what, closed, contour in out["coeffs"]:
        gap = abs(closed - contour)
        checks.expect(gap <= CONTOUR_TOL, f"{what} vs contour at p = {p!r}: {gap:.3e}")
    check_constants(checks, out["constants"])
    return {
        "points": len(out["evals"]),
        "nominal_terms": float(sum(n for _, n, _, _ in out["evals"])),
        "worst_margin": kept,
        "max_err_over_r": max(cert.err for _, _, cert, _ in out["evals"]) / EVAL_R,
        "refusals": refusals,
    }


PASSES = {
    "paper": (run_paper, check_paper),
    "scan-high": (run_scan_high, check_scan_high),
    "witness": (run_witness, check_witness),
}


def cold_caches() -> bool:
    """True when the lru_cached constant routines have computed nothing yet."""
    return all(f.cache_info().currsize == 0
               for f in (rs_bounds.b0, rs_bounds.b1, rs_bounds.c_sigma))


def cli_reference(lo: float, hi: float, h: float, r: float,
                  bound: tuple[float, float]) -> dict[str, Any]:
    """The library's own scan behind a CLI scan command, for its gate."""
    cfg = verifier.ScanConfig(t_lo=lo, t_hi=hi, h=h, r=r)
    report = verifier.scan_interval(cfg, bound=bound)
    return {"points": len(report.t), "min_margin": report.min_margin,
            "nominal_terms": nominal_terms(cfg)}

