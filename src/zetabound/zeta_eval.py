"""Certified numerical evaluation of zeta(1+it).

The central routine evaluates the truncated representation

    g_N(t) = sum_{n=1}^{N} n^(-1-it) + N^(-it)/(it) - N^(-1-it)/2
             + (1+it)/16 * N^(-2-it)

whose distance from zeta(1+it) is at most (1+t)(2+t) / (32 N^2).  Every
result is returned as a :class:`CertifiedComplex`, a value paired with an
absolute error radius that also accounts for floating-point accumulation,
so the true zeta value is guaranteed to lie inside the reported disk.

An independent cross-check, :func:`oracle_zeta`, evaluates the same point
through the alternating series zeta(s) = (1 - 2^(1-s))^(-1) *
sum (-1)^(n-1) n^(-s) with Euler acceleration.  The two routes share no
formulas, which is what makes their mutual agreement a meaningful test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "EULER_GAMMA",
    "CertifiedComplex",
    "error_bound",
    "choose_N",
    "eval_zeta_certified",
    "oracle_zeta",
    "harmonic_bound",
]

EULER_GAMMA = 0.5772156649015329

_EPS = 2.220446049250313e-16
_CHUNK = 1 << 21          # summation chunk; fixed so results are bit-reproducible
_MAX_N = 1 << 62


@dataclass(frozen=True)
class CertifiedComplex:
    """A complex value with a guaranteed absolute error radius.

    The producing routine promises |value - target| <= err, where target is
    the mathematically exact quantity it was asked for.
    """

    value: complex
    err: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ValueError("certified value must be finite")
        if not (math.isfinite(self.err) and self.err >= 0.0):
            raise ValueError("error radius must be finite and nonnegative")

    @property
    def modulus(self) -> float:
        """|value|; err bounds the modulus error as well (reverse triangle)."""
        return abs(self.value)


def error_bound(t: float | np.ndarray, N: int) -> float | np.ndarray:
    """Truncation bound (1+t)(2+t) / (32 N^2) of the N-term evaluator.

    This is the analytic error of g_N(t); rounding of the expression itself
    is covered by the explicit floating-point slack added by
    :func:`eval_zeta_certified`.  t may be an array of points sharing N.
    """
    if not np.all(np.asarray(t) > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    return (1.0 + t) * (2.0 + t) / (32.0 * N * N)


def choose_N(T: float, r: float) -> int:
    """Smallest N with error_bound(T, N) <= r, i.e. ceil(sqrt((1+T)(2+T)/(32 r))).

    The ceil is computed in floating point and then corrected downward/upward
    so minimality holds exactly.  Raises OverflowError when N would exceed
    2^62, including when its floating-point estimate is infinite.
    """
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T}")
    if not r > 0.0:
        raise ValueError(f"r must be positive, got {r}")
    N_est = math.sqrt((1.0 + T) * (2.0 + T) / (32.0 * r))
    if not N_est <= _MAX_N:
        raise OverflowError(f"required N = {N_est:.6g} exceeds the supported integer range")
    N = max(1, math.ceil(N_est))
    while N > 1 and error_bound(T, N - 1) <= r:
        N -= 1
    while error_bound(T, N) > r:
        N += 1
    return N


def _power_sum(t: float, n_hi: int, alternating: bool = False) -> complex:
    """sum_{n=1}^{n_hi} n^(-1-it), optionally with sign (-1)^(n-1).

    Terms are accumulated from n = n_hi down to 1 (smallest magnitudes
    first) in fixed-size chunks, so the result is deterministic and the
    rounding error stays near eps * n_hi in the worst case.
    """
    if n_hi < 1:
        return 0j
    s = -(1.0 + 1j * t)
    total = 0j
    top = n_hi
    while top >= 1:
        lo = max(1, top - _CHUNK + 1)
        n = np.arange(top, lo - 1, -1, dtype=np.float64)
        terms = np.exp(s * np.log(n))
        if alternating:
            terms[n % 2 == 0] *= -1.0
        total += terms.sum()
        top = lo - 1
    return complex(total)


def _fp_slack(t: float, N: int) -> float:
    # Three floating-point effects: accumulation over N terms (4 ulp-scale
    # units each), the phase t*ln n being representable only to eps*t*ln n
    # radians (summing (1/n) * eps * t * ln n over n <= N gives the
    # 0.5 * eps * t * ln^2 N term), and conditioning of the 1/(it)
    # correction for very small t.
    lnN = math.log(N) if N > 1 else 0.0
    return _EPS * (4.0 * N + 0.5 * t * lnN * lnN + 4.0 / t)


def eval_zeta_certified(t: float, N: int) -> CertifiedComplex:
    """Evaluate zeta(1+it) through g_N(t) with a certified radius.

    The returned err is the analytic truncation bound plus floating-point
    slack; mathematically |value - zeta(1+it)| <= err.  Cost is O(N); memory
    stays bounded because the main sum is evaluated in chunks.  Very small t
    (below about 1e-3) is allowed but the 1/(it) term inflates err through
    its conditioning.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    value = _power_sum(t, N)
    lnN = math.log(N)
    nmit = cmath.exp(-1j * t * lnN)  # N^(-it)
    value += nmit * (1.0 / (1j * t) - 0.5 / N + (1.0 + 1j * t) / (16.0 * N * N))
    err = error_bound(t, N) + _fp_slack(t, N)
    return CertifiedComplex(value, err)


def _eta_accelerated(t: float, start: int, cols: int) -> tuple[complex, float]:
    """Euler-accelerated tail of eta(1+it) = sum (-1)^(n-1) n^(-1-it).

    The first start-1 terms are summed directly; from n = start on, the
    partial sums are averaged repeatedly (the Euler transformation in van
    Wijngaarden's form), which converges geometrically once start exceeds
    roughly t.  Returns the accelerated value and an empirical step
    estimate used to build a conservative error bound.
    """
    head = _power_sum(t, start - 1, alternating=True)
    m = np.arange(start, start + cols + 1, dtype=np.float64)
    terms = np.exp(-(1.0 + 1j * t) * np.log(m))
    terms[m % 2 == 0] *= -1.0
    psums = head + np.cumsum(terms)
    row = psums
    hist = [row[0]]
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
        hist.append(row[0])
    step = abs(hist[-1] - hist[-2]) + abs(hist[-2] - hist[-3])
    return complex(row[0]), float(step)


def oracle_zeta(t: float, target_err: float, max_terms: int = 1_000_000) -> CertifiedComplex:
    """zeta(1+it) through the alternating (eta) series, independent of g_N.

    zeta(s) = eta(s) / (1 - 2^(1-s)); on the line s = 1+it the denominator
    is 1 - 2^(-it), which nearly vanishes when t is close to a multiple of
    2*pi/log 2, and the requested accuracy then has to be reached by the
    eta sum divided by that small modulus.  The summation start doubles
    until the conservative error estimate meets target_err; if that takes
    more than max_terms terms a ConvergenceError is raised.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if not target_err > 0.0:
        raise ValueError(f"target_err must be positive, got {target_err}")
    den = 1.0 - cmath.exp(-1j * t * math.log(2.0))
    aden = abs(den)
    if aden == 0.0:
        raise ConvergenceError(f"eta denominator vanishes at t = {t}")
    start = max(64, math.ceil(t))
    cols = 64
    while True:
        if start + cols > max_terms:
            raise ConvergenceError(
                f"oracle needs more than {max_terms} terms for target {target_err} at t = {t}"
            )
        eta, step = _eta_accelerated(t, start, cols)
        # Conservative error model: four acceleration steps' worth of the
        # observed contraction, pairwise-summation roundoff over the head
        # (eps * log2(M) * harmonic mass), and the phase-representation
        # noise of t*ln n, taken at four times its root-mean-square size.
        m_total = start + cols
        slack = _EPS * (
            (math.log2(m_total) + 4.0) * (math.log(m_total) + 1.0) + 6.0 * t
        )
        err = (4.0 * step + slack) / aden
        if err <= target_err:
            return CertifiedComplex(eta / den, err)
        start *= 2


def harmonic_bound(x: float) -> float:
    """Upper bound log x + gamma + 1/x for the harmonic sum over n <= x."""
    if not x >= 1.0:
        raise ValueError(f"x must be >= 1, got {x}")
    return math.log(x) + EULER_GAMMA + 1.0 / x
