"""Certified numerical evaluation of zeta(1+it).

The central routine evaluates the truncated representation

    g_N(t) = sum_{n=1}^{N} n^(-1-it) + N^(-it)/(it) - N^(-1-it)/2
             + (1+it)/16 * N^(-2-it)

whose distance from zeta(1+it) is at most (1+t)(2+t) / (32 N^2).  Every
result is returned as a :class:`CertifiedComplex`, a value paired with an
absolute error radius that also accounts for floating-point accumulation,
so the true zeta value is guaranteed to lie inside the reported disk.

The main sum is taken term by term only up to a = max(64, ceil(t)); past
a the terms n^(-1-it) are smooth in n, and the rest of the finite sum has
a closed Euler-Maclaurin form with an explicit remainder (Edwards,
Riemann's Zeta Function, ch. 6; Johansson, Numer. Algorithms 2015).  A
point therefore costs O(min(N, a)) terms, which is O(t), while N grows
like t / sqrt(r) for a radius target r.

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
    "direct_terms",
    "oracle_zeta",
    "harmonic_bound",
]

EULER_GAMMA = 0.5772156649015329

_EPS = 2.220446049250313e-16
_CHUNK = 1 << 21          # summation chunk; fixed so results are bit-reproducible
_MAX_N = 1 << 62
_ORACLE_MAX_TERMS = 1_000_000  # the eta oracle gives up beyond this many terms

# Euler-Maclaurin split of the main sum, derived in eval_zeta_certified:
# the terms n <= a = max(_EM_MIN_HEAD, ceil(t)) are summed one by one and the
# rest in closed form with _EM_ORDER Bernoulli terms.
_EM_ORDER = 10
_EM_MIN_HEAD = 64
# c_k = B_2k / (2k)! for k = 1, ..., _EM_ORDER, correctly rounded (integer
# true division)
_EM_COEFFS = tuple(
    p / (q * math.factorial(2 * k))
    for k, (p, q) in enumerate(
        ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
         (-3617, 510), (43867, 798), (-174611, 330)),
        start=1,
    )
)


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


def _direct_sum(t: float, N: int) -> complex:
    """g_N(t) with all N terms of the main sum added one by one.

    |value - g_N(t)| <= _fp_slack(t, N).
    """
    value = _power_sum(t, N)
    lnN = math.log(N)
    nmit = cmath.exp(-1j * t * lnN)  # N^(-it)
    value += nmit * (1.0 / (1j * t) - 0.5 / N + (1.0 + 1j * t) / (16.0 * N * N))
    return value


def _em_head(t: float) -> int:
    return max(_EM_MIN_HEAD, math.ceil(t))


def direct_terms(t: float, N: int) -> int:
    """How many terms of g_N(t) :func:`eval_zeta_certified` adds one by one.

    That is N when N <= 2a and a otherwise, with a = max(64, ceil(t)); it is
    the cost of one evaluation.
    """
    a = _em_head(t)
    return N if N <= 2 * a else a


def _bernoulli_sums(
    s: complex | np.ndarray, a: float, N: float | np.ndarray
) -> tuple[complex | np.ndarray, float | np.ndarray, complex | np.ndarray, float | np.ndarray]:
    """sum_{k<=m} c_k (s)_(2k-1) x^(-2k) and the sum of its terms' moduli, at x = a and x = N.

    (s)_j is the rising factorial s (s+1) ... (s+j-1), built for each x by
    the recurrence p_{k+1} = p_k q_k / x^2 from p_1 = s / x^2; the factor
    q_k = (s+2k-1)(s+2k) is formed once for both.  N is a float, or an
    array of the shape of s.
    """
    a2, N2 = a * a, N * N
    p_a, p_N = s / a2, s / N2
    bern_a = bern_N = 0j
    sigma_a = sigma_N = 0.0
    for k, c in enumerate(_EM_COEFFS, start=1):
        term_a, term_N = c * p_a, c * p_N
        bern_a += term_a
        bern_N += term_N
        sigma_a += abs(term_a)
        sigma_N += abs(term_N)
        if k < _EM_ORDER:
            q = (s + (2 * k - 1)) * (s + 2 * k)
            p_a *= q / a2
            p_N *= q / N2
    return bern_a, sigma_a, bern_N, sigma_N


def _em_remainder(t: float, a: int) -> float:
    """|B_2m|/(2m)! |(s)_2m| / (2m a^2m), as a product of the ratios |s+j|/a."""
    bound = abs(_EM_COEFFS[-1]) / (2 * _EM_ORDER)
    for j in range(2 * _EM_ORDER):
        bound *= abs(complex(1.0 + j, t)) / a
    return bound


def _em_tail(
    t: float | np.ndarray, a: int, N: int | np.ndarray, head: float
) -> tuple[complex | np.ndarray, complex | np.ndarray, float, float | np.ndarray]:
    """The closed-form part of g_N(t) past the head n <= a, for N > a.

    Returns (tail_a, tail_N, remainder, rounding) with

        g_N(t) = sum_{n<=a} n^(-1-it) + tail_a + tail_N + R_m,
        tail_a = a^(-it) A,  tail_N = N^(-it) B,  |R_m| <= remainder,

    A, B and R_m as derived in :func:`eval_zeta_certified`.  For an array
    t, remainder is one float that holds at all its points: it is taken at
    their largest t, as the bound rises with t.  rounding is
    eps (head + the tail's share of that routine's list): the phases, the
    products, the Bernoulli sums and the additions of tail_a, then tail_N,
    to a head sum; head is what the head sum itself is charged, in units of
    eps, and is added first.  t is a float, or an array of points sharing
    a, for which the other results are arrays of the same shape; a float t
    keeps Python complex arithmetic.  N is an int, or for an array t an
    int array of each point's N; ln N is then taken once per distinct N,
    so every point's results are those of a call with its N alone.
    """
    if isinstance(t, np.ndarray):
        exp, t_top = np.exp, float(np.max(t))
    else:
        exp, t_top = cmath.exp, t
    if isinstance(N, np.ndarray):
        distinct, where = np.unique(N, return_inverse=True)
        lnN = np.array([math.log(n) for n in distinct.tolist()])[where]
        N = N.astype(np.float64)
    else:
        lnN, N = math.log(N), float(N)
    s = 1.0 + 1j * t
    bern_a, sigma_a, bern_N, sigma_N = _bernoulli_sums(s, float(a), N)
    lna = math.log(a)
    tail_a = exp(-1j * t * lna) * (-1j / t - 0.5 / a + bern_a)
    tail_N = exp(-1j * t * lnN) * (s / (16.0 * N * N) - bern_N)
    size_a = 1.0 / t + 0.5 / a + sigma_a
    size_N = abs(s) / (16.0 * N * N) + sigma_N
    rounding = _EPS * (
        head
        + (2.0 * t * lna + 4.0) * size_a
        + (2.0 * t * lnN + 4.0) * size_N
        + 5.0 * _EM_ORDER * (sigma_a + sigma_N)
    )
    return tail_a, tail_N, _em_remainder(t_top, a), rounding


def eval_zeta_certified(t: float, N: int) -> CertifiedComplex:
    """Evaluate zeta(1+it) through g_N(t) with a certified radius.

    The value encloses g_N(t), |value - g_N(t)| <= err - error_bound(t, N),
    so mathematically |value - zeta(1+it)| <= err.  With a = max(64,
    ceil(t)), the cost is O(min(N, a)) terms (see :func:`direct_terms`), and
    memory stays bounded because the direct sum is taken in chunks.  Very
    small t (below about 1e-3) is allowed, but the 1/(it) term inflates err
    through its conditioning.

    Direct route, N <= 2a: all N terms are added and err =
    error_bound(t, N) + _fp_slack(t, N).  Here the split below would save
    at most half of the terms.

    Euler-Maclaurin route, N > 2a.  With s = 1+it, f(x) = x^(-s),
    f^(j)(x) = (-1)^j (s)_j x^(-s-j) ((s)_j the rising factorial) and
    c_k = B_2k/(2k)!,

        sum_{a<n<=N} f(n) = (a^(-it) - N^(-it))/(it) + (f(N) - f(a))/2
                            + sum_{k<=m} c_k (f^(2k-1)(N) - f^(2k-1)(a)) + R_m,

    and, as |B_2m(x - floor x)| <= |B_2m|,

        |R_m| <= |c_m| int_a^N |f^(2m)(x)| dx <= |c_m| |(s)_2m| / (2m a^2m).

    Added to the corrections of g_N, the terms N^(-it)/(it) and f(N)/2
    cancel exactly, so neither is computed, and

        g_N(t) = sum_{n<=a} n^(-s) + a^(-it) A + N^(-it) B + R_m,
        A = 1/(it) - 1/(2a) + sum_k c_k (s)_(2k-1) a^(-2k),
        B = s/(16 N^2) - sum_k c_k (s)_(2k-1) N^(-2k).

    The value is computed as (head + a^(-it) A) + N^(-it) B; the two tail
    terms, R_m and their rounding below come from :func:`_em_tail`, which
    the block kernel of the verifier shares.

    Choice of a and m.  a >= t bounds each ratio |s+j|/a by
    sqrt(1 + ((1+j)/a)^2), and a >= 64 keeps that near 1 for the j < 2m
    that occur when t is small.  The product of the ratios over j < 2m is
    then largest as t rises to a = 64, where it is 1.40, so successive
    Bernoulli terms shrink by about (|s+2k|/(2 pi a))^2 < 1/36 and
    R_m <= 1.40 |c_m|/(2m) for every t.  m = 10 is the least order that puts
    this under eps/2: it gives 1.5e-17, m = 9 gives 6.1e-16.

    Radius, with eps the machine epsilon and u = eps/2 the unit roundoff:
    err = error_bound(t, N) + R_m + rounding.  R_m is computed as the
    product of the 2m ratios |s+j|/a; its own rounding is far below an ulp
    of 1.  Write S_A = 1/t + 1/(2a) + sigma_a and S_B = |s|/(16 N^2) +
    sigma_N for the sums of the moduli of the parts of A and B, where
    sigma_x is the moduli sum that :func:`_bernoulli_sums` returns.  To
    first order in eps, rounding is the sum of:

    * head: the model of :func:`_fp_slack` charged on the a terms that are
      summed directly, eps (4a + t ln^2(a)/2);
    * phases: x^(-it) for x in {a, N} is exp(-iy) with y = fl(t fl(ln x))
      within 1.5 eps t ln x of t ln x, and |exp(-iy') - exp(-iy)| <=
      |y' - y|; with |A| <= S_A and |B| <= S_B this is
      2 eps (t ln a S_A + t ln N S_B).  The phase of a enters the 1/(it)
      part of A as 2 eps ln a, not as a 1/t term;
    * the rest of each product x^(-it) A (or B), at most 4 eps S_A (or
      S_B): cos and sin round to u each (0.71 eps), forming A costs eps
      (-1/t and the addition of the Bernoulli sum; 1/(2a) is in the real
      part) and B 1.5 eps (16 N^2, the division and the subtraction), the
      complex product sqrt(5) u (1.12 eps), and the addition into the
      value u of the partial sum that holds it, which with the order
      above is 1 eps for a and 0.5 eps for N.  The 1/t part of this,
      4 eps/t, is the conditioning of 1/(it) for small t, the same
      charge as in :func:`_fp_slack`; the a^(-it) - N^(-it) of the
      integral term, which would double it, is never formed;
    * the head's share of the two final additions, eps H(a) with
      H = :func:`harmonic_bound`;
    * the Bernoulli sums: p_1 is within eps, each recurrence step adds at
      most 4 eps (two complex products at 1.12 eps, the division by x^2
      and the rounding of x^2), the product with c_k eps, and the m-1
      additions (m/2) eps of sigma_x, so 5m eps (sigma_a + sigma_N) covers
      both sums.

    With N >= 2a + 1 and t <= a this never exceeds the direct route's
    _fp_slack(t, N): its 4 eps/t and the head's phase term match or
    exceed their counterparts here, and 4 eps (N - a) >= 260 eps is more
    than the remaining terms, which come to about eps (4 ln a + 1).
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    a = _em_head(t)
    if N <= 2 * a:
        return CertifiedComplex(_direct_sum(t, N), error_bound(t, N) + _fp_slack(t, N))
    lna = math.log(a)
    head = 4.0 * a + 0.5 * t * lna * lna + harmonic_bound(a)
    tail_a, tail_N, remainder, rounding = _em_tail(t, a, N, head)
    value = _power_sum(t, a)
    value += tail_a
    value += tail_N
    err = error_bound(t, N) + remainder + rounding
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


def oracle_zeta(t: float, target_err: float) -> CertifiedComplex:
    """zeta(1+it) through the alternating (eta) series, independent of g_N.

    zeta(s) = eta(s) / (1 - 2^(1-s)); on the line s = 1+it the denominator
    is 1 - 2^(-it), which nearly vanishes when t is close to a multiple of
    2*pi/log 2, and the requested accuracy then has to be reached by the
    eta sum divided by that small modulus.  The summation start doubles
    until the conservative error estimate meets target_err; if that takes
    more than _ORACLE_MAX_TERMS terms a ConvergenceError is raised.
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
        if start + cols > _ORACLE_MAX_TERMS:
            raise ConvergenceError(
                f"oracle needs over {_ORACLE_MAX_TERMS} terms for target {target_err} at t = {t}"
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
