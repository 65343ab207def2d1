"""Certified numerical evaluation of zeta(1+it).

Every result carries an absolute error radius that accounts for the
mathematics and for floating-point accumulation, so the true zeta value is
guaranteed to lie inside the reported disk.  Past a head n <= a, a at
least 64 and t/pi, the terms n^(-1-it) are smooth in n, so the evaluator
sums only n <= a and adds zeta's own closed-form Euler-Maclaurin tail past
a, with the least Bernoulli order whose explicit remainder is within half
an ulp (Edwards, Riemann's Zeta Function, ch. 6; Johansson, Numer.
Algorithms 2015).  It has no truncation term.  The evaluator still takes
a nominal term count N, choose_N's least N whose truncation bound
(1+t)(2+t) / (32 N^2) is within a radius target r, which the benchmark's
tracer reads; N has no effect on a value, a radius or a scan's budget.

One kernel, _eval_block, computes zeta(1+it) at all K points of an
equispaced grid at once; :func:`eval_zeta_certified` is its one-point
call, and the scans of :mod:`zetabound.verifier` call it on runs of the
grid.  On the grid, S(t_c + k h) = sum_n n^(-1-i t_c) e^(-i k h ln n) is a
type-1 nonuniform DFT in k, computed by rounding each phase h ln n to an
FFT grid and expanding the leftover phase in a short Chebyshev series
(Odlyzko and Schoenhage's multiple-evaluation idea, in the NUFFT form of
Greengard and Lee, economized as by Ruiz-Antolin and Townsend, with the
transforms pruned to the bins the phases reach).  A call costs
O(p a + p M log B), M the least power of two >= K and B <= M those
bins, against O(K a) point by point; one point costs O(a) terms, which
is O(t), while N grows like t / sqrt(r).  The expansion remainder, the
Euler-Maclaurin remainder and every floating-point effect are folded
into the radius (see _call_plan), so no certificate is weakened.

An independent cross-check, :func:`oracle_zeta`, evaluates the same point
through the alternating series zeta(s) = (1 - 2^(1-s))^(-1) *
sum (-1)^(n-1) n^(-s) with Euler acceleration.  It shares no formulas
with the kernel, which is what makes their mutual agreement a meaningful
test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ResourceBudgetError

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
_CHUNK = 1 << 21          # oracle summation chunk; fixed so results are bit-reproducible
_MAX_N = 1 << 62
_ORACLE_MAX_TERMS = 1_000_000  # the eta oracle gives up beyond this many terms
# Budget in kernel passes, each over one head term or one grid point: a
# scan's (verifier._charge) or a point evaluation's head.  Exceeding it
# raises before any sum.
DEFAULT_BUDGET = 5.0e10

# Euler-Maclaurin split of the main sum, derived in _em_tail: the terms
# n <= a = _em_head(t_max, K) are summed one by one and the rest in closed
# form with the least Bernoulli order m whose remainder is within eps/2
# (_em_bounds); a >= t/pi needs m <= 25, the end of the table.
_EM_MIN_HEAD = 64
_EM_MAX_ORDER = 25
# the most passes p+1 a grid call makes over its head: d <= pi/2 and every
# segment-sum depth D > 64 hold p+1 to 16 (_eval_block, Order)
_HEAD_PASSES = 16


def _em_coeffs(m: int) -> tuple[float, ...]:
    """c_k = B_2k/(2k)! for k = 1, ..., m, correctly rounded from exact integers.

    The tangent numbers T_(2k-1) (tan x = sum T_(2k-1) x^(2k-1)/(2k-1)!)
    come from Knuth and Buckholtz's integer recurrence (Brent and Harvey,
    Fast computation of Bernoulli, tangent and secant numbers, 2013), and
    B_2k = (-1)^(k-1) 2k T_(2k-1) / (4^k (4^k - 1)), so each c_k is one
    integer true division, which Python rounds correctly.
    """
    T = [math.factorial(i) for i in range(m)]  # T[i] becomes T_(2i+1)
    for k in range(1, m):
        for j in range(k, m):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple(
        (-1) ** (k - 1) * 2 * k * T[k - 1] / (4**k * (4**k - 1) * math.factorial(2 * k))
        for k in range(1, m + 1)
    )


_EM_COEFFS = _em_coeffs(_EM_MAX_ORDER)

_KERNEL_CHUNK = 1 << 16  # terms per n-chunk of the block kernel

# the n in 1..209 coprime to 2*3*5*7 = 210: one turn of the wheel whose
# multiples need no cos or sin of their own in _head_weights
_WHEEL_RESIDUES = np.array([r for r in range(1, 210) if math.gcd(r, 210) == 1])


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


def error_bound(t: float, N: int) -> float:
    """Truncation bound (1+t)(2+t) / (32 N^2) of the N-term sum g_N(t).

    g_N(t) = sum_{n<=N} n^(-1-it) + N^(-it)/(it) - N^(-1-it)/2
    + (1+it)/16 N^(-2-it) is within this bound of zeta(1+it).  No evaluator
    sums it: the bound defines the nominal term count N of choose_N.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if not (N >= 1 and float(N).is_integer()):  # nan fails N >= 1
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


def _em_head(t_max: float, K: int) -> int:
    """The head a = max(64, ceil(t_max/pi), min(ceil t_max, K)) of a K-point call.

    See _eval_block, Split, for the rule and _em_tail for the order m it
    needs.
    """
    return max(_EM_MIN_HEAD, math.ceil(t_max / math.pi), min(math.ceil(t_max), K))


def _em_bounds(t_pts: np.ndarray, a: int, slip: float = 0.0) -> tuple[int, float, float]:
    """(m, remainder, rounding) of the Euler-Maclaurin tail past a, for a call on t_pts.

    t_pts is the call's sorted array of points, which share a, and slip an
    array's measured max |t_0 + j h - t_j| / t_j (_call_plan).  m is the least
    order whose remainder bound |c_m| |(s)_2m| / (2m a^2m) at s = 1+it,
    for the largest t, is at most u = eps/2, and remainder is that bound.
    rounding bounds the floating-point error of the tail and of adding it
    to a head sum at every point (derived in _call_plan), with sigma =
    sum_{k<=m} |c_k (s)_(2k-1)| a^(-2k), the sum of the moduli of the
    Bernoulli terms, at the largest t.  At a fixed m the remainder and
    sigma are products of the ratios |s+j|/a, so both rise with t and hold
    at every point.  Raises ConvergenceError when no order up to
    _EM_MAX_ORDER gets there.
    """
    t_lo, t_hi = float(t_pts[0]), float(t_pts[-1])
    sigma, ratios = 0.0, 1.0
    for k, c in enumerate(_EM_COEFFS, start=1):
        ratios *= abs(complex(2 * k - 1, t_hi)) / a  # now |(s)_(2k-1)| / a^(2k-1)
        sigma += abs(c) * ratios / a
        ratios *= abs(complex(2 * k, t_hi)) / a
        remainder = abs(c) / (2 * k) * ratios
        if remainder <= 0.5 * _EPS:
            break
    else:
        raise ConvergenceError(
            f"no Euler-Maclaurin order up to {_EM_MAX_ORDER} meets eps/2 past n = {a} at t = {t_hi}"
        )
    lna = math.log(a)
    phase, rest = (2.0, 4.0) if len(t_pts) == 1 else (4.0 + slip / _EPS, 6.0)
    size = max((phase * x * lna + rest) * (1.0 / x + 0.5 / a + sigma) for x in (t_lo, t_hi))
    rounding = _EPS * (0.5 * harmonic_bound(a) + size + 5.0 * k * sigma)
    return k, remainder, rounding


def _bernoulli_sum(t: float | np.ndarray, a: int, m: int) -> complex | np.ndarray:
    """sum_{k<=m} c_k (s)_(2k-1) a^(-2k) at s = 1+it, by Horner in u = s/a.

    t is a float or an array, and the same arithmetic serves both: the
    in-place operators update an array and rebind a Python complex, and an
    array call forms every level's q_k in one buffer.  With
    q_k = (u + (2k-1)/a)(u + 2k/a) = u^2 + (4k-1) u/a + 2k(2k-1)/a^2, the sum
    is (u/a)(c_1 + q_1 (c_2 + q_2 (... + q_(m-1) c_m))).  q_k is formed from
    y = t/a as i y (4k+1)/a - y^2 + 2k(2k+1)/a^2, and u/a as i y/a + 1/a^2;
    the products with iy = 0 + iy are exact but for one rounding each.
    """
    y = t / a
    iy = 1j * y
    minus_y2 = iy * iy
    buf = np.empty_like(iy) if isinstance(iy, np.ndarray) else None
    acc = _EM_COEFFS[m - 1]
    for k in range(m - 1, 0, -1):
        lin = (4 * k + 1) / a
        q = iy * lin if buf is None else np.multiply(iy, lin, out=buf)
        q += minus_y2
        q += 2 * k * (2 * k + 1) / a / a
        acc *= q
        acc += _EM_COEFFS[k - 1]
    u_over_a = iy * (1.0 / a) if buf is None else np.multiply(iy, 1.0 / a, out=buf)
    u_over_a += 1.0 / a / a
    acc *= u_over_a
    return acc


def _em_tail(t: float | np.ndarray, a: int, m: int, h: float) -> complex | np.ndarray:
    """The closed-form part of zeta(1+it) past the head n <= a, at Bernoulli order m.

    Returns tail with

        zeta(1+it) = sum_{n<=a} n^(-1-it) + tail + R_m,
        tail = a^(-it) A,  |R_m| <= the remainder of _em_bounds.

    t is a float, or a sorted array of points sharing a, for which tail is
    an array of the same shape; a float t keeps Python complex arithmetic.
    An array takes a^(-it) from _tail_turns at step h, which a float ignores.
    m is the call's order (Choice of m); _call_plan bounds the rounding.

    Derivation.  With s = 1+it, (s)_j the rising factorial s (s+1) ...
    (s+j-1), c_k = B_2k/(2k)! and B~_2m the periodic Bernoulli function,
    Euler-Maclaurin summation of n^(-s) over n > a gives, for Re s > 1 - 2m
    (Edwards, Riemann's Zeta Function, sec. 6.4),

        zeta(s) = sum_{n<=a} n^(-s) + a^(1-s)/(s-1) - a^(-s)/2
                  + sum_{k<=m} c_k (s)_(2k-1) a^(1-s-2k) + R_m,
        R_m = -(s)_2m/(2m)! int_a^inf B~_2m(x) x^(-s-2m) dx,

    and, as |B~_2m| <= |B_2m| and Re s = 1,

        |R_m| <= |c_m| |(s)_2m| int_a^inf x^(-1-2m) dx
              = |c_m| |(s)_2m| / (2m a^2m).

    On s = 1+it every term past the head carries a^(-it), so

        A = 1/(it) - 1/(2a) + sum_{k<=m} c_k (s)_(2k-1) a^(-2k),

    where the Bernoulli sum is taken by Horner in u = s/a
    (_bernoulli_sum): (s)_(2k+1) a^(-2k-2) = (s)_(2k-1) a^(-2k) q_k with
    q_k = (u + (2k-1)/a)(u + 2k/a).

    Choice of m.  As |c_k| = 2 zeta(2k)/(2 pi)^(2k), successive Bernoulli
    terms shrink by about (|s+2k|/(2 pi a))^2, and R_m with them.  m is
    taken per call, the least order that puts R_m at (a, t_max) within
    u = eps/2 (_em_bounds); R_m rises with t, so it then holds at every
    point.  The heads of _em_head have a >= 64 and a >= t/pi:
    * a >= t (a = ceil t, or 64 at t <= 64) bounds each ratio |s+j|/a by
      sqrt(1 + ((1+j)/a)^2), whose product over j < 20 is largest as t
      rises to a = 64, where it is 1.40, so R_10 <= 1.40 |c_10|/20 =
      1.5e-17 and m <= 10.  For t >= 64 and a = ceil t, m = 10 exactly:
      R_9 >= (64/65)^18 |c_9|/18 > 3.6e-16;
    * a = ceil(t/pi) makes the ratios about pi and the terms shrink by
      about 4 per order: R_m tends to 2/(50 * 2^50) = 3.55e-17 at m = 25
      as t grows, and R_24 is four times that, so m = 25 at every t from
      201 to 1e12 (checked), and at most 25 for the heads in between.
    _EM_COEFFS ends at order 25, and a head that needs more raises.  R_m
    is computed as the product of the 2m ratios |s+j|/a (_em_bounds); its
    own rounding is far below an ulp of 1.
    """
    lna = math.log(a)
    if not isinstance(t, np.ndarray):
        return cmath.exp(-1j * (t * lna)) * (_bernoulli_sum(t, a, m) - 0.5 / a - 1j * (1.0 / t))
    A = _bernoulli_sum(t, a, m)
    A.real -= 0.5 / a
    A.imag -= 1.0 / t
    # one operand order at every K: numpy's SIMD complex product need not
    # round turns * A and A * turns alike
    A *= _tail_turns(t, lna, h)
    return A


def _tail_turns(t: np.ndarray, lna: float, h: float) -> np.ndarray:
    """a^(-i(t_0 + j h)), j < K, for the sorted K-point array t and lna = fl(ln a).

    h is the step of the call's plan (_call_plan).  With W about sqrt(K)
    and j = J W + l, l < W, the value is e^(-i(t_0 + J W h) ln a) times
    e^(-i l h ln a): one product of two tables, so cos and sin are taken
    about 2 sqrt(K) times, not 2K.  _call_plan bounds the phases.
    """
    K = len(t)
    th = h * lna
    W = 1 << (K - 1).bit_length() // 2
    hi = np.arange(0, K, W) * th
    hi += float(t[0]) * lna
    tables = [np.cos(ph) - 1j * np.sin(ph) for ph in (hi, np.arange(W) * th)]
    return np.multiply.outer(*tables).reshape(-1)[:K]


def _transform(K: int, h: float, n_hi: int) -> tuple[int, int, int, float, float, int, float]:
    """(M, B, p, d, factor, chunk, depth) of a K-point call at step h summing n <= n_hi.

    M is the FFT length, the least power of two >= K; B <= M the bins the
    phases reach, rounded up to a power of two; p the expansion order; d
    k_max pi/M, rounded up; factor 2 (d/2)^(p+1)/(p+1)! / (1 - d/(2(p+2))),
    the expansion remainder per unit of H; chunk the terms per n-chunk;
    depth the additions a term passes in the segment sums (see _eval_block).
    """
    M = 1 << (K - 1).bit_length()
    step = 2.0 * math.pi / M
    ln_hi = math.log(n_hi)
    # J, the last bin reached; B > J + 1 leaves room for an array log whose
    # rint lands one bin higher than this scalar one
    J = round(ln_hi * (h / step))
    B = min(M, 1 << (J + 1).bit_length())
    chunk = min(n_hi, _KERNEL_CHUNK)
    depth = chunk + -(-n_hi // chunk) + h * ln_hi / (2.0 * math.pi)
    d = (K - 1 - (K - 1) // 2) * math.pi / M * (1.0 + _EPS)
    p, term = 0, d  # 2 (d/2)^(p+1)/(p+1)!
    while (factor := term / (1.0 - d / (2 * p + 4))) >= 0.5 * _EPS * depth:
        p += 1
        term *= d / (2 * p + 2)
    return M, B, p, d, factor, chunk, depth


@lru_cache(maxsize=None)
def _phase_coeffs(d: float, p: int) -> tuple[float, ...]:
    """rho_0..rho_p of the degree-p Chebyshev truncation of e^(-iw) on |w| <= d.

    sum_{q<=p} e_q (-i)^q J_q(d) T_q(w/d) = sum_{m<=p} rho_m (-iw)^m, with
    e_0 = 1 and e_q = 2 (Jacobi-Anger).  T_q has x^(q-2k) coefficient
    (-1)^k 2^(q-2k-1) q C(q-k, k)/(q-k), and J_q(d) > 0 for d <= pi/2, so
    rho_m sums positive terms, 1/m! over all q: it is 1/m! less the w^m
    share of the orders p < q <= p + 20 (J_q(d) by its power series),
    within 2 ulp of the exact truncation (checked at 30 digits).  Made
    once per (d, p) per process.
    """
    rho = [1.0 / math.factorial(m) for m in range(p + 1)]
    x = 0.25 * d * d
    for q in range(p + 1, p + 21):
        jq = sum((-x) ** j / (math.factorial(j) * math.factorial(q + j)) for j in range(10))
        jq *= (0.5 * d) ** q
        for k in range((q - p + 1) // 2, q // 2 + 1):  # the m = q - 2k <= p
            m = q - 2 * k
            rho[m] -= jq * 2.0 ** m * q * math.comb(q - k, k) / (q - k) / d ** m
    return tuple(rho)


@lru_cache(maxsize=None)
def _pruned_layout(M: int, B: int) -> tuple[np.ndarray, np.ndarray]:
    """(twiddles, ik) of an M-point FFT taken as L = M/B FFTs of B points.

    Entry (v, j) of the twiddles is w^(v j), w = e^(-2 pi i/M), from the
    exact integer angle v j < M; entry (v, u) of ik is -ik for the signed k
    of bin L u + v.  They depend on (M, B) alone, so they are made once per
    pair per process and returned read-only: 32 M bytes a pair, and with M
    and B powers of two every pair with M <= 2^14 (the scans' calls) holds
    under 16 MB all told.
    """
    L = M // B
    angle = (np.arange(L)[:, None] * np.arange(B)) * (2.0 * math.pi / M)
    twiddles = np.empty((L, B), dtype=np.complex128)
    twiddles.real = np.cos(angle)
    twiddles.imag = -np.sin(angle)
    # bin b holds k = b for b <= M/2 and k = b - M above
    k = np.arange(B) * L + np.arange(L)[:, None]
    k[k > M // 2] -= M
    ik = -1j * k
    twiddles.flags.writeable = ik.flags.writeable = False
    return twiddles, ik


def _head_weights(t: float, n_hi: int) -> np.ndarray:
    """z with z[n] = n^(-it) for 1 <= n <= n_hi; z[0] is left unset.

    n^(-it) is completely multiplicative, so cos and sin are taken only at
    n = 2, 3, 5, 7 and at the n coprime to 210 (48 residues mod 210, 1
    among them: about 23% of the terms).  Every other n is z[q] z[n/q] for
    a q in {2, 3, 5, 7} that divides it, one strided slice product per q
    and dyadic block [2^k, 2^(k+1)), the blocks in increasing order: the
    cofactor n/q is below 2^k, so it is final when it is read.  q = 7, 5,
    3, 2 write in that order, so an n with several of them holds
    z[p] z[n/p] for its least prime p.  z[1] = 1 - 0i, so z[q] z[1] is z[q]
    exactly.

    Rounding.  Along n = q_1 ... q_P r, r = 1 or coprime to 210 and
    P <= log2 n, z[n] is a product of at most P + 1 values that cos and
    sin gave.  Its phase is the sum of theirs, t fl(ln q_i) and t fl(ln r)
    rounded in the log and the product with t, so it is within eps t ln n,
    as one direct evaluation's.  The rest of its error, relative to
    |z[n]| = 1, is at most (P + 1) sqrt(2) u + P sqrt(5) u
    <= (2 log2 n + 1) eps: sqrt(2) u for each factor's cos and sin, which
    round by u each, and sqrt(5) u for each complex product (see
    _call_plan).
    """
    z = np.empty(n_hi + 1, dtype=np.complex128)
    base = (np.arange(0, n_hi + 1, 210)[:, None] + _WHEEL_RESIDUES).ravel()
    base = np.concatenate(([2, 3, 5, 7], base))
    base = base[base <= n_hi]
    ph = np.log(base.astype(np.float64))
    ph *= t
    z.real[base] = np.cos(ph)
    z.imag[base] = -np.sin(ph)
    for k in range(1, n_hi.bit_length()):
        lo, hi = 1 << k, min(2 << k, n_hi + 1)
        for q in (7, 5, 3, 2):
            m_lo, m_hi = -(-lo // q), (hi - 1) // q
            if m_lo <= m_hi:
                np.multiply(z[m_lo:m_hi + 1], z[q], out=z[q * m_lo:q * m_hi + 1:q])
    return z


def _segments(j: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, bins) of the runs of equal values of the nondecreasing j.

    j holds integer-valued floats >= 0.  starts are the indices where a run
    begins, found by searching j for every value from j[0] to j[-1] and
    dropping the values no entry takes; bins are the runs' values mod M.
    The search costs O(S log len(j)) for the S = j[-1] - j[0] + 1 values,
    which in a kernel chunk is at most h ln(chunk + 1) / (2 pi/M) + 1, so
    under 1.8 M + 1 for h <= 1 (ScanConfig's range), against O(len(j)) for
    the nonzero steps of j.
    """
    first, last = int(j[0]), int(j[-1])
    starts = np.searchsorted(j, np.arange(first, last + 1, dtype=np.float64))
    taken = np.flatnonzero(starts[:-1] != starts[1:])  # a run of value first + i
    bins = np.append(taken, last - first)
    starts = starts[bins]
    bins += first
    bins &= M - 1
    return starts, bins


def _eval_block(t_pts: np.ndarray, N: int, plan: _Plan) -> tuple[np.ndarray, float]:
    """zeta(1+it) at each point of the sorted, equispaced grid t_pts, as plan says.

    Returns (values, err), |values[j] - zeta(1 + i t_pts[j])| <= err.  plan,
    the caller's checked _call_plan(t_pts), gives the centre t_c, step h,
    head, transform, order m and err, and the kernel derives none of them.

    Split.  With a = max(64, ceil(t_max/pi), min(ceil t_max, K))
    (_em_head), the call sums the main sum over n <= a and adds zeta's
    closed-form Euler-Maclaurin tail a^(-it) A(t) (_em_tail) at each exact
    t_pts[j], with the least Bernoulli order m whose remainder at
    (a, t_max) is within eps/2: 10 at a = ceil t_max >= 64, 25 at
    a = ceil(t_max/pi) (_em_tail, Choice of m).  N, a nominal term count
    (choose_N) that the benchmark's tracer reads, has no effect.

    The head costs p+1 passes over its a terms (one product with delta_n
    and one segment sum per order, below), the tail m Horner levels over
    the K points.  Splitting at t/pi instead of t saves (1 - 1/pi) a (p+1)
    head passes, a = ceil t_max, and costs (m - 10) K = 15 K tail passes,
    so by the counts it pays once t_max > 15 K / ((1 - 1/pi)(p+1)): 1.4 K
    to 1.8 K for the orders p+1 = 12 to 16 of the scans' calls.  p+1 is
    at most 16 (Order: d <= pi/2 and D > 64), so at t_max <= K the saving
    is at most 10.9 K and never pays; min(ceil t_max, K) keeps those calls
    at a = ceil t_max and m = 10.  Above K the head stops at K terms, with
    m between 10 and 25, until t_max/pi passes K.

    Main sum.  With the plan's centre t_c = t_pts[mid] and step h fitted
    to the endpoints, and integer offsets k = j - mid (|k| <= k_max), the
    model points t_c + k h give the type-1 nonuniform DFT

        S(t_c + k h) = sum_{n<=a} a_n e^(-i k theta_n),
        a_n = n^(-1-i t_c),  theta_n = h ln n.

    Each theta_n is rounded to the M-point grid 2 pi j_n / M (M the least
    power of two >= K, K = len(t_pts)), leaving |delta_n| <= pi/M, and
    e^(-iw), w = k delta_n, |w| <= d (Order), is replaced by its degree-p
    Chebyshev truncation on [-d, d], sum_{m<=p} rho_m (-iw)^m
    (_phase_coeffs).  Then

        S(t_c + k h) = sum_{m<=p} (-i k)^m FFT_M(F_m)[k mod M] + R_k,
        F_m[j] = sum_{j_n = j} a_n delta_n^m rho_m,

    so the work is p+1 weighted segment sums over n (theta_n is monotone,
    so the n landing on one grid point are consecutive, and rho_m scales
    each segment's sum), taken in chunks of _KERNEL_CHUNK terms, then p+1
    transforms and a Horner pass in k.

    Weights.  z_n = n^(-i t_c) comes once per call for every n <= a from
    _head_weights: cos and sin at n = 2, 3, 5, 7 and the n coprime to 210
    (about 23% of the terms), a product z_q z_(n/q) at the rest.  Each
    chunk forms the real and imaginary parts of a_n = z_n / n as the two
    rows of one float array, so every order's product with delta_n and its
    segment sums (np.add.reduceat along the rows, into the two parts of one
    complex entry per segment) run on contiguous floats, not on complex
    numbers; the segments' starts come from _segments.

    Occupied bins (_transform).  The phases reach bins 0 .. J at most, with
    J = rint(h ln a / (2 pi/M)).  Unless they wind (J + 1 >= M, and then
    B = M), F_m lives on its first B bins, B the least power of two above
    J + 1, and with M = L B and w = e^(-2 pi i/M)

        FFT_M(F_m)[L u + v] = FFT_B(F_m[j] w^(v j))[u],  0 <= v < L,

    so order m takes L transforms of B points, in place along the rows of
    an (L, B) buffer.  The Horner pass in k starts from order p's transform
    and runs down on that layout, with -ik for the signed k of bin L u + v
    (k = b for a bin b <= M/2, b - M above), and takes each order's
    transform as soon as it is made, so one buffer serves every order: the
    transforms take O(pB + M) memory and the segment sums O(chunk).  The
    twiddles w^(v j) and the -ik, 32 B per bin, are made once per (M, B)
    per process (_pruned_layout), not per call.  The weights z_n take 16 B
    per head term, 0.76 MB at t ~ 1.5e5 and 5.1 MB at t ~ 1e6 (a = t/pi).
    One transpose and one rotation put the values in grid order.  B = M
    gives L = 1: M-point transforms, with twiddles all 1.

    Order.  With d = k_max pi/M (<= pi/2, reached when K is a power of two)
    and H = harmonic_bound(a) >= sum 1/n, the truncation drops the terms
    q > p of e^(-iw) = sum_q e_q (-i)^q J_q(d) T_q(w/d); with |T_q| <= 1
    on [-1, 1] and |J_q(x)| <= (x/2)^q/q! (Abramowitz and Stegun 9.1.62),
    |R_k| <= H 2 (d/2)^(p+1)/(p+1)! / (1 - d/(2(p+2))), against
    H d^(p+1)/(p+1)! for the Taylor polynomial (Ruiz-Antolin and Townsend,
    SIAM J. Sci. Comput. 40, 2018).  Write D = chunk + n_chunks +
    h ln a / (2 pi) for the segment-sum depth below; p is the least order
    whose bound is below eps D/2, so the remainder stays below half the
    segment-sum rounding eps H e^d D that the radius charges anyway.  At
    d = pi/2 (1 + eps) the bound for p+1 = 16 is 9.5 eps, so p+1 <= 16
    (_HEAD_PASSES, which scan budgets charge) as every D > 64; calls of
    2^14 points at t ~ 1e3 and 1e6 take 15 and 14, 10 001 at 1.5e5 take 12.

    One point.  K = 1 (eval_zeta_certified, or a scan's last call of one
    point) has h = 0, M = B = 1, d = 0, p = 0 and rho = (1,), so every
    delta_n = 0: the call sums a_n from cos and sin of t ln n in chunks and
    adds _em_tail's float path, 3 to 6 times as fast as the grid path.  Its
    head, a log, cos and sin per term, always splits at t/pi.
    """
    K = len(t_pts)
    t_c, h, a, M, B, rho, chunk, order, radius = plan
    if K == 1:  # a_n summed plainly: the grid path costs a point 3-6x as much at t <= 1e4
        head = 0j
        for lo in range(1, a + 1, chunk):
            n = np.arange(lo, min(lo + chunk, a + 1), dtype=np.float64)
            ph = t_c * np.log(n)
            w = np.empty(len(n), dtype=np.complex128)  # a_n
            w.real = np.cos(ph) / n
            w.imag = np.sin(ph) / -n
            head += w.sum()
        return np.array([head + _em_tail(t_c, a, order, h)]), radius

    mid = (K - 1) // 2
    p = len(rho) - 1
    L = M // B
    step = 2.0 * math.pi / M
    F = np.zeros((p + 1, B), dtype=np.complex128)
    z = _head_weights(t_c, a)
    for lo in range(1, a + 1, chunk):
        hi = min(lo + chunk, a + 1)
        n = np.arange(lo, hi, dtype=np.float64)
        w = np.empty((2, hi - lo))  # a_n = z_n / n, real and imaginary rows
        np.divide(z.real[lo:hi], n, out=w[0])
        np.divide(z.imag[lo:hi], n, out=w[1])
        x = np.log(n)
        x *= h / step  # theta_n in grid steps, nondecreasing in n
        j = np.rint(x)
        delta = (x - j) * step
        # n runs through each grid point in one segment; add.at folds
        # segments of different windings onto the same bin mod M
        starts, bins = _segments(j, M)
        seg = np.empty(len(starts), dtype=np.complex128)  # one entry per visited bin
        parts = seg.view(np.float64).reshape(-1, 2).T  # its real and imaginary rows
        for m in range(p + 1):
            if m:
                w *= delta
            np.add.reduceat(w, starts, axis=1, out=parts)
            seg *= rho[m]
            np.add.at(F[m], bins, seg)
    # Horner in k from order p down, on the (L, B) layout: row v of order
    # m's transform is FFT_B(F_m[j] w^(v j)), and entry (v, u) holds bin L u + v
    twiddles, ik = _pruned_layout(M, B)
    acc = np.empty((L, B), dtype=np.complex128)
    work = np.empty((L, B), dtype=np.complex128)
    for m in range(p, -1, -1):
        out = acc if m == p else work
        np.multiply(twiddles, F[m], out=out)
        np.fft.fft(out, axis=1, out=out)  # in place (numpy >= 2.0)
        if m < p:
            acc *= ik
            acc += work
    acc = acc.T.reshape(M)  # flat index L u + v
    # rotate to grid order: bins M - mid .. M - 1 (k < 0), then 0 .. K - 1 - mid
    acc = np.concatenate((acc[M - mid:], acc[:K - mid]))
    acc += _em_tail(t_pts, a, order, h)
    return acc, radius


# an _eval_block call's plan, from _call_plan(t_pts): its model points' centre
# t_c and step h, head a, transform (M, B, rho, chunk), tail order m and radius
_Plan = NamedTuple("_Plan", [("t_c", float), ("h", float), ("a", int), ("M", int), ("B", int),
                             ("rho", tuple), ("chunk", int), ("m", int), ("radius", float)])


def _call_plan(t_pts: np.ndarray) -> _Plan:
    """The plan of an _eval_block call on t_pts: where and what it sums, and its radius.

    The model points' centre t_c = t_pts[mid] and step
    h = (t_max - t_0)/(K-1), the head a = _em_head(t_max, K), (M, B, p,
    chunk) from _transform, rho_0..rho_p from _phase_coeffs, the tail's
    order m from _em_bounds and the radius err of every value, all from the
    points alone, never a value: a caller plans once, checks r against err
    before any sum, and _eval_block runs that plan, at the very t_c + k h
    and t_0 + j h whose gaps err measures.  Names below are _eval_block's,
    (d, D) _transform's, k_max the largest |k| and L = M/B.  With eps the
    machine epsilon, u = eps/2, H = harmonic_bound(a) >= sum 1/n,
    G = ln^2(a)/2 + 0.11 >= sum ln n / n, and e^d >= sum_m rho_m
    (|k| delta)^m the most the expansion can amplify a rounding error in
    F_m (0 < rho_m <= 1/m!, _phase_coeffs; e^d <= e^(pi/2) < 4.82), err is
    the sum of:

    * remainder: H factor, factor = 2 (d/2)^(p+1)/(p+1)! /
      (1 - d/(2(p+2))) (_eval_block, Order); its rounding is far inside
      the slack of |J_q(x)| <= (x/2)^q/q!, which is strict;
    * grid gap: the main sum is taken at t_c + k h, not at the
      floating-point t_pts[j], and |S(t) - S(t')| <= |t - t'| G.  The gap
      is the measured max |eta_j| plus eps (t_c + 2 k_max h) for it;
    * phase: with log, the products and the grid reduction each good to a
      few ulp, the realised phase of term n is within
      2 eps (t_c + 2 k_max h) ln n + 2 eps k_max pi/M of (t_c + k h) ln n,
      which sums to 2 eps (t_c + 2 k_max h) G + 2 eps d H.  The phase of
      z_n is the sum of its factors' phases, within eps t_c ln n as that
      of one direct product t_c fl(ln n) (_head_weights);
    * segment-sum rounding: a term passes through at most D additions (its
      segment, the chunk totals, the windings of theta_n folded onto one
      bin), a_n delta_n^m carries at most (p + 6) eps of relative error,
      and the product of a segment's sum with fl(rho_m) adds 2.5 eps (2 ulp
      for rho_m, _phase_coeffs, and u for the product), so
      ||error of F_m||_1 <= eps (D + p + 9) H (pi/M)^m rho_m, which the
      expansion turns into at most that times e^d in S;
    * head weights: beyond its phase, each z_n is within
      (2 log2 a + 1) eps of n^(-i t_c) (_head_weights: sqrt(2) u for the
      cos and sin of each of at most log2 n + 1 factors, sqrt(5) u for
      each of at most log2 n products).  That relative error e_n of a_n
      is the same in every order, so it reaches S as
      sum_n e_n a_n P(-i k delta_n), P(x) = sum_{m<=p} rho_m x^m, and
      |P(iy)| <= |e^(iy)| + factor < 1 + eps D for |y| <= d: to
      first order in eps it adds (2 log2 a + 1) eps H, not amplified by
      e^d, which bounds errors made in each F_m apart;
    * twiddles, when L > 1: the angle fl(v j fl(2 pi/M)) is within
      2 pi eps of 2 pi v j/M, cos and sin are each within 2 eps (4 ulp,
      room for numpy's vectorised routines), and the complex product with
      F_m[j] rounds by sqrt(5) u, so each computed F_m[j] w^(v j) is
      within (2 pi + 2 sqrt(2) + 1.12) eps |F_m[j]| < 11 eps |F_m[j]| of
      the exact one, and a transform turns an input error into an output
      error at most its l1 norm: 11 eps ||F_m||_1, amplified by at most
      e^d;
    * transform rounding (Higham, Accuracy and Stability of Numerical
      Algorithms, Thm 24.2): each output bin comes from one B-point
      transform of a row of l1 norm ||F_m||_1, so ||error||_inf <=
      ||error||_2 <= log2(B) eta sqrt(B) ||F_m||_1 with eta <= 4 eps,
      amplified by at most e^d;
    * Horner in k: each order multiplies by the exact -ik and adds
      FFT(F_m), rounding by u each, so the term of order m passes at most
      m products and m + 1 additions, and the error is at most
      (2p + 1) u H e^d <= (p+1) eps H e^d;
    * tail remainder: R_m at t_max (_em_bounds), which rises with t, so it
      bounds R_m at every point;
    * tail rounding (_em_bounds), below.

    Tail rounding.  Write sigma for the sum of the moduli of the Bernoulli
    terms at t_max (_em_bounds); every |s+j| rises with t, so sigma bounds
    that sum at every point, and S = 1/t + 1/(2a) + sigma >= |A|.  To
    first order in eps, the rounding of the tail a^(-it) A at t and of its
    addition into the head sum is the sum of:

    * the phase: a^(-it) is exp(-iy), and |exp(-iy') - exp(-iy)| <=
      |y' - y|, which with |A| <= S is charged as |y' - y| S; on the
      1/(it) part of A it is |y' - y|/t, not a 1/t term.  An array takes
      y at t_0 + j h (_tail_turns), within 2 eps (t_0 + j h) ln a of
      (t_0 + j h) ln a (fl(ln a), fl(h fl(ln a)), its products with J W
      and l, and the sum with fl(t_0 fl(ln a))).  The measured slip, max
      |fl(t_0 + fl(j h)) - t_j| / t_j, is within eps of the exact one, so y
      is within (slip + 3 eps) t_j ln a of t_j ln a: charged
      (slip + 4 eps) t ln a S;
    * the rest of the product a^(-it) A, at most 6 eps S: cos and sin
      round to u each (0.71 eps) in each of _tail_turns' two tables, their
      product and the product with A by sqrt(5) u each (1.12 eps), forming
      A at most 1.5 eps (1/t, 1/(2a) and the two additions), and the
      addition into the head sum u (0.5 eps): 5.66 eps.  The 1/t part,
      6 eps/t, is the conditioning of 1/(it) for small t;
    * the head's share of that addition, u H;
    * the Bernoulli sum, at most 5m eps sigma.  y and y^2 are within u and
      1.5 eps, 2k(2k+1)/a^2 and (4k+1)/a within eps and u, and
      2k(2k+1)/a^2 + y^2 <= |q_k| (Cauchy-Schwarz on
      |s+2k-1| |s+2k| / a^2), so each q_k is within 2.5 eps |q_k|.  One
      Horner level then adds 2.5 eps (q_k), 1.12 eps (the product) and
      0.5 eps (the addition of c_k) to the relative error of every term it
      carries; c_k itself is within u, and u/a is within 1.5 eps before
      its product (1.12 eps).  The term of order m passes the most levels,
      m - 1, for 4.12 (m - 1) + 0.5 + 2.62 < 5m eps.

    The first two items are (c t ln a + r) S, with (c, r) = (slip/eps + 4, 6),
    which is convex in t at fixed sigma (a linear function plus r/t), so
    over the points it is largest at the first or the last, and the tail
    rounding is eps (H/2 + max over those two of (c t ln a + r) S + 5m sigma).

    One point.  K = 1 has h = 0 and t_c = t_pts[0]: no grid gap, slip,
    head weights or twiddles, and d = 0, B = 1 leave no remainder or
    transform rounding.  fl(ln n) is within u ln n (numpy's log of an
    integer, checked against 120-bit mpmath for n <= 2e6) and its product
    with t rounds by u: the phase charges eps t G.  The sum, with the exact
    rho_0 = 1, is charged D + 7, and 1 for the Horner item at p = 0, which
    it does not spend.  Its tail has (c, r) = (2, 4): y = fl(t fl(ln a)) is
    within 1.5 eps t ln a, and one cos, sin and product leave 3.83 eps S.
    """
    K = len(t_pts)
    mid = (K - 1) // 2
    t_c = float(t_pts[mid])
    a = _em_head(float(t_pts[-1]), K)
    ln_a = math.log(a)
    g = 0.5 * ln_a * ln_a + 0.11
    if K == 1:  # One point (above): no step, gap, slip or head weights
        h, grid_phase, slip, wheel, fixed = 0.0, _EPS * t_c * g, 0.0, 0.0, 8
    else:
        h = (float(t_pts[-1]) - float(t_pts[0])) / (K - 1)
        gap = np.arange(-mid, K - mid) * h  # the model points t_c + k h, less t_pts
        gap += t_c
        gap -= t_pts
        eta = float(np.abs(gap, out=gap).max())
        grid_phase = (eta + 3.0 * (_EPS * (t_c + 2.0 * (K - 1 - mid) * h))) * g
        gap = np.arange(K) * h  # the tail's points t_0 + j h (_tail_turns), less t_pts
        gap += t_pts[0]
        gap -= t_pts
        slip = float((np.abs(gap, out=gap) / t_pts).max())
        wheel, fixed = 2.0 * math.log2(a) + 1.0, 10
    M, B, p, d, factor, chunk, depth = _transform(K, h, a)
    m, remainder, tail_rounding = _em_bounds(t_pts, a, slip)
    h_n = harmonic_bound(a)
    transform = 4.0 * math.log2(B) * math.sqrt(B) + (11.0 if B < M else 0.0)
    rounding = depth + 2 * p + fixed + transform
    radius = h_n * factor + grid_phase + _EPS * h_n * (2.0 * d + wheel + math.exp(d) * rounding)
    radius += remainder + tail_rounding
    return _Plan(t_c, h, a, M, B, _phase_coeffs(d, p), chunk, m, radius)


def eval_zeta_certified(t: float, N: int) -> CertifiedComplex:
    """Evaluate zeta(1+it) with a certified radius: |value - zeta(1+it)| <= err.

    This is a one-point call of _eval_block (One point), planned once
    (_call_plan, which gives err): the a = max(64, ceil(t/pi)) terms of the
    head, in chunks, and zeta's Euler-Maclaurin tail.  A head of more than
    DEFAULT_BUDGET = 5e10 terms (t above about 1.57e11) raises
    ResourceBudgetError before any sum.  N, a positive integer, is a
    nominal term count (choose_N); it has no effect on the value or err.
    Very small t (below about 1e-3) is allowed, but the 1/(it) term
    inflates err through its conditioning.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
    if not (N >= 1 and float(N).is_integer()):  # nan fails N >= 1
        raise ValueError(f"N must be a positive integer, got {N}")
    pts, plan = _point_plan(t)
    values, err = _eval_block(pts, N, plan)
    return CertifiedComplex(complex(values[0]), err)


def _point_plan(t: float) -> tuple[np.ndarray, _Plan]:
    """The one-point call [t] and its plan, or ResourceBudgetError for a head over DEFAULT_BUDGET terms."""
    pts = np.array([t], dtype=np.float64)
    plan = _call_plan(pts)
    if plan.a > DEFAULT_BUDGET:
        raise ResourceBudgetError(
            f"evaluation sums a head of {plan.a:.3e} terms, over the budget {DEFAULT_BUDGET:.3e}"
        )
    return pts, plan


def _eta_terms(t: float, n: np.ndarray) -> np.ndarray:
    """(-1)^(n-1) n^(-1-it) at each n of the float array n."""
    terms = np.exp(-(1.0 + 1j * t) * np.log(n))
    terms[n % 2 == 0] *= -1.0
    return terms


def _eta_accelerated(t: float, start: int, cols: int) -> tuple[complex, float]:
    """Euler-accelerated tail of eta(1+it) = sum (-1)^(n-1) n^(-1-it).

    The first start-1 terms are summed directly, from n = start-1 down to 1
    (smallest magnitudes first) in fixed-size chunks, so the result is
    deterministic and memory stays bounded; from n = start on, the partial
    sums are averaged repeatedly (the Euler transformation in van
    Wijngaarden's form), which converges geometrically once start exceeds
    roughly t.  Returns the accelerated value and an empirical step
    estimate used to build a conservative error bound.
    """
    head = 0j
    for top in range(start - 1, 0, -_CHUNK):
        head += _eta_terms(t, np.arange(top, max(top - _CHUNK, 0), -1, dtype=np.float64)).sum()
    m = np.arange(start, start + cols + 1, dtype=np.float64)
    psums = head + np.cumsum(_eta_terms(t, m))
    row = psums
    hist = [row[0]]
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
        hist.append(row[0])
    step = abs(hist[-1] - hist[-2]) + abs(hist[-2] - hist[-3])
    return complex(row[0]), float(step)


def oracle_zeta(t: float, target_err: float) -> CertifiedComplex:
    """zeta(1+it) through the alternating (eta) series, independent of the kernel.

    zeta(s) = eta(s) / (1 - 2^(1-s)); on the line s = 1+it the denominator
    is 1 - 2^(-it), which nearly vanishes when t is close to a multiple of
    2*pi/log 2, and the requested accuracy then has to be reached by the
    eta sum divided by that small modulus.  The summation start doubles
    until the conservative error estimate meets target_err; if that takes
    more than _ORACLE_MAX_TERMS terms a ConvergenceError is raised.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
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
