"""Per-point bounds of the Euler-Maclaurin tail: a reference that shares no code with the kernel.

tail_rounding(t, a) is the rounding bound that zeta_eval._em_tail derives,
taken at each point on its own, with sigma (the sum of the moduli of the
Bernoulli terms) at that point's t; tail_remainder(t, a) is the remainder
bound |c_m| |(s)_2m| / (2m a^2m) at each point.  The kernel returns one
float of each for a whole call, which must be at least these at every
point.  The Bernoulli numbers come from their recurrence in exact
rationals, the harmonic bound from its closed form.
"""

import math
from fractions import Fraction

import numpy as np

EPS = 2.220446049250313e-16
EULER_GAMMA = 0.5772156649015329
ORDER = 10


def _bernoulli(n):
    # B_0 .. B_n from sum_{j<=m} C(m+1, j) B_j = 0
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


_B = _bernoulli(2 * ORDER)
# |c_k| = |B_2k| / (2k)!, k = 1 .. ORDER
ABS_COEFFS = [float(abs(_B[2 * k]) / math.factorial(2 * k)) for k in range(1, ORDER + 1)]


def _ratios(t, a):
    # |s + j| / a for j < 2m, one row per j, at s = 1 + it
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    return np.hypot(1.0 + np.arange(2 * ORDER)[:, None], t[None, :]) / a


def sigma(t, a):
    """sum_k |c_k| |(s)_(2k-1)| / a^(2k) at each t."""
    prod = np.cumprod(_ratios(t, a), axis=0)  # row j: |(s)_(j+1)| / a^(j+1)
    return sum(c * prod[2 * k - 2] / a for k, c in enumerate(ABS_COEFFS, start=1))


def tail_rounding(t, a):
    """eps (H(a)/2 + (2t ln a + 4)(1/t + 1/(2a) + sigma(t)) + 5m sigma(t)) at each t."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    s = sigma(t, a)
    lna = math.log(a)
    harmonic = lna + EULER_GAMMA + 1.0 / a
    size = (2.0 * t * lna + 4.0) * (1.0 / t + 0.5 / a + s)
    return EPS * (0.5 * harmonic + size + 5.0 * ORDER * s)


def tail_remainder(t, a):
    """|c_m| |(s)_2m| / (2m a^2m) at each t."""
    return ABS_COEFFS[-1] / (2 * ORDER) * np.prod(_ratios(t, a), axis=0)
