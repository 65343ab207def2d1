"""Per-point bounds of the Euler-Maclaurin tail: a reference that shares no code with the kernel.

order(t_max, a) is the least Bernoulli order m whose remainder bound
|c_m| |(s)_2m| / (2m a^2m) at s = 1 + i t_max is at most eps/2, the order
zeta_eval._em_bounds takes for a call on the head a.  tail_rounding(t, a, m)
is the rounding bound that zeta_eval._call_plan derives, taken at each point
on its own, with sigma (the sum of the moduli of the Bernoulli terms) at
that point's t; tail_remainder(t, a, m) is the remainder bound at each
point.  The kernel returns one float of each for a whole call, which must
be at least these at every point.  The Bernoulli numbers come from their
recurrence in exact rationals, the harmonic bound from its closed form.
"""

import math
from fractions import Fraction

import numpy as np

EPS = 2.220446049250313e-16
EULER_GAMMA = 0.5772156649015329
MAX_ORDER = 25


def _bernoulli(n):
    # B_0 .. B_n from sum_{j<=m} C(m+1, j) B_j = 0
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


_B = _bernoulli(2 * MAX_ORDER)
# c_k = B_2k / (2k)!, k = 1 .. MAX_ORDER, exact
COEFFS = [_B[2 * k] / math.factorial(2 * k) for k in range(1, MAX_ORDER + 1)]
ABS_COEFFS = [float(abs(c)) for c in COEFFS]


def _ratios(t, a, m):
    # |s + j| / a for j < 2m, one row per j, at s = 1 + it
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    return np.hypot(1.0 + np.arange(2 * m)[:, None], t[None, :]) / a


def order(t_max, a):
    """The least m <= MAX_ORDER with |c_m| |(s)_2m| / (2m a^2m) <= eps/2 at t_max, else None."""
    prod = np.cumprod(_ratios(t_max, a, MAX_ORDER)[:, 0])  # entry j: |(s)_(j+1)| / a^(j+1)
    for m in range(1, MAX_ORDER + 1):
        if ABS_COEFFS[m - 1] / (2 * m) * prod[2 * m - 1] <= 0.5 * EPS:
            return m
    return None


def sigma(t, a, m):
    """sum_{k<=m} |c_k| |(s)_(2k-1)| / a^(2k) at each t."""
    prod = np.cumprod(_ratios(t, a, m), axis=0)  # row j: |(s)_(j+1)| / a^(j+1)
    return sum(ABS_COEFFS[k - 1] * prod[2 * k - 2] / a for k in range(1, m + 1))


def tail_rounding(t, a, m):
    """eps (H(a)/2 + (2t ln a + 4)(1/t + 1/(2a) + sigma(t)) + 5m sigma(t)) at each t."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    s = sigma(t, a, m)
    lna = math.log(a)
    harmonic = lna + EULER_GAMMA + 1.0 / a
    size = (2.0 * t * lna + 4.0) * (1.0 / t + 0.5 / a + s)
    return EPS * (0.5 * harmonic + size + 5.0 * m * s)


def tail_remainder(t, a, m):
    """|c_m| |(s)_2m| / (2m a^2m) at each t."""
    return ABS_COEFFS[m - 1] / (2 * m) * np.prod(_ratios(t, a, m), axis=0)
