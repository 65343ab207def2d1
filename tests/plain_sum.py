"""The plain N-term sum g_N(t): a reference for the kernel that shares no code with it.

All N terms of the main sum are added, from n = N down to 1 (smallest
magnitudes first) in fixed-size chunks, so the result is deterministic and
memory stays bounded; fp_slack(t, N) bounds its distance from the exact
g_N(t), and also that of main_sum(t, N) from the exact main sum.
"""

import cmath
import math

import numpy as np

EPS = 2.220446049250313e-16
CHUNK = 1 << 21


def fp_slack(t, n):
    # Three floating-point effects: accumulation over n terms (4 ulp-scale
    # units each), the phase t*ln k being representable only to eps*t*ln k
    # radians (summing (1/k) * eps * t * ln k over k <= n gives the
    # 0.5 * eps * t * ln^2 n term), and conditioning of the 1/(it)
    # correction for very small t.
    ln_n = math.log(n) if n > 1 else 0.0
    return EPS * (4.0 * n + 0.5 * t * ln_n * ln_n + 4.0 / t)


def main_sum(t, n):
    """sum_{k<=n} k^(-1-it), added one by one."""
    s = -(1.0 + 1j * t)
    total = 0j
    for top in range(n, 0, -CHUNK):
        k = np.arange(top, max(top - CHUNK, 0), -1, dtype=np.float64)
        total += np.exp(s * np.log(k)).sum()
    return complex(total)


def direct_sum(t, n):
    """g_N(t) for N = n, with all n terms of the main sum added one by one.

    |value - g_N(t)| <= fp_slack(t, n).
    """
    value = main_sum(t, n)
    nmit = cmath.exp(-1j * t * math.log(n))  # N^(-it)
    value += nmit * (1.0 / (1j * t) - 0.5 / n + (1.0 + 1j * t) / (16.0 * n * n))
    return value
