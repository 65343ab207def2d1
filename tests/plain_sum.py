"""The plain sum of the head n <= a: a reference for the kernel that shares no code with it.

main_sum(t, n) adds all n terms n^(-1-it), from k = n down to 1 (smallest
magnitudes first) in fixed-size chunks, so the result is deterministic and
memory stays bounded.  With the exact tail past the head (the Hurwitz zeta
function) it gives zeta(1+it), which the kernel's Euler-Maclaurin split
must match; fp_slack(t, n) bounds its distance from the exact main sum.
"""

import math

import numpy as np

EPS = 2.220446049250313e-16
CHUNK = 1 << 21


def fp_slack(t, n):
    # Three floating-point effects: accumulation over n terms (4 ulp-scale
    # units each), the phase t*ln k being representable only to eps*t*ln k
    # radians (summing (1/k) * eps * t * ln k over k <= n gives the
    # 0.5 * eps * t * ln^2 n term), and a 4 eps/t allowance for the
    # conditioning of the tail's 1/(it) term at very small t.
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
