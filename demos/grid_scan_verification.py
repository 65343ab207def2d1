"""Grid-scan verification: checking the bounds where they are sharpest.

A scan certifies |zeta(1+it)| at every grid point and compares against a
bound with the error radius folded in, so a reported PASS is a guarantee
about the grid (and only the grid, as every result says).
"""

import math

from zetabound import (
    ScanConfig,
    check_bound,
    crossing_point,
    max_ratio,
    scan_interval,
)

# A short certified scan; at t = e the ratio equals the modulus (log e = 1).
report = scan_interval(ScanConfig(t_lo=math.e, t_hi=30.0))
print(f"scan [e, 30], h=0.01: {len(report.t)} certified points")
print(f"max |zeta(1+it)|/log t = {report.max_ratio:.6f} at t = {report.argmax_t:.2f}")

# The affine bound holds with room to spare on this range.
result = check_bound(math.e, 500.0, 0.5, 0.6633)
print(f"\n(1/2) log t + 0.6633 on [e, 500]: "
      f"{'holds' if result.holds_on_grid else 'violated'}, "
      f"worst margin {result.worst_margin:.4f} at t = {result.worst_t:.2f}")
print(f"(note: {result.grid_note})")

# The linear bound 0.6443 log t is tangent at the ratio's global maximum,
# so verifying it needs radii well below the ~2.6e-5 headroom.  At the
# default r = 0.005, as at any r, every kernel call sums a head and zeta's
# Euler-Maclaurin tail, whose radii (~1e-13 here) hold no truncation bound.
tight = check_bound(math.e, 100.0, 0.6443, 0.0)
print(f"\n0.6443 log t on [e, 100] at the default r: "
      f"{'holds' if tight.holds_on_grid else 'violated'}, "
      f"worst margin {tight.worst_margin:.2e} at t = {tight.worst_t:.4f}")

# Locate the maximum and the last crossing of the refined slope 0.5480.
t_star, ratio = max_ratio(math.e, 100.0, 0.01, 1e-4)
print(f"\nratio peak: {ratio:.6f} at t = {t_star:.4f}")
t_cross = crossing_point(0.5480, 600.0, 700.0)
print(f"ratio falls through 0.5480 for the last time at t = {t_cross:.4f}")
print(f"so 0.5480 log t bounds |zeta(1+it)| from that point on "
      f"(checked on grids up to 1e4 in the test suite)")
