"""Certified evaluation of zeta(1+it), step by step.

Every value returned by the evaluator comes with a proven error radius
plus explicit floating-point slack.  The evaluator adds about max(64, t/pi)
terms one by one and takes the rest of zeta in a closed Euler-Maclaurin
form, whose remainder is within eps/2 = 1.1e-16, so the radius holds no
truncation bound at all.  Its N is a nominal term count: the least N whose
truncation bound (1+t)(2+t)/(32 N^2) meets a radius target.  It is not the
length of any sum, no scan budget counts it, and it changes no value.  An
independent alternating-series oracle confirms the certificates from a
formula that shares nothing with the evaluator.
"""

import math

from zetabound import (
    choose_N,
    error_bound,
    eval_zeta_certified,
    harmonic_bound,
    oracle_zeta,
)

# The nominal term count of a radius target: the bound grows with t, so
# the worst t of interest fixes N.  An evaluation sums only about
# max(64, t/pi) terms whatever N, and takes the rest of zeta in closed form.
for T, r in ((100.0, 0.005), (1e4, 0.005), (1e4, 1e-8)):
    n = choose_N(T, r)
    print(f"target r = {r:g} up to t = {T:g}:  N = {n}  (bound {error_bound(T, n):.2e})")

# A certified value: the true zeta(1+it) lies inside the printed disk.
t = 17.7477
cert = eval_zeta_certified(t, choose_N(t, 1e-10))
print(f"\nzeta(1 + {t}i) = {cert.value:.10f}  +- {cert.err:.2e}")
print(f"|zeta| / log t = {cert.modulus / math.log(t):.6f}   "
      "(the largest this ratio ever gets for t >= e)")

# The oracle takes the eta-series route; the disks must intersect.
ref = oracle_zeta(t, 1e-10)
gap = abs(cert.value - ref.value)
print(f"\noracle value     = {ref.value:.10f}  +- {ref.err:.2e}")
print(f"|evaluator - oracle| = {gap:.2e}  <=  {cert.err + ref.err:.2e}  "
      f"(certificates {'consistent' if gap <= cert.err + ref.err else 'VIOLATED'})")

# The harmonic-sum bound log x + gamma + 1/x used by the bound machinery.
for x in (1.0, 10.0, 1234.5):
    brute = sum(1.0 / n for n in range(1, int(x) + 1))
    print(f"\nsum 1/n over n <= {x:g}: {brute:.6f}  <=  {harmonic_bound(x):.6f}")
