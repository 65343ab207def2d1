"""Exponential-sum bounds and the log-bound optimiser.

The route goes: a second-derivative (Kuzmin-Landau type) estimate for
exponential sums, a resulting bound for partial sums of n^(-1-it), and a
dyadic assembly that bounds |zeta(1+it)| by

    E0(t) log x0 + E1(t)/x0 + E2(t)/x0^2 + G0(t) log x + G2(t)/x^2 + Q0(t)

for any 1 <= x0 <= x.  Minimising over x0 and x and writing x0 = beta*t^v,
x = t^u turns this into |zeta(1+it)| <= v log t at t0, and past t0 while
the defect stays <= 0 (BoundTriple); :func:`optimal_bound_params` returns
the best (beta, v, u) for a given t0, in log space so that t0 as large as
1e300 is handled without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .zeta_eval import EULER_GAMMA

__all__ = [
    "e0",
    "e1",
    "e2",
    "TABLE_T0",
    "ExpSumCoeffs",
    "BoundTriple",
    "AsymptoticConstants",
    "kuzmin_landau_bound",
    "partial_sum_bound",
    "coeffs",
    "h_E",
    "h_G",
    "y_E",
    "y_G",
    "optimal_bound_params",
    "omega",
    "omega_residual",
    "asymptotic_constants",
]

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)

# The three constants produced by the dyadic assembly.
e0 = 8.0 * _SQRT2 * (1.0 + _LN2) / _LN2
e1 = (8.0 * _SQRT2 / math.pi) * (2.0 - _LN2)
e2 = (8.0 / (3.0 * math.pi)) * _LN2

# t0 grid of the reference (beta, v, u) table: 10^5..10^15, 10^20..10^100
# by decades of the exponent, then 10^200 and 10^300.
TABLE_T0: tuple[float, ...] = tuple(
    10.0**k for k in (*range(5, 16), *range(20, 101, 10), 200, 300)
)


@dataclass(frozen=True)
class ExpSumCoeffs:
    """The coefficient bundle evaluated at one t.

    E1, E2, G0, G2, Q0 are positive for every t > 0; E0 is positive exactly
    when t > e0^2 = 763.745...  G2 grows like t^2/32 and overflows to inf in
    double precision for t beyond roughly 1e154; the optimiser avoids that
    by working with logarithms instead of this bundle.
    """

    t: float
    e0: float
    e1: float
    e2: float
    E0: float
    E1: float
    E2: float
    G0: float
    G2: float
    Q0: float


@dataclass(frozen=True)
class BoundTriple:
    """Parameters of the bound |zeta(1+it)| <= v log t for t >= t0.

    beta and u are tied to v by beta * t0^v = y_E(t0) and t0^u = y_G(t0);
    with v from :func:`optimal_bound_params` the defect A + omega(t0)
    vanishes, so the bound holds at t0, and past it while A + omega(t)
    <= 0, for which v <= u is necessary but not sufficient: the 1e5 row
    (u < 1) turns positive near t = 1.1e56, past which only the 1e6 row's
    smaller v holds.  The other rows stay <= 0 on a log grid to 1e300.
    """

    t0: float
    beta: float
    v: float
    u: float

    def __post_init__(self) -> None:
        if not self.t0 >= 2000.0:
            raise ValueError(f"t0 must be >= 2000, got {self.t0}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not 0.0 < self.v <= self.u:
            raise ValueError(f"need 0 < v <= u, got v={self.v}, u={self.u}")


@dataclass(frozen=True)
class AsymptoticConstants:
    """Limits of the optimiser as t0 grows."""

    e0sq: float
    lambda1: float
    lambda2: float
    beta_limit: float
    hC_min: float


def kuzmin_landau_bound(interval_length: float, lam: float, alpha: float) -> float:
    """Explicit second-derivative bound for |sum_{n in I} e^(2 pi i f(n))|.

    Valid whenever f is twice continuously differentiable on I with
    lam <= |f''| <= alpha * lam.  Returns

        (4/sqrt(pi)) alpha |I| lam^(1/2) + (8/sqrt(pi)) lam^(-1/2)
        + alpha |I| lam + 3.
    """
    if not interval_length > 0.0:
        raise ValueError(f"interval length must be positive, got {interval_length}")
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not alpha >= 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    rp = math.sqrt(math.pi)
    return (
        4.0 / rp * alpha * interval_length * math.sqrt(lam)
        + 8.0 / (rp * math.sqrt(lam))
        + alpha * interval_length * lam
        + 3.0
    )


def partial_sum_bound(a: float, b: float, t: float) -> float:
    """Explicit bound for |sum_{a < n <= b} n^(-1-it)|, any reals 0 < a < b."""
    if not (0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    rt = math.sqrt(t)
    lba = math.log(b / a)
    return (
        4.0 * _SQRT2 * (b - a) * rt / (math.pi * a * a)
        - 2.0 * _SQRT2 * rt * lba / (math.pi * a)
        + 8.0 * _SQRT2 * lba / rt
        + 8.0 * _SQRT2 / rt
        + t * lba / (2.0 * math.pi * a * a)
        + 3.0 / a
    )


def coeffs(t: float) -> ExpSumCoeffs:
    """Evaluate the coefficient bundle at t."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    rt = math.sqrt(t)
    return ExpSumCoeffs(
        t=t,
        e0=e0,
        e1=e1,
        e2=e2,
        E0=1.0 - e0 / rt,
        E1=e1 * rt + 13.0,
        E2=e2 * t,
        G0=e0 / rt,
        G2=(t * t + 5.0 * t + 4.0) / 32.0,
        Q0=EULER_GAMMA + e0 * _LN2 / rt + 1.0 / t,
    )


def h_E(t: float, y: float) -> float:
    """E0 log y + E1/y + E2/y^2, the x0-part of the assembled bound."""
    if not y >= 1.0:
        raise ValueError(f"y must be >= 1, got {y}")
    c = coeffs(t)
    return c.E0 * math.log(y) + c.E1 / y + c.E2 / (y * y)


def h_G(t: float, y: float) -> float:
    """G0 log y + G2/y^2, the x-part of the assembled bound."""
    if not y >= 1.0:
        raise ValueError(f"y must be >= 1, got {y}")
    c = coeffs(t)
    return c.G0 * math.log(y) + c.G2 / (y * y)


def _y_E_scaled(t: float) -> float:
    """y_E(t) / sqrt(t); finite for every t > e0^2 including huge t."""
    rt = math.sqrt(t)
    E0v = 1.0 - e0 / rt
    a1 = e1 + 13.0 / rt  # E1 / sqrt(t)
    return (a1 + math.sqrt(a1 * a1 + 8.0 * E0v * e2)) / (2.0 * E0v)


def y_E(t: float) -> float:
    """Minimiser (E1 + sqrt(E1^2 + 8 E0 E2)) / (2 E0) of h_E; needs t > e0^2.

    Computed with sqrt(t) factored out, which keeps the discriminant finite
    for t all the way to the double-precision range.
    """
    if not t > e0 * e0:
        raise ValueError(f"y_E requires t > e0^2 = {e0 * e0:.4f}, got {t}")
    return math.sqrt(t) * _y_E_scaled(t)


def _log_y_G(t: float) -> float:
    # log of sqrt(2 G2 / G0) = ((t^2+5t+4) sqrt(t) / (16 e0))^(1/2)
    lt = math.log(t)
    log_poly = 2.0 * lt + math.log1p(5.0 / t + 4.0 / (t * t))
    return 0.5 * (log_poly + 0.5 * lt - math.log(16.0 * e0))


def y_G(t: float) -> float:
    """Minimiser sqrt(2 G2 / G0) of h_G; grows like t^(5/4).

    Overflows to inf for t beyond about 1e246; the optimiser uses the
    logarithm internally and never hits that limit.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    lg = _log_y_G(t)
    return math.exp(lg) if lg < 709.0 else math.inf


def optimal_bound_params(t0: float) -> BoundTriple:
    """The smallest v (with its beta, u) such that |zeta(1+it)| <= v log t
    holds at t0 by the assembled bound.

    Sets beta t0^v = y_E(t0) and t0^u = y_G(t0) and picks v so that the
    assembled bound at t0 equals v log t0 exactly.  Requires a finite
    t0 >= 2000, below which y_E <= y_G is not guaranteed.  Extending the
    bound past t0 needs v <= u (not sufficient: BoundTriple), first true
    at t0 around 1.255e4; in between those two thresholds the computed
    triple would assert a bound it cannot deliver, so ValueError is raised.
    All powers of t0 are formed as exponentials of log differences, so
    t0 = 1e300 works in doubles.
    """
    if not (t0 >= 2000.0 and math.isfinite(t0)):
        raise ValueError(f"t0 must be finite and >= 2000, got {t0}")
    lt = math.log(t0)
    rt = math.sqrt(t0)
    E0v = 1.0 - e0 / rt
    a1 = e1 + 13.0 / rt
    Y = _y_E_scaled(t0)
    log_yE = 0.5 * lt + math.log(Y)
    hE = E0v * log_yE + a1 / Y + e2 / (Y * Y)
    log_yG = _log_y_G(t0)
    G0v = e0 / rt
    hG = G0v * (log_yG + 0.5)  # G2 / y_G^2 reduces to G0 / 2
    Q0v = EULER_GAMMA + e0 * _LN2 / rt + 1.0 / t0
    v = (hE + hG + Q0v) / lt
    beta = math.exp(log_yE - v * lt)
    u = log_yG / lt
    if v > u:
        raise ValueError(
            f"t0 = {t0:g} yields v = {v:.4f} > u = {u:.4f}: the triple is not "
            "admissible as a bound for all t >= t0 (v <= u first holds near "
            "t0 = 1.255e4)"
        )
    return BoundTriple(t0=t0, beta=beta, v=v, u=u)


def omega(t: float, beta: float, v: float, u: float) -> float:
    """The decaying part omega(t) of the bound defect v log t + A + omega(t).

    Together with A = log beta + gamma this measures how far the assembled
    bound at x0 = beta t^v, x = t^u sits above v log t.  Terms are combined
    with exact summation (math.fsum) so the value is deterministic.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    lt = math.log(t)
    lb = math.log(beta)
    terms = (
        e1 / beta * math.exp((0.5 - v) * lt),
        13.0 / beta * math.exp(-v * lt),
        e2 / (beta * beta) * math.exp((1.0 - 2.0 * v) * lt),
        math.exp(-lt),
        math.exp(2.0 * lt + math.log1p(5.0 / t + 4.0 / (t * t)) - math.log(32.0) - 2.0 * u * lt),
        e0 * math.exp(-0.5 * lt) * ((u - v) * lt - lb + _LN2),
    )
    return math.fsum(terms)


def omega_residual(params: BoundTriple) -> float:
    """A + omega(t0); zero (to rounding) when params came from the optimiser.

    Negative values mean the bound v log t is already slack at t0.
    """
    A = math.log(params.beta) + EULER_GAMMA
    return A + omega(params.t0, params.beta, params.v, params.u)


def asymptotic_constants() -> AsymptoticConstants:
    """Limits of the optimiser: v -> 1/2, u -> 5/4, beta -> beta_limit.

    lambda1 is the limit of y_E(t)/sqrt(t); the best constant achievable in
    a bound of the form (1/2) log t + const by this route is gamma + lambda2.
    """
    lam1 = (e1 + math.sqrt(e1 * e1 + 8.0 * e2)) / 2.0
    lam2 = math.log(lam1) + e1 / lam1 + e2 / (lam1 * lam1)
    return AsymptoticConstants(
        e0sq=e0 * e0,
        lambda1=lam1,
        lambda2=lam2,
        beta_limit=math.exp(-e1 / lam1 - e2 / (lam1 * lam1) - EULER_GAMMA),
        hC_min=EULER_GAMMA + lam2,
    )
