"""Riemann-Siegel-route bound constants.

The pieces assembled here bound |zeta(1+it)| by (1/2) log t + C:

* :func:`chi_upper` -- an explicit upper bound for the functional-equation
  factor |chi(1+it)|, decaying like sqrt(2 pi / t);
* :func:`c0` / :func:`c1` -- the first two coefficient functions of the
  Riemann-Siegel expansion, evaluated from the closed form

      C0(p) = (exp(i pi (p^2/2 + 3/8)) - i sqrt(2) cos(pi p / 2))
              / (2 cos(pi p)),

  and C1(p) = C0'''(p)/(12 pi^2) + (1-2 sigma) C0'(p)/(4 i pi).  Both are
  computed through local Taylor expansions of the entire numerator and
  denominator, which gives the derivatives analytically and handles the
  removable 0/0 points at p = +-1/2 in one mechanism;
* :func:`ck_contour` -- the same coefficients from their contour-integral
  definition, kept as an independent quadrature oracle;
* :func:`b0`, :func:`b1`, :func:`c_sigma` -- maxima of |C0|, |C1| over
  [-1, 1] and the remainder constant, the latter by adaptive quadrature of
  H(sigma, y) with a certified tail bound;
* :func:`kappa2`, :func:`theta`, :func:`affine_C` -- the assembled affine
  bound |zeta(1+it)| <= (1/2) log t + C(t0) for t >= t0.

The affine chain plugs in the four-decimal constants b1(0) = 0.0173,
b1(1) = 0.0932, c(0) = 0.9704, c(1) = 1.0450 by default (see
DEFAULT_CONSTANTS); :func:`computed_constants` recomputes the full bundle
from scratch for cross-checking, and any bundle can be injected instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from scipy.integrate import quad

from ._golden import golden_max
from .errors import ConvergenceError
from .zeta_eval import EULER_GAMMA

__all__ = [
    "AFFINE_INTERCEPT",
    "GAMMA_MINUS_HALF_LOG_2PI",
    "RSConstants",
    "DEFAULT_CONSTANTS",
    "AffineBound",
    "chi_upper",
    "c0",
    "c1",
    "ck_contour",
    "b0",
    "b1",
    "c_sigma",
    "computed_constants",
    "kappa2",
    "theta",
    "affine_C",
]

_PI = math.pi
GAMMA_MINUS_HALF_LOG_2PI = EULER_GAMMA - 0.5 * math.log(2.0 * _PI)

# Intercept of the affine bound valid from t0 = 1e6 down to e; also the
# constant feeding the refined slopes v_tilde = 1/2 + 0.6633 / log t0.
AFFINE_INTERCEPT = 0.6633


@dataclass(frozen=True)
class RSConstants:
    """Bundle (b0, b1(0), b1(1), c(0), c(1)) of expansion-coefficient bounds."""

    b0: float
    b1_sigma0: float
    b1_sigma1: float
    c_sigma0: float
    c_sigma1: float


# Four-decimal default constants of the affine-bound chain;
# computed_constants() reproduces b0 exactly and the rest to the
# displayed precision.
DEFAULT_CONSTANTS = RSConstants(
    b0=0.5, b1_sigma0=0.0173, b1_sigma1=0.0932, c_sigma0=0.9704, c_sigma1=1.0450
)


@dataclass(frozen=True)
class AffineBound:
    """|zeta(1+it)| <= (1/2) log t + C for t >= t0; v_tilde is the slope of
    the derived linear bound v_tilde * log t, defined once t0 >= e."""

    t0: float
    C: float
    v_tilde: Optional[float]


# ---------------------------------------------------------------------------
# chi factor
# ---------------------------------------------------------------------------


def chi_upper(t: float) -> float:
    """Upper bound sqrt(2 pi/t) exp(pi/(32t) - 1/(24t^2) + 5/(24t^4))
    / (1 - e^(-pi t)) for |chi(1+it)|."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    t2 = t * t  # t2*t2 saturates to inf for huge t, avoiding pow overflow
    return (
        math.sqrt(2.0 * _PI / t)
        * math.exp(_PI / (32.0 * t) - 1.0 / (24.0 * t2) + 5.0 / (24.0 * t2 * t2))
        / (1.0 - math.exp(-_PI * t))
    )


# ---------------------------------------------------------------------------
# C0 and C1 via local Taylor expansions
# ---------------------------------------------------------------------------

_SERIES_ORDER = 14
# Switch to the expansion about +-1/2 inside this distance.  Closer in, a
# series about p itself divides by 2 cos(pi p) ~ 0, which amplifies rounding
# in its k-th coefficient by about |tan(pi p)|^k; at 0.1 the series about
# +-1/2 still matches the contour oracle to 5e-14 at the edge.
_SING_RADIUS = 0.1


def _series_exp_quadratic(rho: complex, eta: complex, n: int) -> list[complex]:
    """Taylor coefficients of exp(rho x + eta x^2) from F' = (rho + 2 eta x) F."""
    c = [0j] * n
    c[0] = 1.0 + 0j
    for k in range(n - 1):
        term = rho * c[k]
        if k >= 1:
            term += 2.0 * eta * c[k - 1]
        c[k + 1] = term / (k + 1)
    return c


def _series_cos(b: float, n: int) -> list[float]:
    c = [0.0] * n
    for k in range(0, n, 2):
        c[k] = (-1.0) ** (k // 2) * b**k / math.factorial(k)
    return c


def _series_sin(b: float, n: int) -> list[float]:
    c = [0.0] * n
    for k in range(1, n, 2):
        c[k] = (-1.0) ** ((k - 1) // 2) * b**k / math.factorial(k)
    return c


def _series_div(num: list[complex], den: list[complex], n: int) -> list[complex]:
    out = [0j] * n
    for k in range(n):
        acc = num[k]
        for j in range(k):
            acc -= out[j] * den[k - j]
        out[k] = acc / den[0]
    return out


def _c0_taylor(a: float) -> list[complex]:
    """Taylor coefficients of C0 about p = a.

    Numerator and denominator are expanded separately and divided as formal
    series.  At a = +-1/2 both have a simple zero (the constant terms are
    exactly zero in exact arithmetic), so the leading terms are dropped
    before dividing, which realises the removable singularity.
    """
    n = _SERIES_ORDER + 1
    w = cmath.exp(1j * _PI * (a * a / 2.0 + 0.375))
    num = [w * z for z in _series_exp_quadratic(1j * _PI * a, 0.5j * _PI, n)]
    ca, sa = math.cos(_PI * a / 2.0), math.sin(_PI * a / 2.0)
    cos_h, sin_h = _series_cos(_PI / 2.0, n), _series_sin(_PI / 2.0, n)
    for k in range(n):
        num[k] -= 1j * math.sqrt(2.0) * (ca * cos_h[k] - sa * sin_h[k])
    cA, sA = math.cos(_PI * a), math.sin(_PI * a)
    cos_f, sin_f = _series_cos(_PI, n), _series_sin(_PI, n)
    den: list[complex] = [2.0 * (cA * cos_f[k] - sA * sin_f[k]) + 0j for k in range(n)]
    if abs(abs(a) - 0.5) < 1e-12:
        num = num[1:]  # simple common zero; constants vanish identically
        den = den[1:]
        return _series_div(num, den, _SERIES_ORDER)
    return _series_div(num[:_SERIES_ORDER], den[:_SERIES_ORDER], _SERIES_ORDER)


def _check_p(p: float) -> None:
    if not -1.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [-1, 1], got {p}")


def _series_for(p: float) -> tuple[list[complex], float]:
    if abs(p - 0.5) < _SING_RADIUS:
        a = 0.5
    elif abs(p + 0.5) < _SING_RADIUS:
        a = -0.5
    else:
        a = p
    return _c0_taylor(a), p - a


def _c0_closed(p: float) -> complex:
    """The raw closed-form quotient; 0/0 at p = +-1/2, used for testing."""
    return (
        cmath.exp(1j * _PI * (p * p / 2.0 + 0.375))
        - 1j * math.sqrt(2.0) * math.cos(_PI * p / 2.0)
    ) / (2.0 * math.cos(_PI * p))


def c0(p: float) -> complex:
    """First Riemann-Siegel coefficient C0(p) on [-1, 1]; even in p.

    Entire despite the cos(pi p) denominator: the numerator vanishes with
    it at p = +-1/2, where the local series takes over.
    """
    _check_p(p)
    ser, x = _series_for(p)
    val = 0j
    for k in range(len(ser) - 1, -1, -1):
        val = val * x + ser[k]
    return val


def c1(p: float, sigma: float) -> complex:
    """Second coefficient C1(p) = C0'''(p)/(12 pi^2) + (1-2 sigma)/(4 i pi)
    C0'(p); odd in p, so C1(0) = 0."""
    _check_p(p)
    ser, x = _series_for(p)
    d1 = 0j
    for k in range(len(ser) - 1, 0, -1):
        d1 = d1 * x + k * ser[k]
    d3 = 0j
    for k in range(len(ser) - 1, 2, -1):
        d3 = d3 * x + k * (k - 1) * (k - 2) * ser[k]
    return d3 / (12.0 * _PI * _PI) + (1.0 - 2.0 * sigma) / (4j * _PI) * d1


# ---------------------------------------------------------------------------
# contour-integral oracle for C0 and C1
# ---------------------------------------------------------------------------

_CONTOUR_SPAN = 12.0  # Gaussian factor below 1e-50 beyond this arclength


def ck_contour(p: float, k: int, sigma: float = 0.0) -> complex:
    """C_k(p), k in {0, 1}, from the rotated-line integral definition.

    The defining path runs through i*p in direction e^(-i pi/4); here it is
    shifted to pass through the origin (legal because no pole of
    1/cosh(pi v/2) lies between the two parallel lines for |p| <= 1, and the
    shifted integral is entire in p), which keeps the integrand regular even
    at p = +-1, where the original path grazes the poles at +-i.  Used as
    the independent check of :func:`c0` and :func:`c1`.
    """
    _check_p(p)
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    rot = cmath.exp(-1j * _PI / 4.0)
    pref = (
        cmath.exp(-1j * _PI / 8.0)
        / 4.0
        / (4.0 * math.sqrt(_PI)) ** k
        * cmath.exp(1j * _PI * p * p / 2.0)
    )
    sq = math.sqrt(_PI)

    def integrand(s: float) -> complex:
        v = s * rot
        g = cmath.exp(-_PI * p * s * rot - _PI * s * s / 2.0)
        if k == 0:
            poly = 1.0 + 0j
        else:
            z = sq * (v - 1j * p)
            poly = -z * z * z / 3.0 - 2j * sigma * z
        return g / cmath.cosh(_PI * v / 2.0) * poly * rot

    re, re_err = quad(
        lambda s: integrand(s).real, -_CONTOUR_SPAN, _CONTOUR_SPAN,
        epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    im, im_err = quad(
        lambda s: integrand(s).imag, -_CONTOUR_SPAN, _CONTOUR_SPAN,
        epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    if max(re_err, im_err) > 1e-8:
        raise ConvergenceError(
            f"contour quadrature error {max(re_err, im_err):.2e} exceeds 1e-8 at p={p}, k={k}"
        )
    return pref * (re + 1j * im)


# ---------------------------------------------------------------------------
# maxima and the remainder constant
# ---------------------------------------------------------------------------


def _max_abs_on_unit(f) -> float:
    # |C0|, |C1| are even/odd in p, so [0, 1] suffices.  Uniform grid of 1e4
    # points, then golden-section refinement of the bracketing triple.
    m = 10_000
    best_k = 0
    best = -1.0
    for k in range(m + 1):
        val = f(k / m)
        if val > best:
            best, best_k = val, k
    a = max(best_k - 1, 0) / m
    b = min(best_k + 1, m) / m
    _, fx = golden_max(f, a, b, 1e-10)
    return max(best, fx)


@lru_cache(maxsize=None)
def b0() -> float:
    """max |C0(p)| over [-1, 1]; equals 1/2, attained at p = 1."""
    return _max_abs_on_unit(lambda p: abs(c0(p)))


@lru_cache(maxsize=None)
def b1(sigma: int) -> float:
    """max |C1(p)| over [-1, 1] for sigma in {0, 1}; attained at p = 1."""
    if sigma not in (0, 1):
        raise ValueError(f"sigma must be 0 or 1, got {sigma}")
    return _max_abs_on_unit(lambda p: abs(c1(p, sigma)))


_ROT45 = cmath.exp(1j * _PI / 4.0)


def _h_integrand(sigma: int, y: float) -> float:
    """H(sigma, y) = |1-u|^(-sigma) |u|^(-2) / (1 + V(u)) on u = 1/2 + y e^(i pi/4).

    The principal-branch log(1-u) never meets its cut: Im(1-u) = -y/sqrt(2)
    vanishes only at y = 0, where 1-u = 1/2 > 0.  Positivity of 1 + V is a
    precondition of the bound and is asserted at every node.
    """
    u = 0.5 + y * _ROT45
    f = -0.5 - 1.0 / u - cmath.log(1.0 - u) / (u * u)
    vp1 = 1.0 + f.real
    if vp1 <= 0.0:
        raise ConvergenceError(f"integrand positivity 1 + V > 0 violated at y = {y}")
    return abs(1.0 - u) ** (-sigma) / ((u.real * u.real + u.imag * u.imag) * vp1)


@lru_cache(maxsize=None)
def c_sigma(sigma: int, y_cut: float = 1.0e4) -> float:
    """Remainder constant c(sigma) = (1/pi^2) * integral of H(sigma, y) over R.

    Integrates |y| <= y_cut adaptively in three panels and adds a certified
    bound for the truncated tails: H(sigma, y) <= M / y^2 beyond the cut,
    with M measured on the boundary and doubled.  The returned value is
    therefore an upper bound, sitting within about 1e-4 of the exact
    integral at the default cut.
    """
    if sigma not in (0, 1):
        raise ValueError(f"sigma must be 0 or 1, got {sigma}")
    inner = 50.0
    total = 0.0
    total_err = 0.0
    for a, b in ((-y_cut, -inner), (-inner, inner), (inner, y_cut)):
        val, est = quad(lambda y: _h_integrand(sigma, y), a, b, epsabs=1e-10,
                        epsrel=1e-10, limit=300)
        total += val
        total_err += est
    if total_err > 1e-8:
        raise ConvergenceError(f"H quadrature error {total_err:.2e} exceeds 1e-8")
    m_boundary = max(
        _h_integrand(sigma, y_cut) * y_cut * y_cut,
        _h_integrand(sigma, -y_cut) * y_cut * y_cut,
    )
    tail = 2.0 * (2.0 * m_boundary) / y_cut
    return (total + tail) / (_PI * _PI)


def computed_constants() -> RSConstants:
    """Recompute the full constant bundle (maximisation plus quadrature)."""
    return RSConstants(
        b0=b0(),
        b1_sigma0=b1(0),
        b1_sigma1=b1(1),
        c_sigma0=c_sigma(0),
        c_sigma1=c_sigma(1),
    )


# ---------------------------------------------------------------------------
# assembled affine bound
# ---------------------------------------------------------------------------


def kappa2(t: float, constants: RSConstants | None = None) -> float:
    """Remainder kappa2(t) = sqrt(2 pi/t)(1/2 + b1(1) sqrt(2 pi/t) + c(1)/t)
    + chi_upper(t)(1/2 + b1(0) sqrt(2 pi/t) + c(0)/t); O(t^(-1/2))."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    k = DEFAULT_CONSTANTS if constants is None else constants
    s = math.sqrt(2.0 * _PI / t)
    return s * (0.5 + k.b1_sigma1 * s + k.c_sigma1 / t) + chi_upper(t) * (
        0.5 + k.b1_sigma0 * s + k.c_sigma0 / t
    )


def theta(t: float, constants: RSConstants | None = None) -> float:
    """The decreasing excess theta(t) over (1/2) log t + gamma - (1/2) log 2 pi;
    tends to 1 as t grows."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    t2 = t * t
    return (
        math.sqrt(2.0 * _PI / t)
        + math.exp(_PI / (32.0 * t) - 1.0 / (24.0 * t2) + 5.0 / (24.0 * t2 * t2))
        / (1.0 - math.exp(-_PI * t))
        + kappa2(t, constants)
    )


def affine_C(t0: float, constants: RSConstants | None = None) -> AffineBound:
    """Intercept C = gamma - (1/2) log(2 pi) + theta(t0) of the affine bound
    valid for t >= t0, plus the derived slope v_tilde = 1/2 + 0.6633/log t0.

    theta is decreasing, so C(t0) is the best intercept this route yields
    from t0 on; its floor as t0 grows is gamma - (1/2) log(2 pi) + 1 =
    0.6583 (4 dp).  v_tilde needs log t0 >= 1 and is None below t0 = e.
    """
    if not t0 >= 1.0:
        raise ValueError(f"t0 must be >= 1, got {t0}")
    C = GAMMA_MINUS_HALF_LOG_2PI + theta(t0, constants)
    v_tilde = 0.5 + AFFINE_INTERCEPT / math.log(t0) if t0 >= math.e else None
    return AffineBound(t0=t0, C=C, v_tilde=v_tilde)
