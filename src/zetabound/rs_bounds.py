"""Riemann-Siegel-route bound constants.

The pieces assembled here bound |zeta(1+it)| by (1/2) log t + C:

* :func:`chi_upper` -- an explicit upper bound for the functional-equation
  factor |chi(1+it)|, decaying like sqrt(2 pi / t);
* :func:`c0` / :func:`c1` -- the first two coefficient functions of the
  Riemann-Siegel expansion, evaluated from the closed form

      C0(p) = (exp(i pi (p^2/2 + 3/8)) - i sqrt(2) cos(pi p / 2))
              / (2 cos(pi p)),

  and C1(p) = C0'''(p)/(12 pi^2) + (1-2 sigma) C0'(p)/(4 i pi).  Both come
  from one table of Taylor series of C0 about the fixed centres j/6,
  j = -6..6.  C0 is entire (its 0/0 points p = +-1/2 are removable), so
  each series is the Cauchy integral of the closed form over the circle
  of radius 1/4 about its centre, taken by one FFT of 32 samples; no
  circle meets +-1/2.  Both take a float or an array and sum each element
  about its nearest centre;
* :func:`ck_contour` -- the same coefficients from their contour-integral
  definition by the trapezoidal rule, kept as an independent quadrature
  oracle;
* :func:`b0`, :func:`b1`, :func:`c_sigma` -- maxima of |C0|, |C1| over
  the grid k/1e4 of [-1, 1] (estimates of the true maxima, attained at the
  endpoint) and the remainder constant, the latter by composite
  Gauss-Legendre quadrature of H(sigma, y) plus a tail bound;
* :func:`kappa2`, :func:`theta`, :func:`affine_C` -- the assembled affine
  bound |zeta(1+it)| <= (1/2) log t + C(t0) for t >= t0.

Both quadratures are numpy rules that check themselves against the same
rule at half the resolution: the step-doubling gap of the trapezoidal rule
and the panel-doubling gap of Gauss-Legendre.  These gaps are error
estimates, not bounds.

The affine chain plugs in the four-decimal constants b1(0) = 0.0173,
b1(1) = 0.0932, c(0) = 0.9704, c(1) = 1.0450 by default (see
DEFAULT_CONSTANTS); :func:`computed_constants` recomputes the full bundle
from scratch for cross-checking, and any bundle can be injected instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

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


def _chi_factor(t: float) -> float:
    """exp(pi/(32t) - 1/(24t^2) + 5/(24t^4)) / (1 - e^(-pi t)), the factor
    by which chi_upper exceeds sqrt(2 pi/t); inf, still a bound, below t ~ 0.13."""
    t2 = t * t  # t2*t2 saturates to inf for huge t, avoiding pow overflow
    try:
        return math.exp(_PI / (32.0 * t) - 1.0 / (24.0 * t2) + 5.0 / (24.0 * t2 * t2)) / (
            1.0 - math.exp(-_PI * t)
        )
    except (OverflowError, ZeroDivisionError):  # exp overflows, or t^4 underflows to 0
        return math.inf


def chi_upper(t: float) -> float:
    """Upper bound sqrt(2 pi/t) exp(pi/(32t) - 1/(24t^2) + 5/(24t^4))
    / (1 - e^(-pi t)) for |chi(1+it)|; inf, still a bound, below t ~ 0.13."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return math.sqrt(2.0 * _PI / t) * _chi_factor(t)


# ---------------------------------------------------------------------------
# C0 and C1 from Taylor tables about fixed centres
# ---------------------------------------------------------------------------

_SERIES_ORDER = 14
# Centres j/6, j = -6..6, leave |p - centre| <= 1/12 and include 0 and the
# endpoints +-1 exactly.  The circle radius is three times that reach, so
# the rounding of the k-th sampled coefficient, about eps max|C0| /
# _CIRCLE_RADIUS^k, is damped by 3^-k when summed and stays summable; no
# circle passes through the removable points +-1/2.
_CENTRES_PER_UNIT = 6
_CIRCLE_RADIUS = 0.25
_CIRCLE_POINTS = 32


def _check_p(p: float | np.ndarray) -> None:
    if not np.all(np.abs(p) <= 1.0):
        raise ValueError(f"p must lie in [-1, 1], got {p}")


def _c0_closed(p: complex | np.ndarray) -> complex | np.ndarray:
    """The raw closed-form quotient at real or complex p, elementwise on
    arrays; 0/0 at p = +-1/2."""
    return (
        np.exp(1j * _PI * (p * p / 2.0 + 0.375)) - 1j * math.sqrt(2.0) * np.cos(_PI * p / 2.0)
    ) / (2.0 * np.cos(_PI * p))


@lru_cache(maxsize=None)
def _taylor_tables() -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The centres j/6 and, keyed by derivative order 0, 1 and 3, the Taylor
    coefficients of C0 and its derivatives, one row per centre.

    Each row is the Cauchy integral of the closed form over the circle of
    radius _CIRCLE_RADIUS about its centre, sampled at _CIRCLE_POINTS
    equispaced points and summed by one FFT.  The points come in +-z pairs,
    so about the centre 0, where C0(-z) == C0(z) bit for bit, the odd
    coefficients are exactly zero.
    """
    n = _CIRCLE_POINTS
    half = _CIRCLE_RADIUS * np.exp(2j * _PI * np.arange(n // 2) / n)
    z = np.concatenate([half, -half])
    centres = np.arange(-_CENTRES_PER_UNIT, _CENTRES_PER_UNIT + 1) / _CENTRES_PER_UNIT
    k = np.arange(_SERIES_ORDER)
    c = np.fft.fft(_c0_closed(centres[:, None] + z), axis=1)[:, :_SERIES_ORDER]
    c /= n * _CIRCLE_RADIUS**k
    return centres, {0: c, 1: (k * c)[:, 1:], 3: (k * (k - 1) * (k - 2) * c)[:, 3:]}


def _c0_derivatives(p: float | np.ndarray, *orders: int) -> list[np.ndarray]:
    """The derivatives of C0 of the given orders at each element of p, as
    flat arrays: Horner sums of the series about its nearest centre."""
    _check_p(p)
    p = np.atleast_1d(np.asarray(p, dtype=np.float64)).ravel()
    centres, tables = _taylor_tables()
    idx = np.rint(p * _CENTRES_PER_UNIT).astype(np.intp) + _CENTRES_PER_UNIT
    x = p - centres[idx]
    return [reduce(lambda acc, coeff: acc * x + coeff, tables[m][idx, ::-1].T) for m in orders]


def c0(p: float | np.ndarray) -> complex | np.ndarray:
    """First Riemann-Siegel coefficient C0(p) on [-1, 1]; even in p.

    Entire despite the cos(pi p) denominator: the numerator vanishes with
    it at p = +-1/2, where no table circle passes.  A float p gives a complex,
    an array p a complex array of its shape.
    """
    (val,) = _c0_derivatives(p, 0)
    return complex(val[0]) if np.ndim(p) == 0 else val.reshape(np.shape(p))


def c1(p: float | np.ndarray, sigma: float) -> complex | np.ndarray:
    """Second coefficient C1(p) = C0'''(p)/(12 pi^2) + (1-2 sigma)/(4 i pi)
    C0'(p); odd in p, so C1(0) = 0.  Takes a float or an array like c0."""
    d1, d3 = _c0_derivatives(p, 1, 3)
    # parts divided on their own, like Python's complex / float (numpy's rounds differently)
    scale = 12.0 * _PI * _PI
    val = d3.real / scale + 1j * (d3.imag / scale) + (1.0 - 2.0 * sigma) / (4j * _PI) * d1
    return complex(val[0]) if np.ndim(p) == 0 else val.reshape(np.shape(p))


# ---------------------------------------------------------------------------
# contour-integral oracle for C0 and C1
# ---------------------------------------------------------------------------

_CONTOUR_SPAN = 12.0  # Gaussian factor below 1e-50 beyond this arclength
# Trapezoidal step.  In s the integrand is analytic in the strip
# |Im s| < a = 1/sqrt(2): the Gaussian factors are entire, and the poles of
# 1/cosh(pi v/2) at v = s e^(-i pi/4) = +-i(2j+1) lie at s = +-(2j+1)
# e^(3i pi/4), the nearest at distance 1/sqrt(2) from the real line.  The
# rule's error then falls like e^(-2 pi a/h) (Trefethen and Weideman, SIAM
# Review 56 (2014), Thm 5.1): e^(-71) at h = 1/16 as a -> 1/sqrt(2), far
# below rounding, while the step-2h sum on the even nodes is off by about
# e^(-35), which is what the doubling gap measures.
_CONTOUR_STEP = 1.0 / 16.0


def ck_contour(p: float, k: int, sigma: float = 0.0) -> complex:
    """C_k(p), k in {0, 1}, from the rotated-line integral definition.

    The defining path runs through i*p in direction e^(-i pi/4); here it is
    shifted to pass through the origin (legal because no pole of
    1/cosh(pi v/2) lies between the two parallel lines for |p| <= 1, and the
    shifted integral is entire in p), which keeps the integrand regular even
    at p = +-1, where the original path grazes the poles at +-i.  Used as
    the independent check of :func:`c0` and :func:`c1`.

    The integral over the arclength s in [-_CONTOUR_SPAN, _CONTOUR_SPAN] is
    taken by the trapezoidal rule at step 1/16, in one array call.  Its gap
    to the step-2h sum over the even nodes is an estimate of the error, not
    a bound; ConvergenceError is raised when it exceeds 1e-8.
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
    n = round(_CONTOUR_SPAN / _CONTOUR_STEP)
    s = np.arange(-n, n + 1) * _CONTOUR_STEP
    v = s * rot
    f = np.exp(-_PI * p * v - _PI * s * s / 2.0) / np.cosh(_PI * v / 2.0)
    if k == 1:
        z = math.sqrt(_PI) * (v - 1j * p)
        f *= -z * z * z / 3.0 - 2j * sigma * z
    fine = _CONTOUR_STEP * f.sum()
    gap = abs(fine - 2.0 * _CONTOUR_STEP * f[::2].sum())
    if gap > 1e-8:
        raise ConvergenceError(
            f"contour quadrature step-doubling gap {gap:.2e} exceeds 1e-8 at p={p}, k={k}"
        )
    return pref * fine * rot


# ---------------------------------------------------------------------------
# maxima and the remainder constant
# ---------------------------------------------------------------------------


def _max_abs_on_unit(f) -> float:
    # |C0|, |C1| are even/odd in p, so [0, 1] suffices: the largest |f| on
    # the uniform grid of 1e4 steps, in one array call
    return float(np.max(np.abs(f(np.arange(10_001) / 10_000))))


@lru_cache(maxsize=None)
def b0() -> float:
    """max |C0(p)| over the grid k/1e4 of [-1, 1]; 1/2, at p = 1."""
    return _max_abs_on_unit(c0)


@lru_cache(maxsize=None)
def b1(sigma: int) -> float:
    """max |C1(p)| over the grid k/1e4 of [-1, 1], sigma in {0, 1}; at p = 1."""
    if sigma not in (0, 1):
        raise ValueError(f"sigma must be 0 or 1, got {sigma}")
    return _max_abs_on_unit(lambda p: c1(p, sigma))


_ROT45 = cmath.exp(1j * _PI / 4.0)
_Y_CUT = 1.0e4  # c_sigma integrates |y| <= _Y_CUT and bounds the tails
# c_sigma's rule: Gauss-Legendre with _GL_NODES nodes on each of
# 2 * _GL_PANELS equal panels in x = asinh(y), checked against _GL_PANELS
# panels.  H is real-analytic in y and H(y) cosh(x) decays like e^(-|x|),
# so the sum converges geometrically in the node count: at this size both
# sums sit within rounding (under 1e-14) of each other.
_GL_NODES = 20
_GL_PANELS = 32


def _h_integrand(sigma: int, y: float | np.ndarray) -> float | np.ndarray:
    """H(sigma, y) = |1-u|^(-sigma) |u|^(-2) / (1 + V(u)) on u = 1/2 + y e^(i pi/4).

    The principal-branch log(1-u) never meets its cut: Im(1-u) = -y/sqrt(2)
    vanishes only at y = 0, where 1-u = 1/2 > 0.  Positivity of 1 + V is a
    precondition of the bound and is asserted at every node.  Takes a float
    or an array; the quotients 1/u and log(1-u)/u^2 are taken in real
    arithmetic over |u|^2, so an array call equals the float calls element
    for element.
    """
    y = np.asarray(y, dtype=np.float64)
    u = 0.5 + y * _ROT45
    ur, ui = u.real, u.imag
    m = ur * ur + ui * ui
    lg = np.log(1.0 - u)
    # 1 + V = 1/2 - Re(1/u) - Re(log(1-u) conj(u)^2) / |u|^4
    vp1 = 0.5 - ur / m - (lg.real * (ur * ur - ui * ui) + 2.0 * lg.imag * ur * ui) / (m * m)
    bad = ~(vp1 > 0.0)
    if bad.any():
        raise ConvergenceError(
            f"integrand positivity 1 + V > 0 violated at y = {float(y[bad][0])}"
        )
    h = 1.0 / (np.abs(1.0 - u) ** sigma * m * vp1)
    return float(h) if h.ndim == 0 else h


def _h_body(sigma: int, panels: int) -> float:
    """Integral of H(sigma, y) over |y| <= _Y_CUT: Gauss-Legendre on equal
    panels in x = asinh(y), where dy = cosh(x) dx."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    half = math.asinh(_Y_CUT) / panels
    mids = half * (2.0 * np.arange(panels) + 1.0 - panels)
    x = mids[:, None] + half * nodes
    return half * float(np.sum((_h_integrand(sigma, np.sinh(x)) * np.cosh(x)) @ weights))


@lru_cache(maxsize=None)
def c_sigma(sigma: int) -> float:
    """Remainder constant c(sigma) = (1/pi^2) * integral of H(sigma, y) over R.

    Integrates |y| <= _Y_CUT by composite Gauss-Legendre in x = asinh(y),
    20 nodes on each of 64 panels, and adds a bound for the truncated
    tails: H(sigma, y) <= M / y^2 beyond the cut, with M measured on the
    boundary and doubled.  The gap to the same rule on 32 panels is an
    estimate of the body's error, not a bound; ConvergenceError is raised
    when it exceeds 1e-8.  Up to that estimate the returned value is an
    upper bound, sitting within about 1e-4 of the exact integral at this
    cut.
    """
    if sigma not in (0, 1):
        raise ValueError(f"sigma must be 0 or 1, got {sigma}")
    body = _h_body(sigma, 2 * _GL_PANELS)
    gap = abs(body - _h_body(sigma, _GL_PANELS))
    if gap > 1e-8:
        raise ConvergenceError(f"H quadrature panel-doubling gap {gap:.2e} exceeds 1e-8")
    edges = np.array([-_Y_CUT, _Y_CUT])
    m_boundary = float(np.max(_h_integrand(sigma, edges))) * _Y_CUT * _Y_CUT
    tail = 2.0 * (2.0 * m_boundary) / _Y_CUT
    return (body + tail) / (_PI * _PI)


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
    + chi_upper(t)(1/2 + b1(0) sqrt(2 pi/t) + c(0)/t); O(t^(-1/2)); inf below t ~ 0.13."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    k = DEFAULT_CONSTANTS if constants is None else constants
    s = math.sqrt(2.0 * _PI / t)
    return s * (0.5 + k.b1_sigma1 * s + k.c_sigma1 / t) + chi_upper(t) * (
        0.5 + k.b1_sigma0 * s + k.c_sigma0 / t
    )


def theta(t: float, constants: RSConstants | None = None) -> float:
    """The decreasing excess theta(t) over (1/2) log t + gamma - (1/2) log 2 pi;
    tends to 1 as t grows, and is inf, as chi_upper is, for t below about 0.13."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return math.sqrt(2.0 * _PI / t) + _chi_factor(t) + kappa2(t, constants)


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
