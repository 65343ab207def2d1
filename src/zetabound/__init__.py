"""Certified evaluation of zeta(1+it) and explicit bounds of its modulus.

The package has four layers:

* :mod:`zetabound.zeta_eval` -- certified evaluation of zeta(1+it): one
  kernel evaluates it at a grid of points through zeta's own
  Euler-Maclaurin form, a point evaluation is its one-point call, and an
  independent alternating-series oracle checks both;
* :mod:`zetabound.expsum` -- explicit exponential-sum bounds and the
  optimiser producing inequalities |zeta(1+it)| <= v log t for t >= t0;
* :mod:`zetabound.rs_bounds` -- the Riemann-Siegel-route constants behind
  the affine bound |zeta(1+it)| <= (1/2) log t + C;
* :mod:`zetabound.verifier` -- certified grid scans, planned as calls of
  that kernel, that check either kind of bound over an interval, locate the
  maximum of |zeta(1+it)|/log t, and find where the ratio crosses a given
  level.

A command-line front end lives in :mod:`zetabound.cli`.
"""

from . import errors, expsum, rs_bounds, verifier, zeta_eval
from .errors import *
from .expsum import *
from .rs_bounds import *
from .verifier import *
from .zeta_eval import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *expsum.__all__,
    *rs_bounds.__all__,
    *verifier.__all__,
    *zeta_eval.__all__,
    "__version__",
]
