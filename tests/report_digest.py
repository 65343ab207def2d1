"""A sha256 over the bytes of a fixed set of scan reports, to show a change keeps them.

Run as ``PYTHONPATH=src python tests/report_digest.py``; it prints one hex
digest.  The loop order is fixed:

    for workers in (1, 2):
        for (t_lo, t_hi, bound) in SCANS, in the order listed:
            for memo in ("cold", "warm"):
                scan_interval(ScanConfig(t_lo, t_hi), bound, budget=inf, workers)

A cold scan starts from an empty call memo (verifier._MEMO rebound to
{}); the warm scan follows it at once and reuses its leading calls.  Each
report adds to the one hash, in this order, the bytes of t, modulus,
err, ratio and margin (b"none" when the scan had no bound), then the
float64 bytes of (max_ratio, argmax_t, min_margin, argmin_t), a missing
value as nan.  The grids are the defaults of ScanConfig (h = 0.01,
r = 0.005).
"""

import hashlib
import math

import numpy as np

from zetabound import ScanConfig, scan_interval, verifier

AFFINE = (0.5, 0.6633)
SCANS = [
    (math.e, 2000.0, None),
    (math.e, 2000.0, AFFINE),
    (math.e, 1e4, AFFINE),
    (1e5, 1e5 + 100.0, AFFINE),
    (1e6, 1e6 + 50.0, AFFINE),
]


def _update(digest, report):
    for name in ("t", "modulus", "err", "ratio", "margin"):
        values = getattr(report, name)
        digest.update(b"none" if values is None else values.tobytes())
    summaries = (report.max_ratio, report.argmax_t, report.min_margin, report.argmin_t)
    digest.update(np.array([math.nan if v is None else v for v in summaries]).tobytes())


def report_digest():
    digest = hashlib.sha256()
    for workers in (1, 2):
        for t_lo, t_hi, bound in SCANS:
            verifier._MEMO = {}
            for _ in ("cold", "warm"):
                report = scan_interval(ScanConfig(t_lo=t_lo, t_hi=t_hi), bound,
                                       budget=math.inf, workers=workers)
                _update(digest, report)
    return digest.hexdigest()


if __name__ == "__main__":
    print(report_digest())
