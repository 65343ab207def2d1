"""The names and caches the benchmark under bench/ relies on.

bench/ wraps library functions by module attribute and checks that the
lru_cached constant routines (b0, b1, c_sigma) start cold, so renaming a
wrapped function or dropping one of those caches fails here rather than
only in the benchmark.  The kernel's memos of transform tables
(zeta_eval._pruned_layout) and of phase-expansion coefficients
(zeta_eval._phase_coeffs) must start empty too: a table made at import
would move kernel work into the benchmark's setup_s.  So must the
scans' memo of the last scan's leading kernel calls (verifier._MEMO), or
a pass would not pay for its own first calls.
The refiners must reach the point evaluator through the wrapped
verifier.eval_zeta_certified, or the benchmark would count no refinement;
the contour oracle and c_sigma must run under their wrapped names, or the
witness and paper workloads would time no quadrature.  The tracer counts
terms from the N that _eval_block(t_pts, N, plan) and
eval_zeta_certified(t, N) take as their second positional argument:
_block_size reads a kernel call's args[0] and args[1], and _term_count
args[1].  So both keep N second, though it changes no value, until bench/
counts the terms a call sums; the plan a caller hands the kernel rides
third.  A traced point evaluation and a scan's kernel calls must count
terms, and, for scans that share no call, the traced kernel calls'
points must add up to the traced scans' grid points, which shows the
tracer still parses the three-argument call.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
from zetabound import rs_bounds, verifier, zeta_eval
import tracing
import workloads

assert workloads.cold_caches()
assert zeta_eval._pruned_layout.cache_info().currsize == 0
assert zeta_eval._phase_coeffs.cache_info().currsize == 0
assert len(verifier._MEMO) == 0
tracer = tracing.Tracer("t")
tracer.install()
grid_points = []
traced_scan = verifier.scan_interval


def scan(*args, **kwargs):
    report = traced_scan(*args, **kwargs)
    grid_points.append(len(report.t))
    return report


verifier.scan_interval = scan
rs_bounds.computed_constants()
rs_bounds.ck_contour(0.3, 1, 1)
verifier.max_ratio(17.0, 18.5, 0.01, 1e-4)
verifier.crossing_point(0.548, 600.0, 700.0)
zeta_eval.eval_zeta_certified(17.7477, 10)
sums = tracer.layer_sums()
assert sums["refine_evals"] > 0
assert sums["kernel_calls"] > 0
assert sums["kernel_terms"] > 0
assert len(grid_points) == 2 and sums["kernel_points"] == sum(grid_points)
assert sums["eval_terms"] > 0
assert sums["contour_calls"] > 0
assert sums["c_sigma_s"] > 0
"""


def test_tracer_installs_and_constants_run_from_cold_caches():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
