"""Layered benchmark of zetabound.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the package is imported from
./src, nothing is installed.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, each the median over the timed passes of
the run, with times scaled to a reference machine speed (see PROBE_CODE);
with --trace 1 they are the per-layer ones of one traced pass.
Per-run records (environment, every pass, spans) go to ./.bench_out/.

Workloads (bench/README.md says why each exists):
  paper      every headline claim of the paper, from cold caches
  scan-high  affine-bound checks at t_lo in [1e5, 2e5), N = 2.5e5..5e5
  cli-scan   `zetabound scan` over [2.72, 2000] as JSON and as CSV
  witness    evaluator-vs-oracle and closed-form-vs-contour cross-checks

Every timed pass runs in a fresh interpreter, one closed-loop caller with
workers=1, after one untimed warm-up interpreter has compiled the bytecode.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("paper", "scan-high", "cli-scan", "witness")
SETUP_SAMPLES = 4      # import-only interpreters per run; setup_s is their median

# Machine-speed probe: a fresh interpreter importing zetabound's dependencies
# but not zetabound.  On the shared VM this benchmark was tuned on, machine
# speed drifts by 20-30% between runs minutes apart, and the probe tracks
# that drift (the ratio of pass time to import time stayed within 3% across
# sets of runs whose raw medians differed by up to 31%).  Timed metrics are
# reported at the speed where the probe's median reads PROBE_REF_S.
PROBE_CODE = "import time, numpy, scipy.integrate; print(time.perf_counter())"
PROBE_REF_S = 0.70
RUN_LIMIT_S = 150.0    # start no pass that would end the run after this
LAUNCH_LIMIT_S = 175.0

# scan-high: two 100-wide windows at t_lo = 1e5 + 1e5 u and 1e5 + 1e5 (1 - u).
# N grows linearly in t, so the pair's nominal work (sum of N over the grid)
# and its point count are the same for every seed, while each seed still
# moves both windows.  Blocks of 50 give each check two equal blocks (plus
# the end point's block), so the workers=2 rerun has work to share.
SCAN_HIGH_WIDTH = 100.0
SCAN_HIGH_BLOCK = 50.0

# witness: t log-uniform in [e, 1e4] and p uniform in [-1, 1], drawn one per
# stratum; each t stratum also takes the mirror draw, so the summed N, and
# with it the pass time, barely depends on the seed.  No draw is filtered.
WITNESS_T_STRATA = 32
WITNESS_P_STRATA = 32

CLI_R = 0.005
CLI_SCAN = ["scan", "--lo", "2.72", "--hi", "2000", "--bound", "affine:0.5,0.6633"]
CLI_REFERENCE = {"lo": 2.72, "hi": 2000.0, "h": 0.01, "r": CLI_R, "bound": [0.5, 0.6633]}
CLI_LAUNCH = "from zetabound.cli import run; run()"  # what the console script runs

MEASUREMENT_NOTE = (
    "process-level measurement only: wall clocks and getrusage of each child "
    "process; no hardware counters, no cache dropping, no CPU pinning"
)

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("points_per_s", "points/s"),
    ("gterm_per_s", "Gterm/s"), ("peak_rss_mb", "MB"), ("worst_margin", "1"),
    ("max_err_over_r", "1"),
)

PER_LAYER_UNITS = {
    "verifier.kernel.calls": "count", "verifier.kernel.points": "count",
    "verifier.kernel.nominal_terms": "count", "verifier.kernel.busy_s": "s",
    "verifier.kernel.gterm_per_s": "Gterm/s", "verifier.kernel.share": "1",
    "verifier.scan.calls": "count", "verifier.scan.blocks": "count",
    "verifier.scan.self_s": "s", "verifier.scan.w2_speedup": "1",
    "verifier.scan.w2_identical": "1",
    "verifier.refine.busy_s": "s", "verifier.refine.coarse_scan_s": "s",
    "verifier.refine.accurate_evals": "count", "verifier.refine.accurate_terms": "count",
    "zeta_eval.eval.calls": "count", "zeta_eval.eval.terms": "count",
    "zeta_eval.eval.busy_s": "s", "zeta_eval.eval.mterm_per_s": "Mterm/s",
    "zeta_eval.oracle.calls": "count", "zeta_eval.oracle.busy_s": "s",
    "zeta_eval.oracle.refusals": "count",
    "rs_bounds.b0_s": "s", "rs_bounds.b1_s": "s", "rs_bounds.c_sigma_s": "s",
    "rs_bounds.c0_calls": "count", "rs_bounds.c1_calls": "count",
    "rs_bounds.contour_calls": "count", "rs_bounds.contour_s": "s",
    "expsum.calls": "count", "expsum.busy_s": "s",
    "cli.compute_s": "s", "cli.render_s": "s", "cli.write_s": "s",
    "cli.output_bytes": "bytes", "cli.render_share": "1",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict[str, Any]:
    """The numbers a workload feeds the library; the same seed gives the same."""
    rng = random.Random(seed)
    if workload == "scan-high":
        u = rng.random()
        return {"t_lo": [1e5 + 1e5 * u, 1e5 + 1e5 * (1.0 - u)],
                "width": SCAN_HIGH_WIDTH, "block": SCAN_HIGH_BLOCK}
    if workload == "witness":
        lo, hi = 1.0, math.log(1e4)
        step = (hi - lo) / WITNESS_T_STRATA
        ts = []
        for k in range(WITNESS_T_STRATA):
            u = rng.random()
            ts += [math.exp(lo + (k + u) * step), math.exp(lo + (k + 1.0 - u) * step)]
        ps = [-1.0 + (k + rng.random()) * 2.0 / WITNESS_P_STRATA
              for k in range(WITNESS_P_STRATA)]
        return {"t": ts, "p": ps}
    return {}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Child:
    """Outcome of one child interpreter; started is its perf_counter spawn time."""

    started: float
    wall: float
    status: int
    peak_rss_mb: float
    stdout: str
    stderr: str

    def result(self) -> dict[str, Any]:
        lines = self.stdout.strip().splitlines()
        if self.status != 0 or not lines:
            raise BenchError(f"child exited with {self.status}:\n{self.stderr[-2000:]}")
        return json.loads(lines[-1])


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def launch(args: list[str], deadline: float) -> Child:
    """Run one child to completion; its peak RSS comes from wait4."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"child-{os.getpid()}.out"
    err_path = OUT / f"child-{os.getpid()}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=_child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(1.0, deadline - started), proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    child = Child(started, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                  out_path.read_text(), err_path.read_text())
    out_path.unlink()
    err_path.unlink()
    return child


def worker(mode: str, spec: dict[str, Any], deadline: float) -> Child:
    return launch([sys.executable, str(WORKER), mode, json.dumps(spec)], deadline)


def import_probe(deadline: float) -> float:
    """Seconds from spawning an interpreter to its import of numpy and scipy."""
    child = launch([sys.executable, "-c", PROBE_CODE], deadline)
    if child.status != 0:
        raise BenchError(f"speed probe exited with {child.status}:\n{child.stderr[-2000:]}")
    return float(child.stdout.split()[-1]) - child.started


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def cli_pass(ref: dict[str, Any], deadline: float, traced: bool, tag: str) -> dict[str, Any]:
    """Both CLI subprocesses of one cli-scan pass, and their gate."""
    res: dict[str, Any] = {"wall_s": 0.0, "peak_rss_mb": 0.0, "points": 0,
                           "nominal_terms": 0.0, "attempted": 0, "failed": 0,
                           "failures": [], "output_bytes": 0, "layers": []}
    margins, errs = [], []
    for fmt in ("json", "csv"):
        path = OUT / f"cli-{os.getpid()}.{fmt}"
        argv = CLI_SCAN + ["--format", fmt, "--out", str(path)]
        if traced:
            spec = {"argv": argv, "pass_id": f"{tag}-{fmt}",
                    "spans_path": str(OUT / f"spans-{tag}-{fmt}.json")}
            child = worker("cli", spec, deadline)
            reply = child.result()
            status = reply["status"]
            res["layers"].append(reply["layers"])
        else:
            child = launch([sys.executable, "-c", CLI_LAUNCH] + argv, deadline)
            status = child.status
        res["wall_s"] += child.wall
        res["peak_rss_mb"] = max(res["peak_rss_mb"], child.peak_rss_mb)
        try:
            rows_margin, rows_err = _read_rows(path, fmt) if status == 0 else ([], [])
        except (OSError, ValueError, KeyError, IndexError):  # counted by the row gate
            rows_margin, rows_err = [], []
        if path.exists():
            res["output_bytes"] += path.stat().st_size
            path.unlink()
        got_min = min(rows_margin) if rows_margin else math.nan
        for ok, what in (
            (status == 0, f"{fmt}: exit status {status}: {child.stderr[-500:]}"),
            (len(rows_margin) == ref["points"],
             f"{fmt}: {len(rows_margin)} rows for {ref['points']} grid points"),
            (got_min == ref["min_margin"],
             f"{fmt}: min margin {got_min!r}, library {ref['min_margin']!r}"),
        ):
            res["attempted"] += 1
            if not ok:
                res["failed"] += 1
                res["failures"].append(what)
        res["points"] += len(rows_margin)
        res["nominal_terms"] += ref["nominal_terms"]
        margins += rows_margin
        errs += rows_err
    # 0 only when nothing could be parsed, which the gate already counts
    res["worst_margin"] = min(margins) if margins else 0.0
    res["max_err_over_r"] = max(errs) / CLI_R if errs else 0.0
    return res


def _read_rows(path: Path, fmt: str) -> tuple[list[float], list[float]]:
    """(margin, err) columns re-parsed from a CLI scan output file."""
    if fmt == "json":
        with open(path) as handle:
            rows = json.load(handle)["rows"]
        return [r["margin"] for r in rows], [r["err"] for r in rows]
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines[1].split(",")
    i_margin, i_err = header.index("margin"), header.index("err")
    cells = [line.split(",") for line in lines[2:]]
    return [float(c[i_margin]) for c in cells], [float(c[i_err]) for c in cells]


def one_pass(workload: str, inputs: dict[str, Any], ref: Optional[dict[str, Any]],
             deadline: float, tag: str, traced: bool = False, workers: int = 1,
             digest: bool = False) -> dict[str, Any]:
    if workload == "cli-scan":
        assert ref is not None
        res = cli_pass(ref, deadline, traced, tag)
    else:
        spec = {"workload": workload, "inputs": inputs, "workers": workers,
                "traced": traced, "digest": digest, "pass_id": tag,
                "spans_path": str(OUT / f"spans-{tag}.json")}
        child = worker("pass", spec, deadline)
        res = child.result()
        res["peak_rss_mb"] = child.peak_rss_mb
        res["layers"] = [res["layers"]] if traced else []
    return res


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(passes: list[dict[str, Any]], setup: list[float],
               speed: float) -> tuple[dict, int, int]:
    """Run-level metrics; times are scaled by speed to the probe's reference speed."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # worst_margin and max_err_over_r are deterministic: every pass must agree
    for p in passes[1:]:
        attempted += 1
        if (p["worst_margin"], p["max_err_over_r"]) != (passes[0]["worst_margin"],
                                                        passes[0]["max_err_over_r"]):
            failed += 1
    walls = [p["wall_s"] * speed for p in passes]
    values = {
        "setup_s": statistics.median(setup) * speed,
        "wall_s": statistics.median(walls),
        "points_per_s": statistics.median(p["points"] / w for p, w in zip(passes, walls)),
        "gterm_per_s": statistics.median(p["nominal_terms"] / w / 1e9
                                         for p, w in zip(passes, walls)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "worst_margin": passes[0]["worst_margin"],
        "max_err_over_r": passes[0]["max_err_over_r"],
    }
    return ({name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
            attempted, failed)


def per_layer(workload: str, plain_wall: float, traced: dict[str, Any],
              w2: Optional[dict[str, Any]], cli_bytes: int) -> dict[str, Any]:
    """Per-layer metrics of the traced pass; plain_wall is the untraced wall time."""
    L: dict[str, float] = {}
    for part in traced["layers"]:
        for key, value in part.items():
            L[key] = L.get(key, 0) + value
    wall = traced["wall_s"]

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    values = {
        "verifier.kernel.calls": L["kernel_calls"],
        "verifier.kernel.points": L["kernel_points"],
        "verifier.kernel.nominal_terms": L["kernel_terms"],
        "verifier.kernel.busy_s": L["kernel_s"],
        "verifier.kernel.gterm_per_s": ratio(L["kernel_terms"], L["kernel_s"]) / 1e9,
        "verifier.kernel.share": ratio(L["kernel_s"], wall),
        "verifier.scan.calls": L["scan_calls"],
        "verifier.scan.blocks": L["scan_blocks"],
        "verifier.scan.self_s": L["scan_self_s"],
        # 0 where the workers=2 rerun is not made (every workload but scan-high)
        "verifier.scan.w2_speedup": ratio(plain_wall, w2["wall_s"]) if w2 else 0.0,
        "verifier.scan.w2_identical": float(w2 is not None and w2["identical"]),
        "verifier.refine.busy_s": L["refine_s"],
        "verifier.refine.coarse_scan_s": L["refine_scan_s"],
        "verifier.refine.accurate_evals": L["refine_evals"],
        "verifier.refine.accurate_terms": L["refine_terms"],
        "zeta_eval.eval.calls": L["eval_calls"],
        "zeta_eval.eval.terms": L["eval_terms"],
        "zeta_eval.eval.busy_s": L["eval_s"],
        "zeta_eval.eval.mterm_per_s": ratio(L["eval_terms"], L["eval_s"]) / 1e6,
        "zeta_eval.oracle.calls": L["oracle_calls"],
        "zeta_eval.oracle.busy_s": L["oracle_s"],
        "zeta_eval.oracle.refusals": L["oracle_refusals"],
        "rs_bounds.b0_s": L["b0_s"],
        "rs_bounds.b1_s": L["b1_s"],
        "rs_bounds.c_sigma_s": L["c_sigma_s"],
        "rs_bounds.c0_calls": L["c0_calls"],
        "rs_bounds.c1_calls": L["c1_calls"],
        "rs_bounds.contour_calls": L["contour_calls"],
        "rs_bounds.contour_s": L["contour_s"],
        "expsum.calls": L["expsum_calls"],
        "expsum.busy_s": L["expsum_s"],
        "cli.compute_s": L["cli_compute_s"],
        "cli.render_s": L["cli_render_s"],
        "cli.write_s": L["cli_write_s"],
        "cli.output_bytes": cli_bytes,
        "cli.render_share": ratio(L["cli_render_s"], wall) if workload == "cli-scan" else 0.0,
        "trace.overhead_s": traced["wall_s"] - plain_wall,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def environment(args: argparse.Namespace) -> dict[str, Any]:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit.strip() if commit else "unknown (not a git checkout)",
        "git_dirty": bool(status.strip()) if status is not None else None,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "measurement": MEASUREMENT_NOTE,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(args: argparse.Namespace) -> dict[str, Any]:
    run_start = time.perf_counter()
    deadline = run_start + LAUNCH_LIMIT_S
    inputs = make_inputs(args.workload, args.seed)
    cli_ref = CLI_REFERENCE if args.workload == "cli-scan" else None
    ref = worker("warmup", {"cli_reference": cli_ref}, deadline).result()["cli_reference"]
    tag = f"{args.workload}-seed{args.seed}"
    record: dict[str, Any] = {"inputs": inputs, "cli_reference": ref}

    if args.trace:
        # untraced passes on both sides of the traced one, so that slow drift
        # of the machine's speed cancels out of trace.overhead_s
        digest = args.workload == "scan-high"
        before = one_pass(args.workload, inputs, ref, deadline, f"{tag}-plain0", digest=digest)
        traced = one_pass(args.workload, inputs, ref, deadline, f"{tag}-traced", traced=True)
        after = one_pass(args.workload, inputs, ref, deadline, f"{tag}-plain1", digest=digest)
        passes = [before, traced, after]
        w2 = None
        if digest:
            w2 = one_pass(args.workload, inputs, ref, deadline, f"{tag}-w2",
                          workers=2, digest=True)
            passes.append(w2)
            w2["identical"] = w2["digests"] == before["digests"]
            w2["attempted"] += 1
            if not w2["identical"]:
                w2["failed"] += 1
                w2["failures"].append("workers=2 modulus/err bytes differ from workers=1")
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        metrics = per_layer(args.workload, 0.5 * (before["wall_s"] + after["wall_s"]),
                            traced, w2, before.get("output_bytes", 0))
    else:
        setup, probes = [], []
        for _ in range(SETUP_SAMPLES):
            probes.append(import_probe(deadline))
            child = worker("setup", {}, deadline)
            setup.append(child.result()["imported_at"] - child.started)
        passes = []
        loop_start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            passes.append(one_pass(args.workload, inputs, ref, deadline,
                                   f"{tag}-pass{len(passes)}"))
            probes.append(import_probe(deadline))
            typical = time.perf_counter() - begun
            now = time.perf_counter()
            if (now + typical > loop_start + args.seconds
                    or now + typical > run_start + RUN_LIMIT_S):
                break
        speed = PROBE_REF_S / statistics.median(probes)
        metrics, attempted, failed = end_to_end(passes, setup, speed)
        record.update(setup_s=setup, probe_s=probes, speed=speed)

    for p in passes:
        p.pop("layers", None)
    record["passes"] = passes
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetabound" / "__init__.py").is_file():
        print(f"error: no zetabound sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment(args)
    record = result.pop("record")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env, **result, "record": record}, indent=1))
    for failure in (f for p in record["passes"] for f in p["failures"]):
        print(f"FAILED: {failure}")
        # also on stderr, where a log that keeps only the tail of it shows why
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_rate':32s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} checks)")
    if "speed" in record:
        print(f"{'speed factor':32s} {record['speed']:.6g} (measured times = value / factor)")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
