"""One fresh-interpreter step of the benchmark; prints one JSON line.

    python bench/worker.py <mode> '<json spec>'

Modes:
  setup   import zetabound and report when the import finished
  warmup  import everything a pass uses (so bytecode is compiled before any
          timed pass) and compute the untimed references a workload needs
  pass    run one pass of an in-process workload, optionally traced
  cli     run the command-line front end under the tracer

zetabound is imported first, before anything else that costs time, so that
the moment its import returns marks the end of set-up.
"""

import json
import sys
import time

import zetabound  # noqa: F401  (set-up ends when this returns)

IMPORTED_AT = time.perf_counter()

from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import PASSES, Checks, ScanObserver, cli_reference, cold_caches  # noqa: E402


def run_pass(spec: dict) -> dict:
    run_body, check = PASSES[spec["workload"]]
    # Users pay cold caches on every run, so the pass must too.
    if not cold_caches():
        raise RuntimeError("b0/b1/c_sigma caches are not empty before the timed pass")
    observer = ScanObserver(digest=spec.get("digest", False))
    observer.install()
    tracer = Tracer(spec["pass_id"]) if spec.get("traced") else None
    if tracer is not None:
        tracer.install()
        run_body = tracer.wrapped(run_body, "pass")
    start = time.perf_counter()
    out = run_body(spec["inputs"], spec.get("workers", 1))
    wall = time.perf_counter() - start
    checks = Checks()
    result = check(out, observer, checks)
    result.update(wall_s=wall, attempted=checks.attempted,
                  failed=len(checks.failures), failures=checks.failures[:5],
                  digests=observer.digests)
    if tracer is not None:
        result["layers"] = tracer.layer_sums()
        tracer.write(Path(spec["spans_path"]))
    return result


def run_cli(spec: dict) -> dict:
    from zetabound import cli

    tracer = Tracer(spec["pass_id"])
    tracer.install()
    status = cli.main(spec["argv"])
    tracer.write(Path(spec["spans_path"]))
    return {"status": status, "layers": tracer.layer_sums()}


def main(argv: list) -> int:
    mode, spec = argv[1], json.loads(argv[2]) if len(argv) > 2 else {}
    if mode == "setup":
        result = {"imported_at": IMPORTED_AT}
    elif mode == "warmup":
        import zetabound.cli  # noqa: F401  (compile it before the CLI passes)

        ref = spec.get("cli_reference")
        result = {"cli_reference": cli_reference(**ref) if ref else None}
    elif mode == "pass":
        result = run_pass(spec)
    elif mode == "cli":
        result = run_cli(spec)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
