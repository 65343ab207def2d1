"""Spans and counters around zetabound's layer boundaries, installed from outside.

The library carries no instrumentation of its own, so every span here comes
from replacing a module attribute with a wrapper.  That only sees calls that
look the attribute up at call time, which fixes where each wrapper must go:

* ``verifier`` binds ``eval_zeta_certified`` by name at import, so refiner
  evaluations are seen only through ``verifier.eval_zeta_certified``;
  direct evaluations go through ``zeta_eval.eval_zeta_certified``;
* ``cli._RENDERERS`` holds the render functions captured at import, so its
  entries are wrapped rather than ``cli.render_json``;
* ``computed_constants`` looks ``b0`` / ``b1`` / ``c_sigma`` up as module
  globals, so wrapping the module attributes catches them;
* forked pool workers keep their spans in the child, so block-level spans
  exist only for ``workers=1`` scans.

Spans stay in memory and are written out once, when the pass ends.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Optional

# Layer names, in the order the per-layer metrics are reported.
KERNEL = "verifier.kernel"
SCAN = "verifier.scan"
REFINE = "verifier.refine"
EVAL = "zeta_eval.eval"
ORACLE = "zeta_eval.oracle"
B0, B1, C_SIGMA = "rs_bounds.b0", "rs_bounds.b1", "rs_bounds.c_sigma"
C0_CALLS, C1_CALLS = "rs_bounds.c0_calls", "rs_bounds.c1_calls"
CONTOUR = "rs_bounds.contour"
EXPSUM = "expsum"
CLI_MAIN, CLI_COMPUTE, CLI_RENDER = "cli.main", "cli.compute", "cli.render"


def _term_count(*args: Any, **kwargs: Any) -> dict[str, int]:
    # eval_zeta_certified(t, N)
    return {"N": int(args[1] if len(args) > 1 else kwargs["N"])}


def _block_size(*args: Any, **kwargs: Any) -> dict[str, int]:
    # _eval_block(t_pts, N)
    t_pts = args[0] if args else kwargs["t_pts"]
    N = args[1] if len(args) > 1 else kwargs["N"]
    return {"N": int(N), "points": len(t_pts)}


class Tracer:
    """In-memory span recorder for one pass.

    Each span is [name, start, end, parent index, attrs, error]; parent is -1
    for a top-level span.  Counters record calls too frequent to span
    individually (the C0/C1 evaluations inside the b0/b1 maximisation).
    """

    def __init__(self, pass_id: str) -> None:
        self.pass_id = pass_id
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrapped(
        self, fn: Callable[..., Any], name: str,
        attrs: Optional[Callable[..., dict[str, int]]] = None,
    ) -> Callable[..., Any]:
        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1,
                    attrs(*args, **kwargs) if attrs else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def wrap(self, owner: Any, attr: str, name: str,
             attrs: Optional[Callable[..., dict[str, int]]] = None) -> None:
        setattr(owner, attr, self.wrapped(getattr(owner, attr), name, attrs))

    def count(self, owner: Any, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        self.counts[name] = 0

        @wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def install(self) -> None:
        """Wrap every layer boundary of the imported zetabound package."""
        from zetabound import cli, expsum, rs_bounds, verifier, zeta_eval

        self.wrap(verifier, "_eval_block", KERNEL, _block_size)
        self.wrap(verifier, "scan_interval", SCAN)
        self.wrap(verifier, "max_ratio", REFINE)
        self.wrap(verifier, "crossing_point", REFINE)
        self.wrap(verifier, "eval_zeta_certified", EVAL, _term_count)
        self.wrap(zeta_eval, "eval_zeta_certified", EVAL, _term_count)
        self.wrap(zeta_eval, "oracle_zeta", ORACLE)
        self.wrap(rs_bounds, "b0", B0)
        self.wrap(rs_bounds, "b1", B1)
        self.wrap(rs_bounds, "c_sigma", C_SIGMA)
        self.count(rs_bounds, "c0", C0_CALLS)
        self.count(rs_bounds, "c1", C1_CALLS)
        self.wrap(rs_bounds, "ck_contour", CONTOUR)
        self.wrap(expsum, "optimal_bound_params", EXPSUM)
        self.wrap(cli, "main", CLI_MAIN)
        self.wrap(cli, "_dispatch", CLI_COMPUTE)
        for key, fn in list(cli._RENDERERS.items()):
            cli._RENDERERS[key] = self.wrapped(fn, CLI_RENDER)

    def write(self, path: Path) -> None:
        doc = {
            "pass_id": self.pass_id,
            "fields": ["name", "start", "end", "parent", "attrs", "error"],
            "spans": self.spans,
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))

    def layer_sums(self) -> dict[str, float]:
        """Additive per-layer quantities of this pass (summable across passes)."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def has_ancestor(i: int, name: str) -> bool:
            p = self.spans[i][3]
            while p >= 0:
                if self.spans[p][0] == name:
                    return True
                p = self.spans[p][3]
            return False

        out: dict[str, float] = {
            "kernel_calls": 0, "kernel_points": 0, "kernel_terms": 0, "kernel_s": 0.0,
            "scan_calls": 0, "scan_blocks": 0, "scan_self_s": 0.0,
            "refine_s": 0.0, "refine_scan_s": 0.0, "refine_evals": 0, "refine_terms": 0,
            "eval_calls": 0, "eval_terms": 0, "eval_s": 0.0,
            "oracle_calls": 0, "oracle_s": 0.0, "oracle_refusals": 0,
            "b0_s": 0.0, "b1_s": 0.0, "c_sigma_s": 0.0,
            "contour_calls": 0, "contour_s": 0.0,
            "expsum_calls": 0, "expsum_s": 0.0,
            "cli_compute_s": 0.0, "cli_render_s": 0.0, "cli_write_s": 0.0,
        }
        for i, (name, _, _, _, attrs, error) in enumerate(self.spans):
            d = dur[i]
            if name == KERNEL:
                out["kernel_calls"] += 1
                out["kernel_points"] += attrs["points"]
                out["kernel_terms"] += attrs["N"] * attrs["points"]
                out["kernel_s"] += d
                if has_ancestor(i, SCAN):
                    out["scan_blocks"] += 1
            elif name == SCAN:
                out["scan_calls"] += 1
                out["scan_self_s"] += d - child[i]
                if has_ancestor(i, REFINE):
                    out["refine_scan_s"] += d
            elif name == REFINE:
                if not has_ancestor(i, REFINE):
                    out["refine_s"] += d
            elif name == EVAL:
                out["eval_calls"] += 1
                out["eval_terms"] += attrs["N"]
                out["eval_s"] += d
                if has_ancestor(i, REFINE):
                    out["refine_evals"] += 1
                    out["refine_terms"] += attrs["N"]
            elif name == ORACLE:
                out["oracle_calls"] += 1
                out["oracle_s"] += d
                if error == "ConvergenceError":
                    out["oracle_refusals"] += 1
            elif name in (B0, B1, C_SIGMA):
                out[name.split(".", 1)[1] + "_s"] += d
            elif name == CONTOUR:
                out["contour_calls"] += 1
                out["contour_s"] += d
            elif name == EXPSUM:
                out["expsum_calls"] += 1
                out["expsum_s"] += d
            elif name == CLI_COMPUTE:
                out["cli_compute_s"] += d
            elif name == CLI_RENDER:
                out["cli_render_s"] += d
            elif name == CLI_MAIN:
                # argument parsing and writing the output: main minus its children
                out["cli_write_s"] += d - child[i]
        out["c0_calls"] = self.counts.get(C0_CALLS, 0)
        out["c1_calls"] = self.counts.get(C1_CALLS, 0)
        return out

