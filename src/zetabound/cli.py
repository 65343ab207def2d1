"""Command-line front end.

Subcommands: eval, table1, table2, table3, scan, figures, constants.
Row data goes to stdout as an aligned table (values at 4 decimals), CSV
(full 17-significant-digit floats, metadata in a leading JSON comment
line), or a single compact JSON document whose "rows" list holds one
object per row; re-parsing the machine-readable output and rounding to 4
decimals reproduces table mode exactly.  Key columns (t, t0, p) are
printed in %g form in table mode so that inputs like 1e300 stay readable.
A blank cell (a value that does not exist, such as a scan margin without
--bound) is empty in table and CSV modes and null in JSON.

Commands produce column-oriented records; rows are formed only while
rendering.  Rows are formatted a chunk of rows at a time, by one
%-template per row applied to the chunk's cells, so memory is the text
and not an object per cell; the bytes are those of formatting each cell on
its own (format(v, ".17g") in CSV, json.dumps in JSON, and in table mode
the cell right-justified to its column's width, which a first pass over
the column finds).

Exit status: 0 success / bound holds, 1 bound violated on the grid,
2 usage or domain error (including a non-finite t, t0 or bound, a
budget that is not positive, an --r below the radius an eval or any
scan call certifies, or an --out that cannot be written), 3 resource or
convergence error (including a scan over its budget or over physical
memory, an eval charged over the budget, or no memory).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import expsum, rs_bounds, verifier, zeta_eval
from .errors import ConvergenceError, CrossingNotFound, ResourceBudgetError

__all__ = ["OutputRecord", "build_parser", "main", "run"]

SCHEMA_VERSION = "1"

_KEY_COLUMNS = ("t", "t0", "p", "name")
_FIGURES = ("c0", "c1-sigma0", "c1-sigma1", "zeta-vs-affine", "ratio")
_FIGURE_GRID_POINTS = 1001
_FIGURE_T_LO = math.e
_FIGURE_T_HI = 500.0
_RENDER_CHUNK = 1 << 13  # rows formatted by one %


@dataclass
class OutputRecord:
    """One command's output: metadata plus equal-length named columns.

    A column is a numpy array or a short list; None marks a blank cell.
    """

    command: str
    inputs: dict[str, str]
    columns: dict[str, Sequence[object]]
    schema_version: str = SCHEMA_VERSION

    def metadata(self) -> dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "inputs": self.inputs,
        }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _cells(values: Sequence[object]) -> list[object]:
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _format_cells(values: Sequence[object], float_format: str) -> list[str]:
    return [
        "" if v is None else format(v, float_format) if isinstance(v, float) else str(v)
        for v in _cells(values)
    ]


def _rows_text(
    record: OutputRecord,
    format_cells: Callable[[int, Sequence[object]], list[str]],
    row: Callable[[list[bool]], str], sep: str,
) -> list[str]:
    """The record's rows, one string per chunk of _RENDER_CHUNK rows, each after sep but the first.

    A float64 array whose values are all finite is a float column, whose
    field in the row template fills with Python floats; every other column
    fills %s with its cells as format_cells(column index, cells) writes
    them.  row builds the template from the columns' float flags.  A chunk
    is one % of its rows' template on the flat tuple of its cells, so no
    per-row or per-cell object outlives it.
    """
    columns = list(record.columns.values())
    floats = [
        isinstance(v, np.ndarray) and v.dtype == np.float64 and bool(np.isfinite(v).all())
        for v in columns
    ]
    template = row(floats)
    width, total = len(columns), len(columns[0]) if columns else 0
    parts = []
    for lo in range(0, total, _RENDER_CHUNK):
        hi = min(lo + _RENDER_CHUNK, total)
        cells: list[object] = [None] * ((hi - lo) * width)
        for c, (values, f) in enumerate(zip(columns, floats)):
            chunk = values[lo:hi]
            cells[c::width] = chunk.tolist() if f else format_cells(c, chunk)
        parts.append((sep if lo else "") + sep.join([template] * (hi - lo)) % tuple(cells))
    return parts


def render_table(record: OutputRecord) -> str:
    """Right-aligned columns two spaces apart, key columns in %g and the rest at 4 decimals.

    A first pass formats each column a chunk at a time for its width only;
    the rows are then formatted a chunk at a time by _rows_text, with the
    width in every field of the template, so memory is the text.
    """
    specs = ["g" if key in _KEY_COLUMNS else ".4f" for key in record.columns]
    widths = [
        max([len(key)] + [
            max(map(len, _format_cells(values[lo:lo + _RENDER_CHUNK], spec)))
            for lo in range(0, len(values), _RENDER_CHUNK)
        ])
        for (key, values), spec in zip(record.columns.items(), specs)
    ]
    head = "  ".join(key.rjust(w) for key, w in zip(record.columns, widths))
    rows = _rows_text(
        record, lambda c, v: _format_cells(v, specs[c]),
        lambda floats: "\n" + "  ".join(
            f"%{w}{spec if f else 's'}" for w, spec, f in zip(widths, specs, floats)
        ), "",
    )
    return "".join([head, *rows, "\n"])


def render_csv(record: OutputRecord) -> str:
    head = "# " + json.dumps(record.metadata(), sort_keys=True) + "\n" + ",".join(record.columns)
    rows = _rows_text(record, lambda c, v: _format_cells(v, ".17g"),
                      lambda floats: "\n" + ",".join("%.17g" if f else "%s" for f in floats), "")
    return "".join([head, *rows, "\n"])


def render_json(record: OutputRecord) -> str:
    keys = [json.dumps(key).replace("%", "%%") + ": " for key in record.columns]
    head = json.dumps({**record.metadata(), "rows": []})[:-2]  # ends in '"rows": ['
    rows = _rows_text(
        record, lambda c, v: list(map(json.dumps, _cells(v))),
        lambda floats: "{" + ", ".join(k + ("%r" if f else "%s") for k, f in zip(keys, floats)) + "}",
        ", ",
    )
    return "".join([head, *rows, "]}\n"])


_RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_eval(t: float, r: float) -> OutputRecord:
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"--t must be positive and finite, got {t}")
    if not r > 0.0:
        raise ValueError(f"--r must be positive, got {r}")
    pts, plan = zeta_eval._point_plan(t)  # the charge and err of the sum below, checked first
    if r < plan.radius:
        raise ValueError(f"--r {r:g} is below the radius {plan.radius:.3e} certified at t = {t:g}")
    # the nominal N, formed once r is known to hold, changes nothing but what a tracer reads
    values, err = zeta_eval._eval_block(pts, zeta_eval.choose_N(t, r), plan)
    cert = zeta_eval.CertifiedComplex(complex(values[0]), err)
    columns = {
        "t": [t],
        "real": [cert.value.real],
        "imag": [cert.value.imag],
        "modulus": [cert.modulus],
        "err": [cert.err],
        "n_terms": [plan.a],
    }
    return OutputRecord("eval", {"t": repr(t), "r": repr(r)}, columns)


class _Table(NamedTuple):
    help: str
    grid: tuple[float, ...]            # default t0 values
    lowest: float                      # least valid t0
    columns: tuple[str, ...]           # names of the values row(t0) returns
    row: Callable[[float], tuple[object, ...]]


def _table1_row(t0: float) -> tuple[object, ...]:
    p = expsum.optimal_bound_params(t0)
    return p.beta, p.v, p.u


def _table3_row(t0: float) -> tuple[object, ...]:
    v = expsum.optimal_bound_params(t0).v if t0 >= 2000.0 else None
    return v, rs_bounds.affine_C(t0).v_tilde


_TABLES = {
    "table1": _Table("optimal (beta, v, u) per t0; default grid 1e5..1e300",
                     expsum.TABLE_T0, 2000.0, ("beta", "v", "u"), _table1_row),
    "table2": _Table("affine intercepts C per t0; default grid 1e1..1e10",
                     tuple(10.0**k for k in range(1, 11)), 1.0, ("C",),
                     lambda t0: (rs_bounds.affine_C(t0).C,)),
    "table3": _Table("slopes v and v_tilde per t0; default grid as table1",
                     expsum.TABLE_T0, math.e, ("v", "v_tilde"), _table3_row),
}


def cmd_table(name: str, t0_list: list[float] | None) -> OutputRecord:
    spec = _TABLES[name]
    t0s = sorted(t0_list) if t0_list else list(spec.grid)
    if not all(map(math.isfinite, t0s)):
        raise ValueError(f"--t0 must be finite, got {t0s}")
    offending = [t0 for t0 in t0s if not t0 >= spec.lowest]
    if offending:
        raise ValueError(f"{name} requires t0 >= {spec.lowest:g}; offending values: {offending}")
    columns = {"t0": t0s, **dict(zip(spec.columns, zip(*map(spec.row, t0s))))}
    return OutputRecord(name, {"t0": ",".join(repr(x) for x in t0s)}, columns)


def _parse_bound(spec: str) -> tuple[float, float]:
    kind, _, rest = spec.partition(":")
    if kind not in ("vlog", "affine"):
        raise ValueError(f"unknown bound kind {kind!r}; use vlog:<v> or affine:<slope>,<intercept>")
    try:
        slope, intercept = (float(rest), 0.0) if kind == "vlog" else map(float, rest.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed bound spec {spec!r}") from exc
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise ValueError(f"bound {spec!r} needs a finite slope and intercept")
    return slope, intercept


def cmd_scan(
    lo: float, hi: float, h: float, r: float, bound_spec: str | None,
    budget: float, workers: int,
) -> tuple[OutputRecord, int]:
    config = verifier.ScanConfig(t_lo=lo, t_hi=hi, h=h, r=r)
    bound = _parse_bound(bound_spec) if bound_spec else None
    report = verifier.scan_interval(config, bound=bound, budget=budget, workers=workers)
    columns = {
        "t": report.t,
        "modulus": report.modulus,
        "err": report.err,
        "ratio": report.ratio,
        "margin": [None] * len(report.t) if report.margin is None else report.margin,
    }
    inputs = {
        "lo": repr(lo), "hi": repr(hi), "h": repr(h), "r": repr(r),
        "bound": bound_spec or "", "budget": repr(budget),
    }
    status = 1 if report.min_margin is not None and report.min_margin < 0.0 else 0
    return OutputRecord("scan", inputs, columns), status


def cmd_figures(name: str) -> OutputRecord:
    if name not in _FIGURES:
        raise ValueError(f"unknown figure {name!r}; choose from {', '.join(_FIGURES)}")
    if name in ("c0", "c1-sigma0", "c1-sigma1"):
        p = np.arange(_FIGURE_GRID_POINTS) / (_FIGURE_GRID_POINTS - 1)
        sigma = 0 if name.endswith("0") else 1
        y = rs_bounds.c0(p) if name == "c0" else rs_bounds.c1(p, sigma)
        return OutputRecord("figures", {"name": name}, {"p": p, "y": np.abs(y)})
    config = verifier.ScanConfig(t_lo=_FIGURE_T_LO, t_hi=_FIGURE_T_HI)
    report = verifier.scan_interval(config)
    if name == "zeta-vs-affine":
        affine = 0.5 * np.log(report.t) + rs_bounds.AFFINE_INTERCEPT
        columns = {"t": report.t, "modulus": report.modulus, "affine_bound": affine}
    else:
        columns = {"t": report.t, "ratio": report.ratio}
    return OutputRecord("figures", {"name": name}, columns)


def cmd_constants() -> OutputRecord:
    a = expsum.asymptotic_constants()
    k = rs_bounds.computed_constants()
    values = {
        "e0_squared": a.e0sq,
        "lambda1": a.lambda1,
        "lambda2": a.lambda2,
        "beta_limit": a.beta_limit,
        "h_C_min": a.hC_min,
        "b0": k.b0,
        "b1_sigma0": k.b1_sigma0,
        "b1_sigma1": k.b1_sigma1,
        "c_sigma0": k.c_sigma0,
        "c_sigma1": k.c_sigma1,
        "gamma_minus_half_log_2pi": rs_bounds.GAMMA_MINUS_HALF_LOG_2PI,
    }
    return OutputRecord("constants", {}, {"name": list(values), "value": list(values.values())})


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_output_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same two options live on the main parser and on every subparser so
    # they are accepted on either side of the subcommand; the subparser
    # copies suppress their defaults so an absent flag keeps the outer value
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default=default,
        help="output format (default: table; csv for scan/figures)",
    )
    parser.add_argument("--out", default=default,
                        help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetabound",
        description="Certified zeta(1+it) evaluation, bound tables, and grid verification.",
    )
    _add_output_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate zeta(1+it) with a certified radius")
    _add_output_options(p, suppress=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r", type=float, default=1e-8, help="largest radius accepted")

    for name, spec in _TABLES.items():
        p = sub.add_parser(name, help=spec.help)
        _add_output_options(p, suppress=True)
        p.add_argument("--t0", type=float, action="append", default=None,
                       help="t0 value (repeatable); omit for the default grid")

    p = sub.add_parser("scan", help="certified grid scan, optionally checking a bound")
    _add_output_options(p, suppress=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--h", type=float, default=0.01, help="grid spacing")
    p.add_argument("--r", type=float, default=0.005, help="largest radius accepted per point")
    p.add_argument("--bound", default=None, help="vlog:<v> or affine:<slope>,<intercept>")
    p.add_argument("--budget", type=float, default=verifier.DEFAULT_BUDGET,
                   help="most kernel passes (over head terms and points) a scan is charged")
    p.add_argument("--workers", type=int, default=1,
                   help="threads sharing a scan's kernel calls (2 measured ~1.4x faster than 1)")

    p = sub.add_parser("figures", help="emit a figure dataset as rows")
    _add_output_options(p, suppress=True)
    p.add_argument("name", help=f"one of: {', '.join(_FIGURES)}")

    p = sub.add_parser("constants", help="print every derived constant")
    _add_output_options(p, suppress=True)
    return parser


_COMMANDS: dict[str, Callable[[argparse.Namespace], tuple[OutputRecord, int]]] = {
    "eval": lambda a: (cmd_eval(a.t, a.r), 0),
    **dict.fromkeys(_TABLES, lambda a: (cmd_table(a.command, a.t0), 0)),
    "scan": lambda a: cmd_scan(a.lo, a.hi, a.h, a.r, a.bound, a.budget, a.workers),
    "figures": lambda a: (cmd_figures(a.name), 0),
    "constants": lambda a: (cmd_constants(), 0),
}


def _dispatch(args: argparse.Namespace) -> tuple[OutputRecord, int]:
    return _COMMANDS[args.command](args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.format
    if fmt is None:
        fmt = "csv" if args.command in ("scan", "figures") else "table"
    try:
        record, status = _dispatch(args)
        text = _RENDERERS[fmt](record)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ResourceBudgetError, CrossingNotFound, OverflowError,
            MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
