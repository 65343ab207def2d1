"""CLI table, CSV and JSON rendering: bytes as the cell-by-cell reference, and bounded memory."""

import math
import tracemalloc

import numpy as np
import pytest

from zetabound import cli, verifier

from reference_render import render_csv, render_json, render_table

CHUNK = cli._RENDER_CHUNK
BUDGET = verifier.DEFAULT_BUDGET


def assert_same_bytes(record):
    for render, reference in ((cli.render_table, render_table), (cli.render_csv, render_csv),
                              (cli.render_json, render_json)):
        text, expected = render(record), reference(record)
        if text != expected:  # report the first difference, not a diff of megabytes
            at = next((j for j, (x, y) in enumerate(zip(text, expected)) if x != y),
                      min(len(text), len(expected)))
            pytest.fail(f"{render.__name__} differs at {at}: "
                        f"{text[max(at - 40, 0):at + 40]!r} != "
                        f"{expected[max(at - 40, 0):at + 40]!r}")


def scan_record(rows, bound):
    # grid points 2.72 + k/100, k < rows; hi sits half a step past the last
    lo, h = 2.72, 0.01
    record, _ = cli.cmd_scan(lo, lo + (rows - 0.5) * h, h, 0.005, bound, BUDGET, 1)
    assert len(record.columns["t"]) == rows
    return record


@pytest.mark.parametrize("bound", [None, "affine:0.5,0.6633"])
@pytest.mark.parametrize("rows", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_scan_bytes(rows, bound):
    assert_same_bytes(scan_record(rows, bound))


def test_long_scan_bytes():
    # 2e4 rows: three chunks, the last partial, in every format
    assert_same_bytes(scan_record(20_000, "affine:0.5,0.6633"))


def test_table_widths_from_every_chunk():
    # each column's widest cell sits in a different chunk, the first one's
    # in the last row: the widths come from a pass over all of them
    rows = 2 * CHUNK + 5
    t = np.full(rows, 3.0)
    t[-1] = 1e300
    wide = np.zeros(rows)
    wide[CHUNK + 2] = -12345.678
    record = cli.OutputRecord("synthetic", {}, {
        "t": t, "modulus": wide, "n": [7] * CHUNK + [123456789] + [7] * (rows - CHUNK - 1),
        "margin": [None] * rows,
    })
    text = cli.render_table(record)
    # widths 6 ("1e+300"), 11 ("-12345.6780"), 9 (123456789) and 6 ("margin")
    assert text.splitlines()[0] == "     t      modulus          n  margin"
    assert_same_bytes(record)


@pytest.mark.parametrize("name", ["c0", "ratio", "zeta-vs-affine"])
def test_figures_bytes(name):
    assert_same_bytes(cli.cmd_figures(name, BUDGET, 1))


def test_eval_bytes():
    assert_same_bytes(cli.cmd_eval(17.7477, 1e-8))


@pytest.mark.parametrize("name", ["table1", "table2", "table3"])
def test_table_bytes(name):
    assert_same_bytes(cli.cmd_table(name, None))


def test_table3_blank_v_bytes():
    record = cli.cmd_table("table3", [100.0, 1e15])
    assert record.columns["v"][0] is None
    assert_same_bytes(record)


def test_constants_bytes():
    assert_same_bytes(cli.cmd_constants())


def test_special_cells_bytes():
    # non-finite and signed-zero floats, ints, None cells and a key needing
    # escapes, each in a chunk of its own and across a chunk boundary
    rows = CHUNK + 3
    special = np.resize([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320, 1e300], rows)
    floats = np.linspace(-1.0, 1.0, rows)
    floats[::5] = -0.0
    listed = [None if k % 3 == 0 else k / 7.0 for k in range(rows)]
    record = cli.OutputRecord("synthetic", {"note": 'a "b" %s'}, {
        "t": floats,
        "special": special,
        "count": np.arange(rows, dtype=np.int64) - 5,
        "n_terms": list(range(rows)),
        "maybe": listed,
        'odd "%s" key': floats[::-1].copy(),
    })
    assert_same_bytes(record)


def test_empty_record_bytes():
    assert_same_bytes(cli.OutputRecord("empty", {}, {"t": np.empty(0), "v": []}))


@pytest.mark.parametrize("render", [cli.render_csv, cli.render_json, cli.render_table])
def test_render_memory(render):
    # the rows are formatted a chunk at a time: the peak is the finished
    # text and the chunks it is joined from, not a Python object per cell
    rng = np.random.default_rng(14)
    names = ("t", "modulus", "err", "ratio", "margin")
    record = cli.OutputRecord("synthetic", {}, {k: rng.random(100_000) for k in names})
    tracemalloc.start()
    try:
        text = render(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text) + 4_000_000
