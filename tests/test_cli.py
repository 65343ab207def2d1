"""Tests for the command-line interface: dispatch, formats, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetabound import ScanConfig, cli, scan_interval, verifier, zeta_eval
from zetabound.cli import main


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return meta, rows


class TestEval:
    def test_modulus_at_t1(self, capsys):
        status, out, _ = run_cli(capsys, "--format", "json", "eval", "--t", "1", "--r", "1e-8")
        assert status == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["modulus"] == pytest.approx(1.0945, abs=1e-4)
        assert row["err"] <= 1e-8 * (1.0 + 1e-3)  # analytic bound plus fp slack
        assert row["n_terms"] >= 1

    def test_peak_ratio(self, capsys):
        status, out, _ = run_cli(capsys, "--format", "json", "eval", "--t", "17.7477",
                                 "--r", "1e-8")
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["modulus"] / math.log(17.7477) == pytest.approx(0.6443, abs=1e-4)

    @pytest.mark.parametrize("t, r, summed", [
        ("1e4", "1e-7", 3184), ("1e6", "1e-7", 318310), ("5", "0.5", 64),
    ])
    def test_n_terms_counts_the_terms_summed(self, capsys, t, r, summed):
        # an evaluation sums its head a = max(64, ceil(t/pi)), not N: N is
        # 5591009 at t = 1e4 and 559017833 at t = 1e6, r = 1e-7, and 2 at
        # t = 5, r = 0.5
        status, out, _ = run_cli(capsys, "--format", "json", "eval", "--t", t, "--r", r)
        assert status == 0
        assert json.loads(out)["rows"][0]["n_terms"] == summed

    def test_radius_holds_no_truncation_bound(self, capsys):
        # at t = 5, r = 0.5 the radius is the head's rounding and the
        # Euler-Maclaurin remainder, far below r
        status, out, _ = run_cli(capsys, "--format", "json", "eval", "--t", "5", "--r", "0.5")
        assert status == 0
        assert json.loads(out)["rows"][0]["err"] < 1e-13

    def test_radius_below_the_floor_is_usage_error(self, capsys, monkeypatch):
        # at t = 1e6 the one-point call certifies 1.804e-8, known before any
        # sum: r = 1e-8, and r one ulp below the radius, are refused with no
        # kernel call, naming the radius, and r at the radius is met
        radius = zeta_eval._call_plan(np.array([1e6])).radius
        assert radius == pytest.approx(1.804e-8, abs=1e-11)
        calls = []
        kernel = zeta_eval._eval_block
        monkeypatch.setattr(zeta_eval, "_eval_block",
                            lambda *args: calls.append(args) or kernel(*args))
        status, out, err = run_cli(capsys, "eval", "--t", "1e6", "--r", "1e-8")
        assert status == 2 and out == ""
        assert "below the radius 1.804e-08 certified at t = 1e+06" in err
        below = math.nextafter(radius, 0.0)
        status, out, err = run_cli(capsys, "eval", "--t", "1e6", "--r", repr(below))
        assert status == 2 and out == ""
        assert calls == []
        status, out, _ = run_cli(capsys, "--format", "json", "eval", "--t", "1e6",
                                 "--r", repr(radius))
        assert status == 0 and len(calls) == 1
        assert json.loads(out)["rows"][0]["err"] == radius

    @pytest.mark.parametrize("args, radius", [
        (("eval", "--t", "1e6"), "1.804e-08"),
        (("scan", "--lo", "1e6", "--hi", "1000001"), "5.421e-08"),
    ], ids=["eval", "scan"])
    def test_radius_far_below_the_floor_is_usage_error(self, capsys, args, radius):
        # at r = 1e-30 the nominal N, 1.77e20, is past the integer range,
        # but N decides nothing: the r check refuses first, naming the radius
        status, out, err = run_cli(capsys, *args, "--r", "1e-30")
        assert status == 2 and out == ""
        assert f"below the radius {radius}" in err

    def test_zero_threshold_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "eval", "--t", "1", "--r", "0")
        assert status == 2
        assert "error" in err


class TestTables:
    def test_table1_row(self, capsys):
        status, out, _ = run_cli(capsys, "table1", "--t0", "1e6")
        assert status == 0
        assert "0.1796" in out and "0.7421" in out and "1.0295" in out

    def test_table1_default_grid(self, capsys):
        status, out, _ = run_cli(capsys, "--format", "json", "table1")
        doc = json.loads(out)
        assert len(doc["rows"]) == 22
        first, last = doc["rows"][0], doc["rows"][-1]
        assert first["t0"] == 1e5 and last["t0"] == 1e300
        assert round(last["v"], 4) == 0.5046

    def test_table1_domain_error(self, capsys):
        status, _, err = run_cli(capsys, "table1", "--t0", "1000")
        assert status == 2
        assert "1000" in err

    def test_table2_rows(self, capsys):
        status, out, _ = run_cli(capsys, "table2", "--t0", "1e1", "--t0", "1e9")
        assert status == 0
        assert "2.4868" in out and "0.6584" in out

    def test_table3_row(self, capsys):
        status, out, _ = run_cli(capsys, "table3", "--t0", "1e15")
        assert status == 0
        assert "0.5912" in out and "0.5192" in out

    def test_table3_below_optimiser_range_blank_v(self, capsys):
        status, out, _ = run_cli(capsys, "--format", "json", "table3", "--t0", "100")
        assert status == 0
        doc = json.loads(out)
        assert doc["rows"][0]["v"] is None
        assert doc["rows"][0]["v_tilde"] == pytest.approx(0.5 + 0.6633 / math.log(100.0))


class TestFormats:
    def test_csv_metadata_and_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "csv", "table1", "--t0", "1e6")
        meta, rows = parse_csv(out)
        assert meta["schema_version"] == "1"
        assert meta["command"] == "table1"
        assert len(rows) == 1
        # 17-significant-digit csv field re-parses to the table-mode value
        _, table_out, _ = run_cli(capsys, "table1", "--t0", "1e6")
        for key in ("beta", "v", "u"):
            assert f"{float(rows[0][key]):.4f}" in table_out

    def test_json_machine_table_consistency(self, capsys):
        _, json_out, _ = run_cli(capsys, "--format", "json", "table2", "--t0", "1e3")
        _, table_out, _ = run_cli(capsys, "table2", "--t0", "1e3")
        value = json.loads(json_out)["rows"][0]["C"]
        assert f"{value:.4f}" in table_out

    def test_rows_sorted_by_primary_key(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "table2",
                            "--t0", "1e5", "--t0", "1e2", "--t0", "1e4")
        doc = json.loads(out)
        t0s = [row["t0"] for row in doc["rows"]]
        assert t0s == sorted(t0s)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        status, out, _ = run_cli(capsys, "--format", "csv", "--out", str(target),
                                 "table2", "--t0", "10")
        assert status == 0
        assert out == ""
        meta, rows = parse_csv(target.read_text())
        assert meta["command"] == "table2"
        assert float(rows[0]["C"]) == pytest.approx(2.4868, abs=1e-4)

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        # exit 1 means "bound violated", so a failed write must not escape
        # as a traceback
        path = tmp_path / "missing" / "x.csv"
        status, out, err = run_cli(capsys, "eval", "--t", "10", "--out", str(path))
        assert status == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert not path.exists()


class TestScan:
    def test_bound_holds_exit_zero(self, capsys):
        status, out, _ = run_cli(
            capsys, "scan", "--lo", "2.72", "--hi", "100",
            "--bound", "vlog:0.6443", "--r", "1e-4",
        )
        assert status == 0
        _, rows = parse_csv(out)
        margins = [float(row["margin"]) for row in rows]
        assert min(margins) == pytest.approx(0.0, abs=5e-4)

    def test_tight_bound_holds_at_default_radius(self, capsys):
        status, out, _ = run_cli(
            capsys, "scan", "--lo", "2.72", "--hi", "100", "--bound", "vlog:0.6443",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert 0.0 < min(float(row["margin"]) for row in rows) < 5e-5

    def test_tight_bound_holds_where_blocks_have_n_within_the_head(self, capsys):
        # every block of [2.72, 20] has N <= a = 64 at the default radius;
        # its call sums the head and the tail like any other
        status, out, _ = run_cli(
            capsys, "scan", "--lo", "2.72", "--hi", "20", "--bound", "vlog:0.6443",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert 0.0 < min(float(row["margin"]) for row in rows) < 5e-5

    def test_affine_bound_exit_zero(self, capsys):
        status, out, _ = run_cli(
            capsys, "scan", "--lo", "2.72", "--hi", "100",
            "--bound", "affine:0.5,0.6633",
        )
        assert status == 0

    def test_violated_bound_exit_one(self, capsys):
        status, _, _ = run_cli(
            capsys, "scan", "--lo", "2.72", "--hi", "100", "--bound", "vlog:0.5",
        )
        assert status == 1

    def test_budget_exit_three(self, capsys):
        status, _, err = run_cli(
            capsys, "scan", "--lo", "2.72", "--hi", "100", "--budget", "1e3",
        )
        assert status == 3
        assert "budget" in err

    def test_scan_radius_below_the_floor_is_usage_error(self, capsys):
        # the one call at t = 1e6 returns the radius 5.421e-8, known before
        # the sum: --r 1e-8 exits 2 before any kernel call, naming it
        status, out, err = run_cli(
            capsys, "scan", "--lo", "1e6", "--hi", "1000001", "--r", "1e-8", "--budget", "inf",
        )
        assert status == 2 and out == ""
        assert "below the radius 5.421e-08 of the kernel call" in err

    def test_bad_bound_spec(self, capsys):
        status, _, _ = run_cli(
            capsys, "scan", "--lo", "2.72", "--hi", "10", "--bound", "nonsense:1",
        )
        assert status == 2

    @pytest.mark.parametrize("spec", ["vlog:", "affine:0.5"])
    def test_malformed_bound_spec(self, capsys, spec):
        status, out, err = run_cli(capsys, "scan", "--lo", "2.72", "--hi", "10", "--bound", spec)
        assert status == 2 and out == ""
        assert "malformed" in err

    def test_step_below_float_spacing_is_usage_error(self, capsys):
        # at the default budget the charge refuses first (exit 3)
        status, out, err = run_cli(
            capsys, "scan", "--lo", "1e300", "--hi", "2e300", "--h", "1", "--budget", "inf",
        )
        assert status == 2 and out == ""
        assert "float spacing" in err

    def test_plain_scan_rows(self, capsys):
        status, out, _ = run_cli(capsys, "scan", "--lo", "2.72", "--hi", "3.0")
        assert status == 0
        _, rows = parse_csv(out)
        assert 26 <= len(rows) <= 30
        assert rows[0]["margin"] == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_matches_library(self, capsys, fmt):
        # what a reader re-parses must carry every grid point and the
        # library's exact worst margin
        status, out, _ = run_cli(
            capsys, "--format", fmt, "scan", "--lo", "2.72", "--hi", "40",
            "--bound", "affine:0.5,0.6633",
        )
        assert status == 0
        if fmt == "json":
            rows = json.loads(out)["rows"]
            margins = [row["margin"] for row in rows]
        else:
            _, rows = parse_csv(out)
            margins = [float(row["margin"]) for row in rows]
        report = scan_interval(ScanConfig(t_lo=2.72, t_hi=40.0), bound=(0.5, 0.6633))
        assert len(rows) == len(report.t)
        assert min(margins) == report.min_margin

    def test_workers_below_one_is_usage_error(self, capsys):
        status, _, err = run_cli(
            capsys, "scan", "--lo", "2.72", "--hi", "3.0", "--workers", "-1",
        )
        assert status == 2
        assert "workers" in err


class TestBlankCells:
    def test_table3_blank_v(self, capsys):
        _, out, _ = run_cli(capsys, "table3", "--t0", "100", "--t0", "1e15")
        header, first, _ = out.splitlines()
        assert header.split() == ["t0", "v", "v_tilde"]
        assert first.split() == ["100", "0.6440"]  # three columns, v blank
        _, csv_out, _ = run_cli(capsys, "--format", "csv", "table3", "--t0", "100")
        _, rows = parse_csv(csv_out)
        assert rows[0]["v"] == ""

    def test_scan_without_bound_blank_margin(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "table", "scan", "--lo", "2.72", "--hi", "2.8")
        lines = out.splitlines()
        assert lines[0].split()[-1] == "margin"
        assert all(len(line.split()) == 4 for line in lines[1:])
        _, json_out, _ = run_cli(capsys, "--format", "json", "scan", "--lo", "2.72",
                                 "--hi", "2.8")
        rows = json.loads(json_out)["rows"]
        assert len(rows) == len(lines) - 1
        assert all(row["margin"] is None for row in rows)


class TestNonFiniteInputs:
    # exit 1 means "bound violated", so these must not escape as tracebacks
    def test_eval_infinite_t_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "eval", "--t", "inf")
        assert status == 2
        assert "finite" in err

    def test_eval_huge_t_is_resource_error(self, capsys):
        status, _, err = run_cli(capsys, "eval", "--t", "1e300")
        assert status == 3
        assert "charges 3.183e+299 kernel passes, over the budget" in err

    def test_scan_infinite_hi_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "scan", "--lo", "2.72", "--hi", "inf")
        assert status == 2
        assert "finite" in err

    @pytest.mark.parametrize("spec", ["vlog:nan", "affine:nan,0", "affine:0.5,inf"])
    def test_scan_non_finite_bound_is_usage_error(self, capsys, spec):
        status, out, err = run_cli(capsys, "scan", "--lo", "2.72", "--hi", "20",
                                   "--bound", spec)
        assert status == 2 and out == ""
        assert "finite" in err

    def test_scan_nan_budget_is_usage_error(self, capsys):
        # a grid the default budget refuses at once (exit 3)
        status, _, err = run_cli(capsys, "scan", "--lo", "2.72", "--hi", "1e6",
                                 "--h", "1e-9", "--budget", "nan")
        assert status == 2
        assert "budget" in err

    @pytest.mark.parametrize("table", ["table1", "table2", "table3"])
    def test_table_infinite_t0_is_usage_error(self, capsys, table):
        status, out, err = run_cli(capsys, "--format", "json", table, "--t0", "inf")
        assert status == 2 and out == ""
        assert "--t0" in err and "finite" in err


class TestBudgetRefusals:
    # refused up front with exit 3, before any large array or long sum
    def test_scan_oversized_grid(self, capsys):
        status, _, err = run_cli(capsys, "scan", "--lo", "2.72", "--hi", "1e6", "--h", "1e-9")
        assert status == 3
        assert "budget" in err

    def test_scan_huge_t(self, capsys):
        status, _, err = run_cli(capsys, "scan", "--lo", "1e300", "--hi", "2e300", "--h", "1")
        assert status == 3
        assert "budget" in err

    def test_out_of_memory_is_resource_error(self, capsys, monkeypatch):
        # a grid under the budget can still outgrow memory, in the scan or
        # while its rows are rendered
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(verifier, "scan_interval", exhausted)
        status, _, err = run_cli(capsys, "scan", "--lo", "2.72", "--hi", "10")
        assert (status, err) == (3, "error: out of memory\n")
        monkeypatch.undo()
        monkeypatch.setitem(cli._RENDERERS, "csv", exhausted)
        status, out, _ = run_cli(capsys, "scan", "--lo", "2.72", "--hi", "3")
        assert status == 3 and out == ""

    def test_scan_over_physical_memory(self, capsys, monkeypatch):
        # 7.28e8 points are under the default budget, but their arrays are
        # not under physical memory, here read as 8 GiB
        monkeypatch.setattr(verifier, "_physical_memory", lambda: float(8 << 30))
        status, out, err = run_cli(capsys, "scan", "--lo", "2.72", "--hi", "10", "--h", "1e-8")
        assert status == 3 and out == ""
        assert "physical memory" in err

    def test_infinite_budget_grid_out_of_memory(self, capsys):
        # --budget inf counts nothing: the 1e15 + 1 point grid fails as it
        # is built, with the exit of a run out of memory
        status, out, err = run_cli(
            capsys, "scan", "--lo", "1e15", "--hi", "2e15", "--h", "1", "--budget", "inf",
        )
        assert status == 3 and out == ""
        assert err.startswith("error: ")

    def test_eval_head_over_budget(self, capsys):
        # N = 1.8e15 is representable, but the head is a = 1e12 terms
        status, _, err = run_cli(capsys, "eval", "--t", "1e12", "--r", "1e-8")
        assert status == 3
        assert "budget" in err


class TestFigures:
    def test_c0_endpoint(self, capsys):
        status, out, _ = run_cli(capsys, "figures", "c0")
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1001
        assert float(rows[-1]["p"]) == 1.0
        assert float(rows[-1]["y"]) == pytest.approx(0.5, abs=1e-12)

    def test_c1_sigma1_endpoint(self, capsys):
        status, out, _ = run_cli(capsys, "figures", "c1-sigma1")
        _, rows = parse_csv(out)
        assert float(rows[-1]["y"]) == pytest.approx(0.0932, abs=1e-4)

    def test_unknown_figure(self, capsys):
        status, _, err = run_cli(capsys, "figures", "nope")
        assert status == 2
        assert "unknown figure" in err


class TestConstants:
    def test_rows(self, capsys):
        status, out, _ = run_cli(capsys, "constants")
        assert status == 0
        assert "4.9443" in out       # lambda1
        assert "-0.3417" in out      # gamma - (1/2) log 2 pi
        assert "0.5000" in out       # b0
        assert "0.0173" in out and "0.0932" in out


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "zetabound.cli", "eval", "--t", "17.7477"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.splitlines()
        assert header.split() == ["t", "real", "imag", "modulus", "err", "n_terms"]
        assert len(rows) == 1 and rows[0].split()[0] == "17.7477"

    def test_import_loads_no_scipy(self):
        # every command pays the import; the package's quadratures are numpy rules
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, zetabound.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
