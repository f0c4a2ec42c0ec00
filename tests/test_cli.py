import csv
import io
import json
import math
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hydromom.cli import main, table_grid_csv
from hydromom.exact import parse_exact

GOLDEN = Path(__file__).parent / "data" / "table_n6.csv"
VERIFY_N22_EXACT = Path(__file__).parent / "data" / "verify_n22_exact.txt"


def run_cli(*argv):
    """The module entry point in a fresh interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "hydromom.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(*argv):
    """``main(argv)`` in process with stdout and stderr captured, as run_cli."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestTable:
    def test_golden_file_byte_identical(self):
        code, out, _ = run_cli("table", "--nmax", "6")
        assert code == 0
        assert out.encode() == GOLDEN.read_bytes()

    def test_nmax_one(self):
        code, out, _ = run_main("table", "--nmax", "1")
        assert code == 0
        assert out == "l/n,1\n0,32/3\n"

    def test_grid_round_trips(self, table_n6):
        text = table_grid_csv(6)
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        assert header[0] == "l/n"
        for row in rows[1:]:
            l = int(row[0])
            for col, cell in enumerate(row[1:], start=1):
                n = int(header[col])
                if cell == "-":
                    assert l > n - 1
                else:
                    assert parse_exact(cell).coefficient == table_n6[(n, l)]

    def test_extended_grid_self_consistent(self):
        # n = 7, 8 entries go beyond any published grid; the two independent
        # series pin them against each other.
        from hydromom.invp import inv_p_series_compact, inv_p_series_connection

        code, out, _ = run_main("table", "--nmax", "8")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        for row in rows[1:]:
            l = int(row[0])
            for col, cell in enumerate(row[1:], start=1):
                n = int(rows[0][col])
                if cell == "-" or n <= 6:
                    continue
                value = parse_exact(cell).coefficient
                assert inv_p_series_compact(n, l).times_two_pi().coefficient == value
                assert inv_p_series_connection(n, l).times_two_pi().coefficient == value

    def test_json_and_csv_encode_identical_data(self, table_n6):
        code, out_json, _ = run_main("table", "--nmax", "4", "--format", "json")
        assert code == 0
        records = json.loads(out_json)
        code, out_csv, _ = run_main("table", "--nmax", "4", "--float")
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(records) == len(csv_rows) == 10
        for rec, row in zip(records, csv_rows):
            assert str(rec["n"]) == row["n"] and str(rec["l"]) == row["l"]
            assert rec["value_exact"] == row["value_exact"]
            assert parse_exact(rec["value_exact"]).coefficient == table_n6[(rec["n"], rec["l"])]
            assert rec["method"] == row["method"] == "recurrence"

    def test_float_column_agrees_with_exact(self):
        code, out, _ = run_main("table", "--nmax", "5", "--float")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            exact = parse_exact(row["value_exact"]).to_float()
            assert float(row["value_float"]) == pytest.approx(exact, rel=1e-15)


class TestExpect:
    def test_invp_table_units(self):
        code, out, _ = run_main("expect", "--n", "1", "--l", "0", "--f", "invp")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["value_exact"] == "32/3"
        assert float(row["value_float"]) == pytest.approx(32.0 / 3.0, rel=1e-14)
        assert row["method"] == "series-compact"

    def test_invp_dimensionless(self):
        code, out, _ = run_main(
            "expect", "--n", "1", "--l", "0", "--f", "invp", "--units", "dimensionless"
        )
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["value_exact"] == "16/3*pi^-1"
        assert float(row["value_float"]) == pytest.approx(1.697653, abs=1e-6)

    def test_normalization_moment(self):
        code, out, _ = run_main("expect", "--n", "3", "--l", "1", "--f", "one")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["value_float"]) == pytest.approx(1.0, abs=1e-10)

    def test_invp_physical_units(self):
        # <1/P> = (n a/hbar) <hk/P>; float-only (no exact field) with scales.
        code, out, _ = run_main(
            "expect", "--n", "2", "--l", "1", "--f", "invp",
            "--units", "physical", "--bohr-radius", "2.0", "--hbar", "0.5",
        )
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["value_exact"] == ""
        expected = 2 * 2.0 / 0.5 * 64.0 / (15.0 * math.pi)
        assert float(row["value_float"]) == pytest.approx(expected, rel=1e-12)

    def test_error_estimate_present(self):
        code, out, _ = run_main("expect", "--n", "2", "--l", "1", "--f", "p2")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["err_estimate"]) < 1e-9

    @pytest.mark.parametrize("extra", [(), ("--f", "one")])
    def test_float_overflow_is_arithmetic_failure(self, extra):
        # The x-form's float C^2 overflows at (500, 250): no inf row, exit 3.
        code, out, err = run_main("expect", "--n", "500", "--l", "250", *extra)
        assert code == 3
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("arithmetic failure (OverflowError): "), err

    def test_invalid_state_is_usage_error(self):
        code, _, err = run_cli("expect", "--n", "2", "--l", "5")
        assert code == 2

    def test_no_tolerance_option(self):
        # Both routes are exact Gauss-Jacobi rules that never read a
        # tolerance, so expect offers none.
        code, out, err = run_cli("expect", "--n", "7", "--l", "2", "--tol", "1e-3")
        assert code == 2 and out == "" and "--tol" in err


class TestVerify:
    def test_default_all_pass(self):
        code, out, _ = run_main("verify", "--nmax", "6")
        assert code == 0
        statuses = [line.split()[0] for line in out.strip().splitlines()]
        assert "FAIL" not in statuses
        assert statuses.count("PASS") >= 7
        assert "PASS recurrence-family: n <= 6, all l" in out

    def test_known_errata_reported_not_failed(self):
        code, out, _ = run_main("verify", "--nmax", "4")
        assert code == 0
        assert "KNOWN-ERRATUM alternating-sum-misprint" in out
        assert "2 - 4/(3 pi)" in out
        assert "KNOWN-ERRATUM table-entry-misprint" in out

    def test_injected_error_fails_with_location(self):
        code, out, _ = run_cli("verify", "--nmax", "6", "--inject-error", "5,2")
        assert code == 1
        assert "FAIL dual-series-equivalence" in out
        assert "(n=5, l=2)" in out
        assert "PASS recurrence-family" in out  # compared with the unperturbed values

    def test_exact_suite_lines_byte_identical(self):
        # Every exactly decided line of `verify --nmax 22`, pinned; the float
        # quadrature lines are left out, so their routes may change.
        exact = (
            "dual-series-equivalence",
            "recurrence-family",
            "closed-form-specialization",
            "sum-rule-",
            "weight-shift-reconstruction",
        )
        code, out, _ = run_main("verify", "--nmax", "22")
        assert code == 0
        lines = [line for line in out.splitlines(keepends=True) if line.split()[1].startswith(exact)]
        assert "".join(lines).encode() == VERIFY_N22_EXACT.read_bytes()


class TestAsympt:
    def test_lambda_regime(self):
        code, out, _ = run_main("asympt", "--regime", "lambda", "--lam", "0.5", "--n-max", "200")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["estimate"]) == pytest.approx(1.975, abs=0.01)

    def test_swave_regime(self):
        code, out, _ = run_main("asympt", "--regime", "swave", "--n", "3")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["estimate"]) == pytest.approx(3.2504, abs=1e-3)
        assert float(row["rel_error"]) < 2e-4

    def test_near_circular_regime(self):
        code, out, _ = run_main("asympt", "--regime", "near-circular", "--n", "32", "--delta", "1")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["estimate"]) == pytest.approx(1.0 + 9.0 / 128.0, rel=1e-12)

    def test_small_ell_regime(self):
        code, out, _ = run_main("asympt", "--regime", "small-ell", "--n", "100", "--l", "2")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["n"], row["l"]) == ("100", "2")
        assert float(row["rel_error"]) < 1e-6


class TestShift:
    def test_zero_coupling(self):
        code, out, _ = run_main("shift", "--n", "3", "--l", "1", "--b", "0")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["energy_shift"]) == 0.0

    def test_ground_state(self):
        code, out, _ = run_main("shift", "--n", "1", "--l", "0", "--b", "1e-6")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["energy_shift"]) == pytest.approx(-16e-6 / (3 * math.pi), rel=1e-12)
        assert float(row["inv_p"]) == pytest.approx(16.0 / (3 * math.pi), rel=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("--bohr-radius", "1e300", "--hbar", "1e-300"), id="inv-p-inf"),
            pytest.param(("--alpha", "1e200", "--b", "1e200"), id="shift-neg-inf"),
        ],
    )
    def test_overflow_is_arithmetic_failure(self, argv):
        # Valid scales whose product leaves the double range: no inf or NaN row.
        code, out, err = run_main("shift", "--n", "1", "--l", "0", *argv)
        assert code == 3
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("arithmetic failure (OverflowError): "), err


class TestWavefn:
    def test_momentum_sampling(self):
        code, out, _ = run_main("wavefn", "--n", "1", "--l", "0", "--points", "5", "--max", "4")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        kap = 1.0
        k = float(rows[2]["grid_value"])
        expected = 16.0 * math.pi / (k * k + kap * kap) ** 2
        assert float(rows[2]["amplitude"]) == pytest.approx(expected, rel=1e-12)

    def test_position_sampling(self):
        code, out, _ = run_main(
            "wavefn", "--n", "1", "--l", "0", "--space", "position", "--points", "3", "--max", "2"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        r = float(rows[1]["grid_value"])
        assert float(rows[1]["amplitude"]) == pytest.approx(2.0 * math.exp(-r), rel=1e-12)

    def test_log_grid(self):
        code, out, _ = run_main(
            "wavefn", "--n", "2", "--l", "1", "--grid", "log", "--min", "0.01", "--max", "10", "--points", "7"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        grid = [float(r["grid_value"]) for r in rows]
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_log_grid_start_stays_below_max(self):
        # An unset --min starts the log grid at 1e-3, or at --max when that is smaller.
        code, out, _ = run_main(
            "wavefn", "--n", "1", "--l", "0", "--grid", "log", "--max", "0.0005", "--points", "3"
        )
        grid = [float(r["grid_value"]) for r in csv.DictReader(io.StringIO(out))]
        assert code == 0 and grid == pytest.approx([0.0005] * 3, rel=1e-12)

    def test_log_grid_needs_positive_max(self):
        code, out, err = run_main("wavefn", "--n", "1", "--l", "0", "--grid", "log", "--max", "0")
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--max" in lines[0], err

    @pytest.mark.parametrize("space", ["momentum", "position"])
    def test_large_state_at_own_scale(self, space):
        # At (200, 100) the old float factorials underflowed every amplitude to 0.
        code, out, err = run_main("wavefn", "--n", "200", "--l", "100", "--points", "200", "--space", space)
        amplitudes = [float(r["amplitude"]) for r in csv.DictReader(io.StringIO(out))]
        assert code == 0 and err == ""
        assert all(math.isfinite(a) for a in amplitudes) and any(a != 0.0 for a in amplitudes)


class TestUsageErrors:
    # Each is refused before any output: exit 2, one "error:" line, no traceback.
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("table", "--nmax", "0"), id="table-nmax-0"),
            pytest.param(("verify", "--nmax", "0"), id="verify-nmax-0"),
            pytest.param(("wavefn", "--n", "1", "--l", "0", "--points", "0"), id="wavefn-points-0"),
            pytest.param(("wavefn", "--n", "1", "--l", "0", "--max", "nan"), id="wavefn-max-nan"),
            pytest.param(("wavefn", "--n", "1", "--l", "0", "--min=-inf"), id="wavefn-min-neg-inf"),
            pytest.param(("wavefn", "--n", "1", "--l", "0", "--grid", "log", "--max", "-1"), id="wavefn-log-max-neg"),
            pytest.param(("wavefn", "--n", "1", "--l", "0", "--min", "-1"), id="wavefn-min-neg"),
            pytest.param(("wavefn", "--n", "1", "--l", "0", "--min", "3", "--max", "2"), id="wavefn-max-below-min"),
            pytest.param(
                ("expect", "--n", "2", "--l", "1", "--units", "physical", "--bohr-radius", "nan"),
                id="expect-bohr-radius-nan",
            ),
            pytest.param(("shift", "--n", "2", "--l", "1", "--alpha", "nan", "--b", "1e-3"), id="shift-alpha-nan"),
            pytest.param(("shift", "--n", "2", "--l", "1", "--hbar", "inf"), id="shift-hbar-inf"),
            pytest.param(("shift", "--n", "2", "--l", "1", "--b", "nan"), id="shift-b-nan"),
            pytest.param(("wavefn", "--n", "2", "--l", "1", "--bohr-radius", "nan"), id="wavefn-bohr-radius-nan"),
            pytest.param(("verify", "--nmax", "4", "--inject-error", "9,2"), id="verify-inject-past-nmax"),
            pytest.param(("verify", "--nmax", "4", "--inject-error", "3,7"), id="verify-inject-invalid-state"),
            pytest.param(("verify", "--nmax", "2", "--tol", "nan"), id="verify-tol-nan"),
            pytest.param(("verify", "--nmax", "2", "--tol=-1"), id="verify-tol-neg"),
            pytest.param(("verify", "--nmax", "2", "--tol", "0"), id="verify-tol-0"),
            pytest.param(("verify", "--nmax", "2", "--tol", "inf"), id="verify-tol-inf"),
            pytest.param(("asympt", "--regime", "lambda", "--lam", "inf"), id="asympt-lam-inf"),
        ],
    )
    def test_rejected_before_any_output(self, argv):
        code, out, err = run_main(*argv)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestInProcessMain:
    def test_main_returns_exit_code(self, capsys):
        assert main(["table", "--nmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "256/15" in out

    def test_usage_error_from_bad_value(self, capsys):
        assert main(["expect", "--n", "0", "--l", "0"]) == 2

    def test_non_convergence_exit_code(self, monkeypatch, capsys):
        import hydromom.cli as cli
        from hydromom.quadrature import ConvergenceError

        def blow_up(*args, **kwargs):
            raise ConvergenceError("simulated stall", 0.1)

        monkeypatch.setattr(cli, "lambda_limit", blow_up)
        assert main(["asympt", "--regime", "lambda", "--lam", "0.5"]) == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_consecutive_calls_match_fresh_processes(self):
        # One parser serves every call in a process; an appended --n list or
        # any other parsed value must not carry over into the next call.
        import hydromom.cli as cli

        assert cli._parser() is cli._parser()
        calls = (
            ("asympt", "--regime", "swave", "--n", "5", "--n", "7"),
            ("asympt", "--regime", "swave"),
            ("table",),
        )
        for argv in calls:
            assert run_main(*argv) == run_cli(*argv)

    @pytest.mark.parametrize(
        "argv, lines_read",
        [(("table", "--nmax", "80", "--float"), 1), (("verify", "--nmax", "4"), 0)],
        ids=["table-head-1", "verify-reader-gone"],
    )
    def test_closed_pipe_exits_quietly(self, argv, lines_read):
        # A reader that stops early (`| head -1`) took what it wanted: exit 0,
        # no traceback.  The table is larger than a pipe buffer, so its writer
        # is still blocked when the pipe closes.
        proc = subprocess.Popen(
            [sys.executable, "-m", "hydromom.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == ""

    def test_arithmetic_failure_is_not_identity_failure(self):
        # n + l past the float factorial range: the quadrature weight comes
        # from an exact integer ratio, so the row is computed and nothing is
        # reported.
        code, _, err = run_main("expect", "--n", "180", "--l", "5")
        assert code == 0
        assert err == ""

    def test_common_commands_load_no_scipy(self):
        # scipy costs most of a cold start and is needed only by the
        # quadrature shadows; the commands that never reach them must not
        # import it.
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            from hydromom.cli import main
            calls = (
                ("table", "--nmax", "6"),
                ("asympt", "--regime", "swave"),
                ("shift", "--n", "3", "--l", "1"),
                ("wavefn", "--n", "3", "--l", "1", "--space", "momentum"),
                ("wavefn", "--n", "3", "--l", "1", "--space", "position"),
            )
            for argv in calls:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(list(argv)) == 0, argv
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
