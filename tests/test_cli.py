import argparse
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from hydromom import cli, invp
from hydromom.cli import main, table_grid_csv
from hydromom.exact import PiGradedRational, format_exact, parse_exact
from hydromom.invp import inv_p_exact
from hydromom.sumrules import sum_rule_alternating, sum_rule_even

GOLDEN = Path(__file__).parent / "data" / "table_n6.csv"
PI = Fraction(3141592653589793238462643383279502884197169399375105820974944, 10**60)
VERIFY_N22_EXACT = Path(__file__).parent / "data" / "verify_n22_exact.txt"
# Long-format goldens: every byte of _emit's JSON and CSV writers, and of the float column.
LONG_GOLDENS = {
    "table_n12.json": ("table", "--nmax", "12", "--format", "json"),
    "table_n12_float_dimensionless.csv": ("table", "--nmax", "12", "--float", "--units", "dimensionless"),
}

# sha256 of `table --nmax 40` in every format and both units, taken while the
# table still went through inv_p_family, PiGradedRational and json's indent encoder.
TABLE_N40_SHA256 = {
    ("--units", "table"): "340c73174c7f6032e66e05fecd45f2e5b9bd1b30b7f5dda2725ed4913d4dac43",
    ("--units", "table", "--format", "json"): "1ab853c618e2aeb4cf6a50d38f628c1815befb6e7ef306fb49f53756101d2e3e",
    ("--units", "table", "--float"): "acc4bb2aa7be7b820ebba769e791ef99833b67e1194d3d69ec577456f4bec740",
    ("--units", "dimensionless"): "e04edb9d1c60498b503be5eb22ee55785bde9e87d8a7d0377b63e659a162f2f4",
    ("--units", "dimensionless", "--format", "json"): "007d8a4722fa6e774ba7479838b9de13bcd2eb8fa4be6da76124cb6d8a334712",
    ("--units", "dimensionless", "--float"): "b87d9b405bfaab06a8a4e929e98413924caa480786a1a447b308f4e5c88d55ba",
}


def _argv_id(argv):
    """A test id without spaces: ("--nmax", "7") -> "nmax_7"."""
    return "_".join(arg.lstrip("-") for arg in argv)


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

    @pytest.mark.parametrize("name", sorted(LONG_GOLDENS))
    def test_long_format_golden_byte_identical(self, name):
        code, out, _ = run_main(*LONG_GOLDENS[name])
        assert code == 0
        assert out.encode() == (GOLDEN.parent / name).read_bytes()

    @pytest.mark.parametrize("args", sorted(TABLE_N40_SHA256), ids=_argv_id)
    def test_nmax_40_pinned(self, args):
        code, out, _ = run_main("table", "--nmax", "40", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_N40_SHA256[args]

    @pytest.mark.parametrize("units", ["table", "dimensionless"])
    def test_cells_from_pairs(self, monkeypatch, units):
        # Every family pair met so far has an odd q (all n <= 200), so three
        # pairs with even q, one of them q = 2, join each family here.
        extra = [(3, 4), (5, 2), (-7, 12)]
        family_pairs = cli._family_pairs
        monkeypatch.setattr(cli, "_family_pairs", lambda n: family_pairs(n) + extra)
        for n in (1, 2, 5, 17):
            pairs = family_pairs(n) + extra
            assert {q % 2 for _, q in pairs} == {0, 1}
            values = [PiGradedRational(Fraction(p, q), -1) for p, q in pairs]
            if units == "table":
                values = [v.times_two_pi() for v in values]
            cells = cli._table_cells(n, units)
            assert cells == [(v.coefficient.numerator, v.coefficient.denominator, v.pi_power) for v in values]
            assert [cli._pair_text(*cell) for cell in cells] == [format_exact(v) for v in values]
            assert [cli._pair_float(*cell) for cell in cells] == [v.to_float() for v in values]

    def test_repeat_runs_read_the_family_memo(self):
        # The first table builds and keeps each family up to n = 40; the
        # second, the golden grid and the sum rules read them from the memo,
        # and the sum rules past n = 40 build theirs on the first pass and
        # read them on the second.
        invp._family_memo.cache_clear()
        first = run_main("table", "--nmax", "40")
        assert invp._family_memo.cache_info().currsize == 40
        assert run_main("table", "--nmax", "40") == first
        code, out, _ = run_main("table", "--nmax", "6")
        assert code == 0 and out.encode() == GOLDEN.read_bytes()
        for _ in range(2):
            for n in range(1, 61):
                for rule in (sum_rule_even, sum_rule_alternating):
                    lhs, rhs = rule(n)
                    assert lhs == rhs, (rule.__name__, n)
        assert invp._family_memo.cache_info().currsize == 60

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


# Commands of every subcommand that writes rows; each format's contract is checked on them.
EMITTING_COMMANDS = [
    ("table", "--nmax", "7"),
    ("table", "--nmax", "7", "--units", "dimensionless"),
    ("table", "--nmax", "5", "--float"),
    ("expect", "--n", "5", "--l", "2"),
    ("expect", "--n", "4", "--l", "1", "--f", "p2"),
    ("asympt", "--regime", "swave"),
    ("asympt", "--regime", "lambda", "--lam", "0.25", "--n-max", "200"),
    ("shift", "--n", "3", "--l", "1", "--b", "1e-6"),
    ("wavefn", "--n", "3", "--l", "1", "--points", "9"),
]


def _spy_emit(monkeypatch):
    """Record each ``_emit`` call's (keys, rows) and pass it on."""
    seen, emit = [], cli._emit

    def spy(keys, rows, fmt, stream):
        seen.append((keys, rows))
        emit(keys, rows, fmt, stream)

    monkeypatch.setattr(cli, "_emit", spy)
    return seen


class TestJsonEmitter:
    # _emit writes JSON through the C encoder and fills a record template;
    # every byte must be what json's own indent encoder writes.
    @pytest.mark.parametrize("argv", EMITTING_COMMANDS, ids=_argv_id)
    def test_every_command_matches_the_indent_encoder(self, monkeypatch, argv):
        seen = _spy_emit(monkeypatch)
        code, out, _ = run_main(*argv, "--format", "json")
        assert code == 0 and len(seen) == 1
        keys, rows = seen[0]
        assert out == json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"

    @pytest.mark.parametrize(
        "keys, rows",
        [
            (("n", "l", "value_exact"), [(1, 0, "32/3")]),
            (
                ("quote", "backslash", "newline", "tab", "text", "int", "float", "true", "false", "none"),
                [
                    ('say "hi"', "a\\b", "},\n    {", "a\tb", "\u0127\u03ba/P \u2014 \u03c0 \U0001d70b",
                     -3, 0.1, True, False, None),
                    ("}", "\\", "\n", "\t", "\u00e9", 10**30, -2.5e-300, True, False, None),
                ],
            ),
            (
                ("nul", "boundary", "percent", "100% %s key"),
                [("\0", "a\0]\0[b", "%s %d 100%", "%"), ("a\0", "]\0[", "%%", "%(x)s")],
            ),
        ],
        ids=["one-record", "escapes-and-scalars", "nul-and-percent"],
    )
    def test_records_match_the_indent_encoder(self, keys, rows):
        stream = io.StringIO()
        cli._emit(keys, rows, "json", stream)
        assert stream.getvalue() == json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"


class TestCsvEmitter:
    # _emit joins CSV fields on ","; every byte must be what csv.writer writes.
    @pytest.mark.parametrize("argv", EMITTING_COMMANDS, ids=_argv_id)
    def test_every_command_matches_the_csv_writer(self, monkeypatch, argv):
        seen = _spy_emit(monkeypatch)
        code, out, _ = run_main(*argv, "--format", "csv")
        assert code == 0 and len(seen) <= 1
        if seen:
            keys, rows = seen[0]
            lines = [keys, *rows]
        else:  # table's grid form is written as text, not through _emit
            lines = [line.split(",") for line in out.splitlines()]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(lines)
        assert out == expected.getvalue()


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

    @pytest.mark.parametrize("n, l", [(3, 1), (5, 2), (12, 0)])
    def test_invp_error_estimate_in_the_value_units(self, n, l):
        # err_estimate scales with value_float: times 2 pi under table, n a/hbar under physical.
        ratios = []
        for units, scales in [("table", ()), ("dimensionless", ()), ("physical", ()),
                              ("physical", ("--bohr-radius", "1e6")), ("physical", ("--hbar", "0.25"))]:
            code, out, _ = run_main("expect", "--n", str(n), "--l", str(l), "--units", units, *scales)
            assert code == 0
            row = next(csv.DictReader(io.StringIO(out)))
            ratios.append(float(row["err_estimate"]) / float(row["value_float"]))
        assert ratios[0] > 0
        assert ratios == pytest.approx([ratios[1]] * len(ratios), rel=1e-12, abs=0)

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

    @pytest.mark.parametrize("extra", [("--f", "p2"), ("--f", "one")])
    def test_float_overflow_is_arithmetic_failure(self, extra):
        # The x form's float C overflows at (1000, 500): no inf row, exit 3.
        # The default --f invp runs no quadrature and is exact there.
        code, out, err = run_main("expect", "--n", "1000", "--l", "500", *extra)
        assert code == 3
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("arithmetic failure (OverflowError): "), err

    def test_rule_past_the_node_limit_is_arithmetic_failure(self, monkeypatch):
        # (5000, 0) at s = 2 needs a 5000-node rule, about 600 MB to build:
        # refused before it is built, with exit 3 and one line.
        from hydromom import specfun

        monkeypatch.setattr(specfun, "_gauss_jacobi", lambda *args: pytest.fail(f"built {args}"))
        code, out, err = run_main("expect", "--n", "5000", "--l", "0", "--f", "p2")
        assert (code, out) == (3, "")
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("arithmetic failure (OverflowError): the 5000-point"), err

    def test_large_state_inside_float_range(self):
        # At (500, 250) the exact row, with the rounding bound of its float
        # as its estimate.
        code, out, err = run_main("expect", "--n", "500", "--l", "250")
        assert (code, err) == (0, "")
        row = next(csv.DictReader(io.StringIO(out)))
        assert parse_exact(row["value_exact"]) == inv_p_exact(500, 250)[0].times_two_pi()
        assert float(row["err_estimate"]) <= 1e-12 * float(row["value_float"])

    @pytest.mark.parametrize("n, l", [(1000, 500), (1000, 194)])
    @pytest.mark.parametrize("units", ["table", "dimensionless"])
    def test_invp_exact_past_the_x_form(self, n, l, units):
        # The x form's float C overflows at these states; --f invp comes
        # from the exact layer alone, so it prints the exact row.
        code, out, err = run_main("expect", "--n", str(n), "--l", str(l), "--units", units)
        assert (code, err) == (0, "")
        row = next(csv.DictReader(io.StringIO(out)))
        exact = inv_p_exact(n, l)[0]
        assert parse_exact(row["value_exact"]) == (exact.times_two_pi() if units == "table" else exact)
        assert float(row["value_float"]) == parse_exact(row["value_exact"]).to_float()

    @pytest.mark.parametrize(
        "units, a, hbar",
        [("table", 1, 1), ("dimensionless", 1, 1), ("physical", 1, 1), ("physical", 2, 0.5), ("physical", 0.3, 1.7)],
    )
    def test_invp_error_estimate_bounds_the_float(self, units, a, hbar):
        # err_estimate bounds |value_float - true value|, the true value being
        # 2 c, c/pi or (n a/hbar) c/pi for <hbar kappa/P> = c/pi, with a and
        # hbar the doubles the options parse to.  PI is good to 60 digits,
        # far below the 1e-16 relative bound.
        states = [(n, l) for n in range(1, 41) for l in range(n)] + [(500, 250), (1000, 500)]
        scales = ("--bohr-radius", repr(a), "--hbar", repr(hbar)) if units == "physical" else ()
        for n, l in states:
            code, out, _ = run_main("expect", "--n", str(n), "--l", str(l), "--units", units, *scales)
            assert code == 0
            row = next(csv.DictReader(io.StringIO(out)))
            c = inv_p_exact(n, l)[0].coefficient
            physical = n * Fraction(a) / Fraction(hbar) * c / PI
            true = {"table": 2 * c, "dimensionless": c / PI, "physical": physical}[units]
            error = abs(Fraction(float(row["value_float"])) - true)
            assert error <= Fraction(float(row["err_estimate"])), (n, l, row)

    def test_physical_underflow_is_arithmetic_failure(self):
        # <1/P> of 5.8e-300 rounds to 0.0: no zero row, exit 3.
        argv = ("--bohr-radius", "1e-300", "--hbar", "1e100", "--units", "physical")
        code, out, err = run_main("expect", "--n", "3", "--l", "1", *argv)
        assert code == 3
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("arithmetic failure (FloatingPointError): "), err

    def test_invalid_state_is_usage_error(self):
        code, _, err = run_cli("expect", "--n", "2", "--l", "5")
        assert code == 2

    def test_no_tolerance_option(self):
        # invp is exact and the moments run one fixed Gauss-Jacobi rule;
        # neither reads a tolerance, so expect offers none.
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

    @pytest.mark.parametrize("nmax", [12, 13, 20, 21, 22])
    def test_float_worst_figures_match_per_state_routes(self, nmax):
        # The float suites run one l-family per n; their worst figures are
        # those of the per-state routes over the caps, n <= 20 for the
        # normalization and n <= 12 for the agreement.
        from hydromom.exact import QuantumState
        from hydromom.quadrature import double_integral_rep, expectation_f, power_moment

        worst_norm = max(
            abs(power_moment(QuantumState(n, l), 0.0).value - 1.0) for n in range(1, min(nmax, 20) + 1) for l in range(n)
        )
        worst = 0.0
        for n in range(1, min(nmax, 12) + 1):
            for l in range(n):
                st, reference = QuantumState(n, l), inv_p_exact(n, l)[0].to_float()
                theta = expectation_f(st, lambda p: 1.0 / p)
                for result in (power_moment(st, -1.0), theta, double_integral_rep(st)):
                    worst = max(worst, abs(result.value / reference - 1.0))
        code, out, _ = run_main("verify", "--nmax", str(nmax))
        assert code == 0
        lines = out.splitlines()
        assert f"PASS normalization: exact and quadrature (worst {worst_norm:.2e})" in lines
        assert f"PASS quadrature-agreement: worst rel {worst:.2e} (tol 1e-09)" in lines

    def test_rules_built(self, monkeypatch):
        # specfun's rule-cache comment: in a fresh cache, verify at nmax 22
        # builds 43 rules, 20 at (1/2, 1/2), 16 Gauss-Legendre and 7 at
        # (0, -1/2).
        from collections import Counter

        from hydromom import specfun

        specfun._gauss_jacobi.cache_clear()
        cached, asked = specfun._gauss_jacobi, set()
        monkeypatch.setattr(specfun, "_gauss_jacobi", lambda *args: asked.add(args) or cached(*args))
        assert run_main("verify", "--nmax", "22")[0] == 0
        assert cached.cache_info().currsize == len(asked) == 43
        assert Counter((a, b) for _, a, b in asked) == {(0.5, 0.5): 20, (0.0, 0.0): 16, (0.0, -0.5): 7}

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

    def test_lambda_printed_is_the_lambda_sampled(self, monkeypatch):
        # 0.3 snaps to 3/10: every state sampled lies on l = lam (n - 1) for
        # the printed lam, or on the 1/2 ray that gives the slope.
        import hydromom.asympt as asympt

        sampled = []
        exact = asympt.inv_p_exact
        monkeypatch.setattr(asympt, "inv_p_exact", lambda n, l: sampled.append((n, l)) or exact(n, l))
        code, out, _ = run_main("asympt", "--regime", "lambda", "--lam", "0.3", "--n-max", "100")
        assert code == 0
        lam = Fraction(next(csv.DictReader(io.StringIO(out)))["lambda"])
        assert lam == Fraction(3, 10)
        assert {Fraction(l, n - 1) for n, l in sampled} == {lam, Fraction(1, 2)}

    def test_swave_regime(self):
        code, out, _ = run_main("asympt", "--regime", "swave", "--n", "3")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["estimate"]) == pytest.approx(3.2504, abs=1e-3)
        assert float(row["rel_error"]) < 2e-4
        assert float(row["rel_error"]) == abs(float(row["estimate"]) / float(row["exact"]) - 1)

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
        # b = 0 is the unperturbed level: an exact zero, not an underflow.
        code, out, _ = run_main("shift", "--n", "3", "--l", "1", "--b", "0")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["energy_shift"] == "-0.0"

    def test_ground_state(self):
        code, out, _ = run_main("shift", "--n", "1", "--l", "0", "--b", "1e-6")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["energy_shift"]) == pytest.approx(-16e-6 / (3 * math.pi), rel=1e-12)
        assert float(row["inv_p"]) == pytest.approx(16.0 / (3 * math.pi), rel=1e-12)

    @pytest.mark.parametrize(
        "argv,error",
        [
            pytest.param(
                ("--n", "1", "--l", "0", "--bohr-radius", "1e300", "--hbar", "1e-300"), "OverflowError", id="inv-p-inf"
            ),
            pytest.param(("--n", "1", "--l", "0", "--alpha", "1e200", "--b", "1e200"), "OverflowError", id="shift-neg-inf"),
            pytest.param(
                ("--n", "3", "--l", "1", "--bohr-radius", "1e-300", "--hbar", "1e100", "--b", "1"),
                "FloatingPointError",
                id="inv-p-zero",
            ),
            pytest.param(
                ("--n", "3", "--l", "1", "--bohr-radius", "1e-320"), "FloatingPointError", id="inv-p-subnormal"
            ),
            pytest.param(
                ("--n", "1", "--l", "0", "--alpha", "1e-200", "--b", "1e-200"), "FloatingPointError", id="shift-zero"
            ),
        ],
    )
    def test_overflow_is_arithmetic_failure(self, argv, error):
        # Valid scales whose product leaves the normal double range: no inf,
        # NaN, zero or subnormal row.
        code, out, err = run_main("shift", *argv)
        assert code == 3
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"arithmetic failure ({error}): "), err


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

    @pytest.mark.parametrize("space", ["momentum", "position"])
    @pytest.mark.parametrize("l", [500, 194])
    def test_non_finite_amplitudes_refused(self, l, space):
        # The float amplitudes overflow here (102 NaN rows at (1000, 500) in
        # momentum space, all 200 in position space): one line, exit 3, no
        # numpy warning and no NaN row.
        code, out, err = run_cli("wavefn", "--n", "1000", "--l", str(l), "--points", "200", "--space", space)
        lines = err.strip().splitlines()
        assert code == 3 and out == ""
        assert len(lines) == 1 and lines[0].startswith("arithmetic failure (OverflowError): "), err
        assert f"l={l}" in lines[0] and "of 200 points" in lines[0]

    def test_memory_exhaustion_exits_3(self, monkeypatch):
        # A grid too large to hold (``--points 1000000000000``) fails inside
        # numpy; the amplitude raises here instead, so no test asks the OS
        # for the memory.
        import hydromom.wavefun as wavefun

        def exhausted(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(wavefun, "momentum_radial", exhausted)
        code, out, err = run_main("wavefn", "--n", "2", "--l", "1")
        assert code == 3 and out == ""
        assert err == "out of memory (MemoryError): Unable to allocate 7.28 TiB\n"

    @pytest.mark.parametrize("space", ["momentum", "position"])
    def test_finite_amplitudes_at_middle_l(self, space):
        code, out, err = run_main("wavefn", "--n", "700", "--l", "350", "--points", "200", "--space", space)
        amplitudes = [float(r["amplitude"]) for r in csv.DictReader(io.StringIO(out))]
        assert code == 0 and err == "" and len(amplitudes) == 200
        assert all(math.isfinite(a) for a in amplitudes)


# Every subcommand's options: option strings -> (dest, type, default, choices,
# required, action).  Options shared by several subcommands are declared once,
# so this table is what each subcommand must still see.
OPTIONS = {
    "table": {
        ("--nmax",): ("nmax", int, 6, None, False, "store"),
        ("--format",): ("format", None, "csv", ["csv", "json"], False, "store"),
        ("--units",): ("units", None, "table", ["table", "dimensionless"], False, "store"),
        ("--float",): ("float", None, False, None, False, "store_true"),
    },
    "expect": {
        ("--n",): ("n", int, None, None, True, "store"),
        ("--l",): ("l", int, None, None, True, "store"),
        ("--f",): ("f", None, "invp", ["invp", "one", "p", "p2"], False, "store"),
        ("--units",): ("units", None, "table", ["table", "dimensionless", "physical"], False, "store"),
        ("--bohr-radius",): ("bohr_radius", float, 1.0, None, False, "store"),
        ("--hbar",): ("hbar", float, 1.0, None, False, "store"),
        ("--format",): ("format", None, "csv", ["csv", "json"], False, "store"),
    },
    "verify": {
        ("--nmax",): ("nmax", int, 10, None, False, "store"),
        ("--tol",): ("tol", float, 1e-09, None, False, "store"),
        ("--inject-error",): ("inject_error", None, None, None, False, "store"),
    },
    "asympt": {
        ("--regime",): ("regime", None, None, ["swave", "small-ell", "near-circular", "lambda"], True, "store"),
        ("--n",): ("n", int, None, None, False, "append"),
        ("--l",): ("l", int, 0, None, False, "store"),
        ("--delta",): ("delta", int, 0, None, False, "store"),
        ("--lam",): ("lam", float, 0.5, None, False, "store"),
        ("--n-max",): ("n_max", int, 400, None, False, "store"),
        ("--format",): ("format", None, "csv", ["csv", "json"], False, "store"),
    },
    "shift": {
        ("--n",): ("n", int, None, None, True, "store"),
        ("--l",): ("l", int, None, None, True, "store"),
        ("--alpha",): ("alpha", float, 1.0, None, False, "store"),
        ("--b",): ("b", float, 0.0, None, False, "store"),
        ("--bohr-radius",): ("bohr_radius", float, 1.0, None, False, "store"),
        ("--hbar",): ("hbar", float, 1.0, None, False, "store"),
        ("--format",): ("format", None, "csv", ["csv", "json"], False, "store"),
    },
    "wavefn": {
        ("--n",): ("n", int, None, None, True, "store"),
        ("--l",): ("l", int, None, None, True, "store"),
        ("--space",): ("space", None, "momentum", ["momentum", "position"], False, "store"),
        ("--grid",): ("grid", None, "uniform", ["uniform", "log"], False, "store"),
        ("--min",): ("min", float, 0.0, None, False, "store"),
        ("--max",): ("max", float, 5.0, None, False, "store"),
        ("--points",): ("points", int, 101, None, False, "store"),
        ("--bohr-radius",): ("bohr_radius", float, 1.0, None, False, "store"),
        ("--format",): ("format", None, "csv", ["csv", "json"], False, "store"),
    },
}


class TestOptions:
    def test_every_subcommand_keeps_its_options(self):
        parser = cli._parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(OPTIONS)
        for name, sp in sub.choices.items():
            seen = {
                tuple(a.option_strings): (a.dest, a.type, a.default, a.choices, a.required, type(a))
                for a in sp._actions
                if not isinstance(a, argparse._HelpAction)
            }
            want = {
                opts: (*spec[:5], sp._registry_get("action", spec[5])) for opts, spec in OPTIONS[name].items()
            }
            assert seen == want, name

    def test_expect_help_says_the_scales_need_physical_units(self):
        code, out, _ = run_cli("expect", "--help")
        assert code == 0
        assert "only --units physical reads --bohr-radius and --hbar" in " ".join(out.split())


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
            pytest.param(("verify", "--nmax", "6", "--inject-error", "3"), id="verify-inject-one-value"),
            pytest.param(("verify", "--nmax", "6", "--inject-error", "1,2,3"), id="verify-inject-three-values"),
            pytest.param(("verify", "--nmax", "6", "--inject-error", "a,b"), id="verify-inject-not-integers"),
            pytest.param(
                ("expect", "--n", "5", "--l", "2", "--f", "p", "--units", "physical", "--bohr-radius", "2"),
                id="expect-p-physical-units",
            ),
            pytest.param(("expect", "--n", "5", "--l", "2", "--f", "one", "--units", "physical"), id="expect-one-physical-units"),
            pytest.param(
                ("expect", "--n", "5", "--l", "2", "--f", "p", "--bohr-radius", "2", "--hbar", "3"),
                id="expect-p-scales",
            ),
            pytest.param(("expect", "--n", "5", "--l", "2", "--bohr-radius", "2"), id="expect-table-units-bohr-radius"),
            pytest.param(
                ("expect", "--n", "5", "--l", "2", "--units", "dimensionless", "--hbar", "3"),
                id="expect-dimensionless-hbar",
            ),
        ],
    )
    def test_rejected_before_any_output(self, argv):
        code, out, err = run_main(*argv)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(("verify", "--nmax", "6", "--inject-error", "3"), ("--inject-error", "N,L"), id="inject-one-value"),
            pytest.param(("verify", "--nmax", "6", "--inject-error", "1,2,3"), ("--inject-error", "N,L"), id="inject-three-values"),
            pytest.param(("verify", "--nmax", "6", "--inject-error", "a,b"), ("--inject-error", "N,L"), id="inject-not-integers"),
            pytest.param(("expect", "--n", "5", "--l", "2", "--f", "p2", "--units", "physical"), ("--units",), id="expect-units"),
            pytest.param(("expect", "--n", "5", "--l", "2", "--hbar", "3"), ("--bohr-radius", "--hbar"), id="expect-scales"),
        ],
    )
    def test_message_names_the_option(self, argv, named):
        _, _, err = run_main(*argv)
        assert all(word in err for word in named), err


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

    @pytest.mark.parametrize(
        "calls, forbidden",
        [
            # scipy is a test-only reference: no module, command, quadrature
            # shadow or the Bessel oracle may import it.
            pytest.param(
                """
                import importlib, pkgutil
                import hydromom

                for info in pkgutil.iter_modules(hydromom.__path__):
                    importlib.import_module(f"hydromom.{info.name}")
                for argv in (
                    ("table", "--nmax", "6"),
                    ("asympt", "--regime", "swave"),
                    ("shift", "--n", "3", "--l", "1"),
                    ("wavefn", "--n", "3", "--l", "1", "--space", "momentum"),
                    ("wavefn", "--n", "3", "--l", "1", "--space", "position"),
                    ("expect", "--n", "5", "--l", "2", "--f", "invp"),
                    ("expect", "--n", "5", "--l", "2", "--f", "p"),
                    ("expect", "--n", "5", "--l", "2", "--f", "p2"),
                    ("expect", "--n", "5", "--l", "2", "--f", "one"),
                    ("verify", "--nmax", "6"),
                ):
                    run(argv)
                from hydromom.exact import QuantumState
                from hydromom.quadrature import inv_p_numeric, power_moment
                from hydromom.wavefun import momentum_radial_numeric

                power_moment(QuantumState(6, 1), 2.0), inv_p_numeric(QuantumState(6, 1))
                momentum_radial_numeric(QuantumState(3, 1), 1.0, 0.5)
                """,
                "scipy",
                id="scipy",
            ),
            # The exact layer needs only the standard library: the package,
            # its exact names, the exact sum rules and the exact-only
            # commands, expect --f invp in every unit included, load no numpy.
            pytest.param(
                """
                import hydromom
                hydromom.inv_p_exact, hydromom.QuantumState, hydromom.PhysicalScales
                for n in (1, 6, 31):
                    for rule in (hydromom.sum_rule_even, hydromom.sum_rule_alternating):
                        lhs, rhs = rule(n)
                        assert lhs == rhs, (rule, n)
                for argv in (
                    ("table", "--nmax", "6"),
                    ("table", "--nmax", "4", "--format", "json"),
                    ("asympt", "--regime", "swave"),
                    ("asympt", "--regime", "lambda", "--n-max", "40"),
                    ("shift", "--n", "3", "--l", "1"),
                    ("expect", "--n", "5", "--l", "2"),
                    ("expect", "--n", "5", "--l", "2", "--f", "invp", "--units", "dimensionless"),
                    ("expect", "--n", "5", "--l", "2", "--units", "physical", "--bohr-radius", "2"),
                    ("expect", "--n", "1000", "--l", "500"),
                ):
                    run(argv)
                """,
                "numpy",
                id="numpy",
            ),
        ],
    )
    def test_common_commands_load_no(self, calls, forbidden):
        script = textwrap.dedent(
            """
            import contextlib, io, sys

            def run(argv):
                from hydromom.cli import main

                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(list(argv)) == 0, argv
            """
        ) + textwrap.dedent(calls) + textwrap.dedent(
            f"""
            print(sorted(m for m in sys.modules if m.split(".")[0] == {forbidden!r}))
            """
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv",
        [("expect", "--n", "5", "--l", "2", "--f", "p2"), ("verify", "--nmax", "6"), ("wavefn", "--n", "3", "--l", "1")],
        ids=_argv_id,
    )
    def test_float_commands_without_numpy_are_usage_errors(self, argv):
        # A fresh interpreter in which numpy cannot be imported: the float
        # commands name it on one error line, exit 2 and print nothing.
        script = 'import sys; sys.modules["numpy"] = None; from hydromom.cli import main; sys.exit(main(sys.argv[1:]))'
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "numpy" in lines[0], proc.stderr
        assert "Traceback" not in proc.stderr
