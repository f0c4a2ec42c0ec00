"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import run
from tracing import LAYERS, Span, layer_times
from workloads import GOLDEN_TABLE, MIN_ROUNDS, WORKLOADS, CliRun, Op, Raised, check_round, execute


def _rounds(name, seed, count):
    return [WORKLOADS[name].round(seed, r) for r in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name):
    assert _rounds(name, 7, 2) == _rounds(name, 7, 2)
    assert _rounds(name, 7, 2) != _rounds(name, 8, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_every_run_times_at_least_100_ops(name, seed):
    assert run.TRACE_ROUNDS >= MIN_ROUNDS
    assert sum(len(ops) for ops in _rounds(name, seed, MIN_ROUNDS)) >= 100


def test_ray_never_repeats_a_state_within_a_run():
    ops = [op for ops in _rounds("ray", 3, 11) for op in ops]
    for kind in ("inv_p_exact", "inv_p_series_connection", "sum_rule_even", "sum_rule_alternating", "lambda_limit"):
        args = [op.args for op in ops if op.kind == kind]
        assert len(args) == len(set(args)), kind


def test_checker_fails_verify_with_injected_error():
    good = Op("cli", ("verify", "--nmax", "6"))
    bad = Op("cli", ("verify", "--nmax", "6", "--inject-error", "5,2"))
    results = [execute(good), execute(bad)]
    assert results[1].code == 1
    assert [v.ok for v in check_round([good, bad], results)] == [True, False]


def test_checker_fails_a_perturbed_fraction():
    exact, conn = Op("inv_p_exact", (30, 7)), Op("inv_p_series_connection", (30, 7))
    value = execute(exact)
    assert all(v.ok for v in check_round([exact, conn], [value, execute(conn)]))
    perturbed = value.scale(Fraction(1000001, 1000000))
    assert not any(v.ok for v in check_round([exact, conn], [value, perturbed]))

    rule = Op("sum_rule_even", (9,))
    lhs, rhs = execute(rule)
    assert check_round([rule], [(lhs, rhs)])[0].ok
    assert not check_round([rule], [(lhs, rhs.scale(Fraction(1000001, 1000000)))])[0].ok


def test_checker_fails_the_table_misprint():
    golden = Op("cli", ("table", "--nmax", "6"))
    text = GOLDEN_TABLE.read_text(encoding="utf-8")
    assert check_round([golden], [CliRun(0, text)])[0].ok
    misprint = text.replace("299008/24255", "299088/24255")
    assert not check_round([golden], [CliRun(0, misprint)])[0].ok
    longer = Op("cli", ("table", "--nmax", "6", "--float"))
    out = execute(longer).out
    assert check_round([longer], [CliRun(0, out)])[0].ok
    assert not check_round([longer], [CliRun(0, out.replace("299008/24255", "299088/24255"))])[0].ok


def test_checker_fails_exceptions_exit_codes_and_bad_amplitudes():
    op = Op("momentum_radial", (3, 1, 1.0))
    good = execute(op)
    assert check_round([op], [good])[0].ok
    assert not check_round([op], [np.where(good > 0, np.nan, good)])[0].ok
    assert not check_round([op], [np.zeros_like(good)])[0].ok
    assert not check_round([op], [Raised(OverflowError("x"))])[0].ok
    shift = Op("cli", ("shift", "--n", "2", "--l", "1"))
    assert not check_round([shift], [CliRun(3, "")])[0].ok


def test_self_time_on_a_synthetic_nested_trace():
    spans = [
        Span("op", "op", 0.0, 10.0, -1, 0),
        Span("invp", "outer", 1.0, 9.0, 0, 0),
        Span("exact", "e", 2.0, 4.0, 1, 0),
        Span("invp", "inner", 5.0, 8.0, 1, 0),
        Span("specfun", "s", 6.0, 7.0, 3, 0),
        Span("specfun", "other op", 20.0, 21.0, -1, 1),
    ]
    stats = layer_times(spans, {0})
    assert stats["invp"] == {"calls": 2, "busy_s": 8.0, "self_s": 3.0 + 2.0}
    assert stats["exact"] == {"calls": 1, "busy_s": 2.0, "self_s": 2.0}
    assert stats["specfun"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert stats["op"]["self_s"] == 2.0
    assert sum(s["self_s"] for s in stats.values()) == 10.0


def test_import_split_takes_outermost_entries():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:       400 |        400 |       scipy.special",
            "import time:        50 |        450 |     scipy",
            "import time:        10 |        760 |   hydromom",
            "import time:        20 |        780 | hydromom.cli",
            "import time:         5 |          5 | numpy.extra",
        ]
    )
    assert run.import_split(text) == pytest.approx(
        {"import.scipy_s": 450e-6, "import.numpy_s": 305e-6, "import.hydromom_s": 780e-6}
    )


def test_traced_run_reports_layers_whose_self_times_fit_in_the_wall_time():
    proc = subprocess.run(
        [sys.executable, str(run.WORKER), "--workload", "shadow", "--seed", "1", "--rounds", "1", "--trace"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = report["layers"]
    assert report["failed"] == 0
    assert layers["quadrature.calls"] > 0 and layers["specfun.calls"] > 0
    assert sum(layers[f"{name}.self_s"] for name in LAYERS) <= sum(report["raw_round_wall_s"])
