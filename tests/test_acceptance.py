"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py -v`` to see them).

Criterion 9c asks for the small-l estimate at each l <= 2 within 1% of the
exact value at n = 100.  The exact l = 0, 1, 2 values differ from each other
by 9-30% there, so the estimate has to carry its l-dependent constant
(-H_l, the l-th harmonic number) to meet it; see asympt.small_ell_asymptotic.
"""

import math
import time
from fractions import Fraction

import pytest

from hydromom.asympt import lambda_limit, near_circular_asymptotic, small_ell_asymptotic
from hydromom.exact import PiGradedRational, QuantumState
from hydromom.invp import (
    inv_p_circular,
    inv_p_exact,
    inv_p_near_circular,
    inv_p_series_compact,
    inv_p_series_connection,
    inv_p_swave,
    reconstruction_residual,
)
from hydromom.quadrature import (
    double_integral_rep,
    expectation_f,
    power_moment,
    swave_kernel_integral,
)
from hydromom.specfun import _adaptive_panels
from hydromom.sumrules import alternating_rhs_misprinted, sum_rule_alternating, sum_rule_even
from hydromom.wavefun import (
    generating_closed,
    generating_partial,
    momentum_radial,
    momentum_radial_numeric,
)

import numpy as np


def report(number: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_table_reproduction(table_n6):
    start = time.monotonic()
    ok = True
    for (n, l), want in table_n6.items():
        a = inv_p_series_connection(n, l).times_two_pi()
        b = inv_p_series_compact(n, l).times_two_pi()
        ok = ok and a == b == PiGradedRational(want, 0)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report("1", ok, f"21 exact entries by both series in {elapsed:.2f}s (< 1 s)")
    assert ok
    # The published grid's (5, 2) entry 299088/24255 is a misprint: both
    # series and the n = 5 sum rule pin ...008 (see decisions record).
    assert table_n6[(5, 2)] == Fraction(299008, 24255)


def test_criterion_02_dual_series_equivalence_n40():
    start = time.monotonic()
    count = 0
    for n in range(1, 41):
        for l in range(n):
            assert inv_p_series_connection(n, l) == inv_p_series_compact(n, l)
            count += 1
    elapsed = time.monotonic() - start
    ok = count == 820 and elapsed < 30.0
    report("2", ok, f"{count} states agree exactly in {elapsed:.1f}s (< 30 s)")
    assert ok


def test_criterion_03_closed_form_specialization_n40():
    for n in range(1, 41):
        assert inv_p_swave(n) == inv_p_series_compact(n, 0)
        assert inv_p_circular(n) == inv_p_series_compact(n, n - 1)
        if n >= 2:
            assert inv_p_near_circular(n) == inv_p_series_compact(n, n - 2)
    report("3", True, "S-wave, circular and near-circular closed forms equal the series, n <= 40")


def test_criterion_04_quadrature_agreement():
    worst = 0.0
    for n in range(1, 13):
        for l in range(n):
            st = QuantumState(n, l)
            exact = inv_p_exact(n, l)[0].to_float()
            for result in (power_moment(st, -1.0), expectation_f(st, lambda p: 1.0 / p), double_integral_rep(st)):
                worst = max(worst, abs(result.value / exact - 1.0))
    norm_worst = 0.0
    for n in range(1, 21):
        for l in range(n):
            norm_worst = max(norm_worst, abs(power_moment(QuantumState(n, l), 0.0).value - 1.0))
    ok = worst < 1e-9 and norm_worst < 1e-10
    report(
        "4",
        ok,
        f"both variable forms + double integral rel {worst:.1e} (< 1e-9, n <= 12); "
        f"normalization off by {norm_worst:.1e} (< 1e-10, n <= 20)",
    )
    assert ok


def test_criterion_05_bessel_transform_oracle():
    worst = 0.0
    for n in range(1, 7):
        kappa = 1.0 / n
        for l in range(n):
            st = QuantumState(n, l)
            # Sample momenta chosen off the amplitude's zero set.
            for k in (0.5 * kappa, 1.3 * kappa, 3.0 * kappa):
                direct = momentum_radial_numeric(st, kappa, k)
                closed = momentum_radial(st, kappa, k)
                worst = max(worst, abs(direct / closed - 1.0))
    ok = worst < 1e-6
    report("5", ok, f"radial Bessel transform vs closed form, worst rel {worst:.1e} (< 1e-6)")
    assert ok


def test_criterion_06_plain_sum_rule_n30():
    for n in range(1, 31):
        lhs, rhs = sum_rule_even(n)
        assert lhs == rhs == PiGradedRational(Fraction(16 * n * n, 3), -1)
    spot2 = sum_rule_even(2)[0]
    spot3 = sum_rule_even(3)[0]
    ok = spot2 == PiGradedRational(Fraction(64, 3), -1) and spot3 == PiGradedRational(
        Fraction(48), -1
    )
    report("6", ok, "sum (2l+1)<hk/P> = 16 n^2/(3 pi) exactly for n <= 30; spot n=2, n=3 verified")
    assert ok


def test_criterion_07_alternating_sum_rule_n30():
    for n in range(1, 31):
        lhs, rhs = sum_rule_alternating(n)
        assert lhs == rhs
    # Documented misprint: the full-argument variant equals 2 - 4/(3 pi) at
    # n = 1, against the exact 16/(3 pi).
    inv_pi_part, plain_part = alternating_rhs_misprinted(1)
    printed_value = inv_pi_part.to_float() + plain_part.to_float()
    ok = printed_value == pytest.approx(2.0 - 4.0 / (3.0 * math.pi), rel=1e-13)
    exact_value = sum_rule_alternating(1)[0]
    # Exact-arithmetic refutation: the misprinted right side keeps a stray
    # grade-0 piece and its 1/pi piece is not the true left side either.
    ok = ok and not plain_part.is_zero() and inv_pi_part != exact_value
    ok = ok and abs(printed_value - exact_value.to_float()) > 0.1
    report(
        "7",
        ok,
        "half-argument alternating rule exact for n <= 30; full-argument variant "
        f"= {printed_value:.6f} at n=1 vs exact {exact_value.to_float():.6f} (documented erratum)",
    )
    assert ok


def test_criterion_08_errata_checks():
    # (a) kernel contiguity step against direct quadrature of its
    #     defining integral, plus the misprinted variant's failure.
    worst = 0.0
    for n in range(1, 11):
        def f(theta, n=n):
            s = np.sin(2.0 * n * theta)
            return -np.sin(theta) * np.cos(theta) * s * s

        direct, _ = _adaptive_panels(f, 0.0, math.pi / 2, 1e-12, initial_panels=max(8, 4 * n))
        step = swave_kernel_integral(1, n) - swave_kernel_integral(0, n)
        want = -n * n / (4.0 * n * n - 1.0)
        worst = max(worst, abs(direct - want), abs(step - want))
        assert abs(direct - 4.0 * n * n / (4.0 * n * n - 1.0)) > 1.0
    ok_a = worst < 1e-10

    # (b) circular-state asymptote: the dimensionless 1 + 3/(4n) has
    #     O(1/n^2) error, while the (8 pi a/h)-prefactor variant misses the
    #     physical value by a factor ~4/n.
    ok_b = True
    for n in (8, 16, 32, 64):
        exact = inv_p_circular(n).to_float()
        err = abs(exact - near_circular_asymptotic(n, 0))
        ok_b = ok_b and err * n * n < 2.0
    for n in (16, 32, 64):
        physical = n * inv_p_circular(n).to_float()  # <1/P> at a = hbar = 1
        printed = 4.0 * (1.0 + 3.0 / (4.0 * n))  # the (8 pi a/h) form at a = hbar = 1
        ratio = printed / physical
        ok_b = ok_b and abs(ratio * n / 4.0 - 1.0) < 0.05
    ok = ok_a and ok_b
    report(
        "8",
        ok,
        f"contiguity step -n^2/(4n^2-1) vs integral (worst {worst:.1e} < 1e-10, n <= 10); "
        "dimensionless circular asymptote O(1/n^2), prefactor variant off by ~4/n",
    )
    assert ok


def test_criterion_09a_lambda_limits():
    start = time.monotonic()
    results = {}
    for lam, target, tol in [
        (Fraction(1, 2), 1.975, 0.01),
        (Fraction(1, 4), 2.88, 0.02),
        (Fraction(1, 8), 3.77, 0.02),
    ]:
        value, _ = lambda_limit(lam, 400)
        results[lam] = (value, abs(value - target) <= tol)
    elapsed = time.monotonic() - start
    ok = all(hit for _, hit in results.values()) and elapsed < 120.0
    detail = ", ".join(f"lam={lam}: {value:.4f}" for lam, (value, _) in results.items())
    report("9a", ok, f"{detail} in {elapsed:.1f}s (< 2 min)")
    assert ok


def test_criterion_09b_near_circular_error_halving():
    ok = True
    for delta in (0, 1, 2):
        for n in (16, 32, 64):
            err_n = abs(
                inv_p_exact(n, n - 1 - delta)[0].to_float() - near_circular_asymptotic(n, delta)
            )
            err_2n = abs(
                inv_p_exact(2 * n, 2 * n - 1 - delta)[0].to_float()
                - near_circular_asymptotic(2 * n, delta)
            )
            ok = ok and 3.4 <= err_n / err_2n <= 4.6
    report("9b", ok, "error ratio under n -> 2n inside [3.4, 4.6] for delta in {0, 1, 2}")
    assert ok


def test_criterion_09c_small_ell_estimate_within_1pct():
    # The small-l estimate at each l within 1% of exact at n = 100 for every
    # l <= 2.  The exact values (sum-rule pinned) are 7.727, 6.454, 5.817, so
    # one l-independent number could not match all three.
    gaps = {
        l: abs(small_ell_asymptotic(100, l) / inv_p_exact(100, l)[0].to_float() - 1.0)
        for l in (0, 1, 2)
    }
    ok = all(gap < 0.01 for gap in gaps.values())
    report(
        "9c",
        ok,
        "small-l estimate vs exact at n=100: "
        + ", ".join(f"l={l}: {gap:.1e}" for l, gap in gaps.items())
        + " (criterion requires < 1% for all)",
    )
    assert ok, f"small-l estimate more than 1% off exact at n = 100: gaps {gaps}"


def test_criterion_10_reconstruction_and_generating_function():
    worst = max(reconstruction_residual(n, l) for n in range(1, 13) for l in range(n))
    ok = worst < 1e-12
    gen_ok = True
    for (l, z) in [(0, 0.5), (0, -0.5), (2, 0.5), (2, -0.5)]:
        kappa, k = 0.77, 1.1
        closed = generating_closed(l, kappa, k, z)
        partial = generating_partial(l, kappa, k, z, 60)
        gen_ok = gen_ok and abs(partial / closed - 1.0) < 1e-8
    ok = ok and gen_ok
    report(
        "10",
        ok,
        f"weight-shift reconstruction max residual {worst:.1e} (< 1e-12, n <= 12); "
        "generating partial sums within 1e-8 of closed form at z = +/-1/2",
    )
    assert ok
