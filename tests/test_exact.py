import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hydromom.exact import (
    GradeError,
    PiGradedRational,
    QuantumState,
    format_exact,
    harmonic_odd,
    parse_exact,
)

from oracles import harmonic_odd_fractions, pochhammer_neg_half

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)
grades = st.sampled_from([-1, 0, 1])


class TestPochhammerNegHalf:
    def test_limit_convention_at_zero(self):
        assert pochhammer_neg_half(0) == 1

    def test_small_values(self):
        assert pochhammer_neg_half(1) == Fraction(-1, 2)
        assert pochhammer_neg_half(2) == Fraction(-1, 4)

    def test_matches_gamma_ratio(self):
        # Gamma(j - 1/2)/Gamma(-1/2) away from the pole, via lgamma.
        for j in range(2, 8):
            reference = math.exp(math.lgamma(j - 0.5)) / (-2.0 * math.sqrt(math.pi))
            assert float(pochhammer_neg_half(j)) == pytest.approx(reference, rel=1e-12)


class TestHarmonicOdd:
    def test_known_values(self):
        assert harmonic_odd(1) == 1
        assert harmonic_odd(2) == Fraction(4, 3)
        assert harmonic_odd(3) == Fraction(23, 15)

    def test_step_recursion_through_256(self):
        prev = harmonic_odd(1)
        for n in range(2, 257):
            curr = harmonic_odd(n)
            assert curr - prev == Fraction(1, 2 * n - 1)
            prev = curr

    def test_matches_per_term_fraction_sum(self):
        for n in [*range(1, 300), 2000]:
            assert harmonic_odd(n) == harmonic_odd_fractions(n), n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            harmonic_odd(0)


class TestPiGradedRational:
    @pytest.mark.parametrize(
        "value, want", [(3, Fraction(3)), (-2, Fraction(-2)), (0.75, Fraction(3, 4)), (0.1, Fraction(0.1))]
    )
    def test_int_and_float_stored_as_fraction(self, value, want):
        q = PiGradedRational(value, -1)
        assert type(q.coefficient) is Fraction
        assert q.coefficient.as_integer_ratio() == want.as_integer_ratio()

    def test_fraction_kept_as_given(self):
        value = Fraction(6, 4)
        assert PiGradedRational(value, 0).coefficient is value

    def test_table_unit_conversion(self):
        dimensionless = PiGradedRational(Fraction(16, 3), -1)
        table = dimensionless.times_two_pi()
        assert table == PiGradedRational(Fraction(32, 3), 0)

    def test_additive_identity(self):
        q = PiGradedRational(Fraction(7, 5), 0)
        assert q + PiGradedRational(Fraction(0), 0) == q

    def test_sum_rule_cancellation_at_n2(self):
        # (256 + 3*128)/15 halves of the n = 2 sum rule, both over pi.
        lhs = PiGradedRational(Fraction(64, 3), -1)
        rhs = PiGradedRational(Fraction(16 * 4, 3), -1)
        assert (lhs - rhs).is_zero()

    def test_mixed_grade_addition_rejected(self):
        with pytest.raises(GradeError):
            PiGradedRational(Fraction(1), 0) + PiGradedRational(Fraction(1), 1)

    def test_grade_overflow_rejected(self):
        with pytest.raises(GradeError):
            PiGradedRational(Fraction(1), 1) * PiGradedRational(Fraction(1), 1)
        with pytest.raises(GradeError):
            PiGradedRational(Fraction(1), 2)
        with pytest.raises(GradeError):
            PiGradedRational(Fraction(1), 1).times_two_pi()

    def test_zero_any_grade(self):
        for k in (-1, 0, 1):
            assert PiGradedRational(Fraction(0), k).is_zero()

    @given(q=rationals, k=grades)
    def test_float_matches_grade(self, q, k):
        v = PiGradedRational(q, k)
        assert v.to_float() == pytest.approx(float(q) * math.pi**k, rel=1e-15, abs=1e-300)

    @given(a=rationals, b=rationals, k=grades)
    def test_addition_exact_and_lowest_terms(self, a, b, k):
        total = PiGradedRational(a, k) + PiGradedRational(b, k)
        assert total.coefficient == a + b
        assert math.gcd(total.coefficient.numerator, total.coefficient.denominator) == 1
        assert total.coefficient.denominator > 0


class TestSerialization:
    def test_format_plain(self):
        assert format_exact(PiGradedRational(Fraction(32, 3), 0)) == "32/3"
        assert format_exact(PiGradedRational(Fraction(2), 0)) == "2/1"

    def test_format_graded(self):
        assert format_exact(PiGradedRational(Fraction(16, 3), -1)) == "16/3*pi^-1"

    def test_parse_rejects_garbage(self):
        for text in ("pi", "1/0", "3/0*pi^-1", "-2/00"):
            with pytest.raises(ValueError, match="not an exact value"):
                parse_exact(text)

    @given(q=rationals, k=grades)
    def test_round_trip(self, q, k):
        v = PiGradedRational(q, k)
        assert parse_exact(format_exact(v)) == v


class TestQuantumStateValidation:
    # Plain ints take a fast path; every other integer type still goes
    # through the numbers.Integral check, with the same messages.
    @pytest.mark.parametrize("field", ["n", "l", "m"])
    @pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2), "2"])
    def test_non_integers_rejected(self, field, bad):
        args = {"n": 3, "l": 1, "m": 0, field: bad}
        with pytest.raises(ValueError, match=re.escape(f"quantum number {field} must be an integer, got {bad!r}")):
            QuantumState(**args)

    def test_numpy_integers_accepted(self):
        np = pytest.importorskip("numpy")
        st = QuantumState(np.int64(3), np.int32(1), np.int16(-1))
        assert (st.n, st.l, st.m) == (3, 1, -1)

    def test_int_subclass_takes_the_abc_path(self):
        class Index(int):
            pass

        assert QuantumState(Index(3), Index(2)).l == 2



def _entry_points():
    """Every integer entry point outside the series, each with an integer
    just outside its domain."""
    from hydromom import asympt, invp, sumrules

    return [
        ("inv_p_swave", invp.inv_p_swave, 0),
        ("inv_p_circular", invp.inv_p_circular, 0),
        ("inv_p_near_circular", invp.inv_p_near_circular, 1),
        ("harmonic_odd", harmonic_odd, 0),
        ("sum_rule_even", sumrules.sum_rule_even, 0),
        ("sum_rule_alternating", sumrules.sum_rule_alternating, 0),
        ("alternating_rhs_misprinted", sumrules.alternating_rhs_misprinted, 0),
        ("u_integral", sumrules.u_integral, -2),
        ("u_integral_recurrence", sumrules.u_integral_recurrence, -2),
        ("addition_identity_residual", lambda n: sumrules.addition_identity_residual(n, 0.7, 0.3), 0),
        ("swave_asymptotic", asympt.swave_asymptotic, 0),
        ("small_ell_asymptotic n", lambda n: asympt.small_ell_asymptotic(n, 0), 0),
        ("small_ell_asymptotic l", lambda l: asympt.small_ell_asymptotic(10, l), 10),
        ("near_circular_asymptotic n", lambda n: asympt.near_circular_asymptotic(n, 0), 0),
        ("near_circular_asymptotic delta", lambda delta: asympt.near_circular_asymptotic(10, delta), 10),
    ]


@pytest.mark.parametrize(
    "call, bad",
    [
        pytest.param(call, bad, id=f"{name}-{bad!r}")
        for name, call, outside in _entry_points()
        for bad in (True, 2.5, 3.0, "3", outside)
    ],
)
def test_entry_points_reject_non_integers_and_out_of_domain(call, bad):
    # One validation home: each goes through QuantumState or _require_integer,
    # so a bool or a float is a ValueError as in the series, never a value or
    # a TypeError.
    with pytest.raises(ValueError):
        call(bad)


def _exact_calls():
    """Every exact entry point at arguments where fixed-width integers
    overflow, with its integer arguments."""
    from hydromom import asympt, invp, sumrules

    return [
        ("harmonic_odd", harmonic_odd, (40,)),
        ("inv_p_swave", invp.inv_p_swave, (40,)),
        ("inv_p_circular", invp.inv_p_circular, (40,)),
        ("inv_p_near_circular", invp.inv_p_near_circular, (40,)),
        ("connection_coeffs", invp.connection_coeffs, (40, 3)),
        ("reconstruction_residual", invp.reconstruction_residual, (40, 3)),
        ("series_connection_unreduced", invp._series_connection_unreduced, (40, 3)),
        ("inv_p_series_connection", invp.inv_p_series_connection, (40, 3)),
        ("inv_p_series_compact", invp.inv_p_series_compact, (40, 3)),
        ("inv_p_exact", invp.inv_p_exact, (40, 3)),
        ("family_pairs", invp._family_pairs, (40,)),
        ("family_pairs past the memo", invp._family_pairs, (201,)),
        ("sum_rule_even", sumrules.sum_rule_even, (40,)),
        ("sum_rule_alternating", sumrules.sum_rule_alternating, (40,)),
        ("alternating_rhs_misprinted", sumrules.alternating_rhs_misprinted, (40,)),
        ("u_integral", sumrules.u_integral, (40,)),
        ("u_integral_recurrence", sumrules.u_integral_recurrence, (40,)),
        ("small_ell_asymptotic", asympt.small_ell_asymptotic, (40, 3)),
        ("near_circular_asymptotic", asympt.near_circular_asymptotic, (40, 1)),
        ("inv_p", lambda n, l: invp.inv_p(QuantumState(n, l)), (40, 3)),
    ]


def _same(got, want) -> bool:
    """Equal, and built of the same types down to the integers."""
    if type(got) is not type(want):
        return False
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    if isinstance(want, PiGradedRational):
        return _same(got.coefficient, want.coefficient) and got.pi_power == want.pi_power
    if isinstance(want, Fraction):
        return type(got.numerator) is int and type(got.denominator) is int and got == want
    if hasattr(want, "exact"):  # ExpectationResult
        return _same(got.exact, want.exact) and got.value == want.value
    return got == want


@pytest.mark.parametrize("width", ["int32", "int64"])
@pytest.mark.parametrize("call, args", [pytest.param(call, args, id=name) for name, call, args in _exact_calls()])
def test_numpy_integers_give_the_int_result(call, args, width):
    # QuantumState and _require_integer turn any Integral into an int once,
    # so no product of the exact layer is taken in fixed width.
    np = pytest.importorskip("numpy")
    assert _same(call(*(getattr(np, width)(a) for a in args)), call(*args))
    assert type(QuantumState(getattr(np, width)(40), 3).n) is int
