import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hydromom.exact import (
    GradeError,
    PiGradedRational,
    format_exact,
    half_gamma,
    harmonic_odd,
    int_gamma,
    parse_exact,
)

from oracles import pochhammer_neg_half

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)
grades = st.sampled_from([-1, 0, 1])


class TestHalfGamma:
    def test_base_values(self):
        assert half_gamma(0).coeff == 1 and half_gamma(0).sqrt_pi_present
        assert half_gamma(1).coeff == Fraction(1, 2)
        assert half_gamma(3).coeff == Fraction(15, 8)

    def test_functional_equation_through_64(self):
        for m in range(64):
            lhs = half_gamma(m + 1).coeff
            assert lhs == (Fraction(2 * m + 1, 2)) * half_gamma(m).coeff

    def test_int_gamma_is_factorial(self):
        for m in range(1, 20):
            assert int_gamma(m).as_rational() == math.factorial(m - 1)

    def test_ratio_of_equal_parity_is_rational(self):
        r = half_gamma(3) / half_gamma(7)
        assert r.sqrt_pi_power == 0
        assert isinstance(r.as_rational(), Fraction)

    def test_product_of_two_half_gammas_has_pi_grade(self):
        p = half_gamma(1) * half_gamma(2)
        graded = p.as_pi_graded()
        assert graded.pi_power == 1
        # Gamma(3/2) Gamma(5/2) = (1/2)(3/4) pi = 3/8 pi
        assert graded.coefficient == Fraction(3, 8)

    def test_odd_parity_rejects_conversion(self):
        with pytest.raises(GradeError):
            half_gamma(2).as_rational()
        with pytest.raises(GradeError):
            half_gamma(2).as_pi_graded()

    def test_float_value(self):
        assert half_gamma(0).to_float() == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            half_gamma(-1)
        with pytest.raises(ValueError):
            int_gamma(0)


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

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            harmonic_odd(0)


class TestPiGradedRational:
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
        with pytest.raises(ValueError):
            parse_exact("pi")

    @given(q=rationals, k=grades)
    def test_round_trip(self, q, k):
        v = PiGradedRational(q, k)
        assert parse_exact(format_exact(v)) == v
