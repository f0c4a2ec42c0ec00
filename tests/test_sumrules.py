import math
from fractions import Fraction

import pytest

from hydromom.exact import PiGradedRational, QuantumState, digamma_quarter_diff
from hydromom.invp import inv_p_exact, inv_p_series_compact
from hydromom.quadrature import double_integral_rep
from hydromom.specfun import _adaptive_panels, gegenbauer
from hydromom.sumrules import (
    addition_identity_residual,
    alternating_rhs_misprinted,
    legendre_projection,
    sum_rule_alternating,
    sum_rule_even,
    u_integral,
    u_integral_recurrence,
)

from oracles import chebyshev_u


class TestPlainSumRule:
    def test_single_state(self):
        lhs, rhs = sum_rule_even(1)
        assert lhs == rhs == PiGradedRational(Fraction(16, 3), -1)

    def test_n2_value(self):
        lhs, rhs = sum_rule_even(2)
        assert lhs == rhs == PiGradedRational(Fraction(64, 1) / 3, -1)

    def test_n3_value(self):
        lhs, rhs = sum_rule_even(3)
        assert lhs == rhs == PiGradedRational(Fraction(48), -1)

    @pytest.mark.parametrize("n", [*range(1, 31), 200])
    def test_exact_up_to_30(self, n):
        lhs, rhs = sum_rule_even(n)
        assert lhs == rhs


class TestFamilyRoute:
    # Both left sides sum one recurrence family per n over one lcm
    # denominator; rebuild them here as Fraction sums, state by state from
    # the compact series.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 60, 131, 400])
    def test_left_sides_equal_per_state_sums(self, n):
        values = [inv_p_series_compact(n, l).coefficient for l in range(n)]
        even = sum(((2 * l + 1) * v for l, v in enumerate(values)), Fraction(0))
        alternating = sum(((2 * l + 1) * (-1) ** l * v for l, v in enumerate(values)), Fraction(0))
        assert sum_rule_even(n)[0] == PiGradedRational(even, -1)
        assert sum_rule_alternating(n)[0] == PiGradedRational(alternating, -1)

    @pytest.mark.parametrize("n", [400, 1000])
    def test_both_rules_exact_at_large_n(self, n):
        for rule in (sum_rule_even, sum_rule_alternating):
            lhs, rhs = rule(n)
            assert lhs == rhs


class TestUIntegrals:
    def test_negative_degree_convention(self):
        assert u_integral(-1) == (0, 0)

    def test_first_values(self):
        assert u_integral(0) == (2, 0)
        assert u_integral(1) == (Fraction(-4, 3), 0)

    def test_recurrence_step(self):
        # J_2 + J_1 = 2/5 forces J_2 = 26/15.
        assert u_integral(2)[0] == Fraction(26, 15)
        assert u_integral(2)[0] + u_integral(1)[0] == Fraction(2, 5)

    @pytest.mark.parametrize("n", range(-1, 31))
    def test_digamma_route_equals_recurrence(self, n):
        q, c = u_integral(n)
        assert c == 0
        assert q == u_integral_recurrence(n)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_against_direct_quadrature(self, n):
        def f(x):
            return chebyshev_u(n, 2.0 * x * x - 1.0)

        val, _ = _adaptive_panels(f, -1.0, 1.0, 1e-12, initial_panels=8, abs_tol=1e-13)
        assert val == pytest.approx(float(u_integral(n)[0]), abs=1e-11)


class TestAlternatingSumRule:
    def test_n1(self):
        lhs, rhs = sum_rule_alternating(1)
        assert lhs == rhs == PiGradedRational(Fraction(16, 3), -1)

    def test_n2(self):
        lhs, rhs = sum_rule_alternating(2)
        assert lhs == rhs == PiGradedRational(Fraction(-64, 15), -1)

    @pytest.mark.parametrize("n", [*range(1, 31), 200])
    def test_exact_up_to_30(self, n):
        lhs, rhs = sum_rule_alternating(n)
        assert lhs == rhs

    def test_right_side_is_the_digamma_form(self):
        # The right side comes from 2 J_{n-1}; the paper's form
        # (n/pi) [4n/(4n^2-1) + psi(n/2+3/4) - psi(n/2+1/4) + (-1)^(n-1) pi],
        # taken directly, gives the same Fraction.
        for n in range(1, 201):
            q, c = digamma_quarter_diff(Fraction(n, 2) + Fraction(3, 4), Fraction(n, 2) + Fraction(1, 4))
            assert c + (-1) ** (n - 1) == 0, n
            assert sum_rule_alternating(n)[1] == PiGradedRational(n * (Fraction(4 * n, 4 * n * n - 1) + q), -1), n

    @pytest.mark.parametrize("n", range(1, 31))
    def test_u_integral_route(self, n):
        # (n/2pi) (J_n + 6 J_{n-1} + J_{n-2}) rebuilds the alternating side.
        total = (
            u_integral_recurrence(n)
            + 6 * u_integral_recurrence(n - 1)
            + u_integral_recurrence(n - 2)
        )
        route = PiGradedRational(Fraction(n, 2) * total, -1)
        assert route == sum_rule_alternating(n)[0]

    @pytest.mark.parametrize("n", range(1, 16))
    def test_integral_form_numeric(self, n):
        # (2n/pi) integral (1+x^2) U_{n-1}(2x^2-1) dx against the exact side.
        def f(x):
            return (1.0 + x * x) * chebyshev_u(n - 1, 2.0 * x * x - 1.0)

        val, _ = _adaptive_panels(f, -1.0, 1.0, 1e-12, initial_panels=8, abs_tol=1e-13)
        lhs = sum_rule_alternating(n)[0].to_float()
        assert 2.0 * n / math.pi * val == pytest.approx(lhs, abs=1e-10 * max(1.0, abs(lhs)))


class TestMisprintedVariant:
    def test_n1_value_documented(self):
        # The full-argument digamma variant yields 2 - 4/(3 pi) at n = 1,
        # refuted by the lone state's exact 16/(3 pi).
        inv_pi_part, plain_part = alternating_rhs_misprinted(1)
        assert inv_pi_part == PiGradedRational(Fraction(-4, 3), -1)
        assert plain_part == PiGradedRational(Fraction(2), 0)
        true_lhs = sum_rule_alternating(1)[0]
        assert plain_part.coefficient != 0 or inv_pi_part != true_lhs

    def test_n2_also_fails(self):
        inv_pi_part, plain_part = alternating_rhs_misprinted(2)
        true_lhs = sum_rule_alternating(2)[0]
        assert plain_part.coefficient == 0
        assert inv_pi_part != true_lhs

    def test_float_value_n1(self):
        inv_pi_part, plain_part = alternating_rhs_misprinted(1)
        assert inv_pi_part.to_float() + plain_part.to_float() == pytest.approx(
            2.0 - 4.0 / (3.0 * math.pi), rel=1e-14
        )


class TestLegendreProjection:
    @pytest.mark.parametrize("n,l", [(2, 0), (2, 1), (4, 2)])
    def test_table_values(self, n, l, table_n6):
        expected = float(table_n6[(n, l)]) / (2.0 * math.pi)
        got = legendre_projection(n, l)
        assert got.value == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_l(self, n):
        for l in range(n):
            expected = inv_p_exact(n, l)[0].to_float()
            assert legendre_projection(n, l).value == pytest.approx(expected, rel=1e-9)

    def test_is_the_double_integral(self):
        for n, l in [(1, 0), (6, 3), (12, 11)]:
            assert legendre_projection(n, l).value == double_integral_rep(QuantumState(n, l)).value


class TestAdditionIdentity:
    def test_collapsed_argument(self):
        # cos(psi) = 1 collapses both sides to the degree-(n-1) value at 1.
        for n in (2, 5, 9):
            assert addition_identity_residual(n, 0.7, 0.0) < 1e-11

    @pytest.mark.parametrize(
        "n,theta,cospsi",
        [(3, math.pi / 3, 0.5), (6, math.pi / 5, -0.3), (9, 1.1, 0.9)],
    )
    def test_general_angles(self, n, theta, cospsi):
        assert addition_identity_residual(n, theta, math.acos(cospsi)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("cospsi", [-0.7, 0.1, 0.9])
    def test_projected_identity_numeric(self, n, cospsi):
        # integral (1+x)^2 C_{n-1}^1(x^2 + (1-x^2) cos psi) dx equals
        # (pi/2n) sum_l (2l+1) P_l(cos psi) <hk/P>_nl.
        def f(x):
            return (1.0 + x) ** 2 * gegenbauer(n - 1, 1, x * x + (1.0 - x * x) * cospsi)

        lhs, _ = _adaptive_panels(f, -1.0, 1.0, 1e-12, initial_panels=8, abs_tol=1e-13)
        rhs = (
            math.pi
            / (2.0 * n)
            * sum(
                (2 * l + 1) * gegenbauer(l, 0.5, cospsi) * inv_p_exact(n, l)[0].to_float()
                for l in range(n)
            )
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)
