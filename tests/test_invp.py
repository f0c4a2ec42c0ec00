import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydromom.exact import PiGradedRational, format_exact
from hydromom.invp import (
    _series_connection_unreduced,
    connection_coeffs,
    inv_p,
    inv_p_circular,
    inv_p_exact,
    inv_p_near_circular,
    inv_p_series_compact,
    inv_p_series_connection,
    inv_p_swave,
    reconstruction_residual,
)
from hydromom.quadrature import inv_p_numeric
from hydromom.specfun import digamma, gegenbauer
from hydromom.wavefun import QuantumState


class TestTableValues:
    def test_all_entries_both_series(self, table_n6):
        for (n, l), want in table_n6.items():
            for route in (inv_p_series_connection, inv_p_series_compact):
                got = route(n, l).times_two_pi()
                assert got == PiGradedRational(want, 0), (n, l, route.__name__)

    def test_published_entry_at_5_2_is_a_misprint(self, table_n6):
        # Copies of this grid circulate with 299088/24255 at (n, l) = (5, 2).
        # Three independent routes agree on ...008: both series and the
        # plain sum rule at n = 5 (which the printed value breaks by
        # exactly 5 * 80/24255).
        printed = Fraction(299088, 24255)
        computed = inv_p_series_compact(5, 2).times_two_pi().coefficient
        assert computed == inv_p_series_connection(5, 2).times_two_pi().coefficient
        assert computed == Fraction(299008, 24255)
        assert printed != computed

        row_sum = sum(
            (2 * l + 1) * table_n6[(5, l)] for l in range(5)
        )
        assert row_sum == Fraction(32 * 25, 3)
        broken = row_sum - 5 * computed + 5 * printed
        assert broken != Fraction(32 * 25, 3)


class TestSWave:
    def test_first_values(self, table_n6):
        assert inv_p_swave(1).times_two_pi().coefficient == table_n6[(1, 0)]
        assert inv_p_swave(2).times_two_pi().coefficient == table_n6[(2, 0)]
        assert inv_p_swave(6).times_two_pi().coefficient == table_n6[(6, 0)]

    def test_grade(self):
        assert inv_p_swave(3).pi_power == -1

    def test_transcendental_form_collapses(self):
        # (4/pi)[psi(n+1/2) - 2n^2/(4n^2-1) + gamma + ln 4] equals the
        # rational form because psi(n+1/2) + gamma + ln 4 = 2 K(n).
        gamma_const = 0.5772156649015328606
        for n in range(1, 50):
            transcendental = (
                4.0
                / math.pi
                * (
                    digamma(n + 0.5)
                    - 2.0 * n * n / (4.0 * n * n - 1.0)
                    + gamma_const
                    + math.log(4.0)
                )
            )
            assert transcendental == pytest.approx(inv_p_swave(n).to_float(), rel=1e-12)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            inv_p_swave(0)


class TestCircularFamilies:
    def test_circular_values(self, table_n6):
        assert inv_p_circular(1).times_two_pi().coefficient == table_n6[(1, 0)]
        assert inv_p_circular(5).times_two_pi().coefficient == table_n6[(5, 4)]
        assert inv_p_circular(6).times_two_pi().coefficient == table_n6[(6, 5)]

    def test_near_circular_values(self, table_n6):
        assert inv_p_near_circular(2).times_two_pi().coefficient == table_n6[(2, 0)]
        assert inv_p_near_circular(3).times_two_pi().coefficient == table_n6[(3, 1)]
        assert inv_p_near_circular(6).times_two_pi().coefficient == table_n6[(6, 4)]

    def test_near_circular_needs_n_two(self):
        with pytest.raises(ValueError):
            inv_p_near_circular(1)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_specialization_against_series(self, n):
        assert inv_p_swave(n) == inv_p_series_compact(n, 0)
        assert inv_p_circular(n) == inv_p_series_compact(n, n - 1)
        if n >= 2:
            assert inv_p_near_circular(n) == inv_p_series_compact(n, n - 2)


class TestConnectionCoefficients:
    def test_degenerate_single_term(self):
        # n - l - 1 = 0: a lone j = 0 coefficient that must be the identity
        # (the weight-shift expansion of a constant is that constant).
        coeffs = connection_coeffs(3, 2)
        assert len(coeffs) == 1
        assert coeffs[0].beta == 1
        assert coeffs[0].gamma_c == 1

    def test_pole_convention_at_j_zero(self):
        # gamma_c at j = 0 uses the (-1/2)_0 = 1 limit value.
        coeffs = connection_coeffs(6, 1)
        assert coeffs[0].gamma_c != 0

    def test_count(self):
        assert len(connection_coeffs(9, 2)) == (9 - 2 - 1) // 2 + 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_reconstruction_float_grid(self, n):
        for l in range(n):
            assert reconstruction_residual(n, l) < 1e-12

    def test_reconstruction_exact(self):
        # Bitwise identity on a rational grid point for a nontrivial state.
        n, l = 9, 2
        x = Fraction(3, 7)
        m = n - l - 1
        coeffs = connection_coeffs(n, l)
        lower = sum(
            (c.beta * gegenbauer(m - 2 * c.j, Fraction(2 * l + 1, 2), x) for c in coeffs),
            Fraction(0),
        )
        upper = sum(
            (c.gamma_c * gegenbauer(m - 2 * c.j, Fraction(2 * l + 3, 2), x) for c in coeffs),
            Fraction(0),
        )
        target = gegenbauer(m, l + 1, x)
        assert lower == target
        assert upper == target


class TestSeriesRoutes:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_dual_series_equivalence(self, n):
        for l in range(n):
            assert inv_p_series_connection(n, l) == inv_p_series_compact(n, l)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_dual_series_equivalence_to_400(self, data):
        n = data.draw(st.integers(1, 400), label="n")
        l = data.draw(st.integers(0, n - 1), label="l")
        assert inv_p_series_connection(n, l) == inv_p_series_compact(n, l)

    @pytest.mark.parametrize(
        "n,l,digest",
        [
            (400, 0, "a168ba57493034b1df0bc0da4b29d8be1a76bec63a3bfe0894336bc8ea345226"),
            (400, 133, "1b7bd28a16f4d481190ef1f3fe01149b2e495bd27a8956e22e8d78d71b85cd37"),
            (400, 398, "a8665c55aa773b64e64050e32633049141ae82b3a079c5b22aa0b7b2424a05ef"),
            (1000, 333, "638c14b201eca659602fee8803520d1e7dc0c3985bc8b3e4f819f6f9a6917000"),
        ],
    )
    def test_large_n_values_pinned(self, n, l, digest):
        # sha256 of format_exact for values computed term by term from
        # factorials and half-integer gammas, before the term-ratio rewrite.
        text = format_exact(inv_p_exact(n, l)[0])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", range(1, 21))
    def test_unreduced_route_matches(self, n):
        # The pre-reduction connection-coefficient sum is kept as a
        # regression witness against simplification slips.
        for l in range(n):
            assert _series_connection_unreduced(n, l) == inv_p_series_connection(n, l)

    def test_hand_worked_example(self):
        # n = 3, l = 0: prefactor 2/pi, j = 0 term (256/225)(29/7),
        # j = 1 term (4/9)(22/25); total 2144/105 in table units.
        j0 = Fraction(256, 225) * Fraction(29, 7)
        j1 = Fraction(4, 9) * Fraction(22, 25)
        total = 2 * (j0 + j1)
        assert inv_p_series_connection(3, 0) == PiGradedRational(total, -1)
        assert total * 2 == Fraction(2144, 105)

    def test_single_term_ground_state(self):
        # n = 1: one j = 0 term with bracket 1 - 1/3.
        assert inv_p_series_connection(1, 0) == PiGradedRational(Fraction(16, 3), -1)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_positive_and_decreasing_in_l(self, n):
        values = [inv_p_series_compact(n, l).coefficient for l in range(n)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDispatcher:
    def test_method_tags(self):
        assert inv_p_exact(4, 3)[1] == "series-compact"
        assert inv_p_exact(5, 2)[1] == "series-compact"
        assert inv_p_exact(1, 0)[1] == "series-compact"
        assert inv_p_exact(6, 4)[1] == "series-compact"

    def test_result_object_cross_fills(self, table_n6):
        res = inv_p(QuantumState(4, 3))
        assert res.exact is not None
        assert res.exact.times_two_pi().coefficient == table_n6[(4, 3)]
        assert res.value == pytest.approx(res.exact.to_float(), rel=1e-15)
        assert abs(res.value - res.exact.to_float()) <= res.err_estimate

    @pytest.mark.parametrize("n", range(1, 21))
    def test_quadrature_agreement(self, n):
        for l in range(n):
            exact = inv_p_exact(n, l)[0].to_float()
            numeric = inv_p_numeric(QuantumState(n, l)).value
            assert abs(exact - numeric) < 1e-10 * abs(exact)

    def test_concurrent_evaluation_matches_serial(self):
        # Exact evaluation is pure and keeps no shared state, so a thread
        # pool over the grid must reproduce serial runs.
        from concurrent.futures import ThreadPoolExecutor

        states = [(n, l) for n in range(1, 25) for l in range(n)]
        serial = [inv_p_exact(n, l)[0] for n, l in states]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda s: inv_p_exact(*s)[0], states))
        assert serial == threaded
