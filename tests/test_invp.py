import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

import hydromom.invp as invp
from hydromom.cli import main
from hydromom.exact import PiGradedRational, QuantumState, format_exact
from hydromom.invp import (
    _recurrence_coefficients,
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
from hydromom.specfun import gegenbauer

from oracles import (
    gamma_half_over_sqrt_pi as g,
    gegenbauer_fractions,
    inv_p_family_fraction_loop,
    inv_p_family_fractions,
    inv_p_series_compact_fractions,
    inv_p_series_connection_fractions,
    pochhammer_neg_half,
)


def fraction_reconstruction_residual(n, l):
    """The weight-shift residual with every step a ``Fraction``: both sums
    at the m + 1 evenly spaced points of [-1, 1], degrees from the textbook
    recurrence."""
    betas, gammas, den = invp.connection_coeffs(n, l)
    m = n - l - 1
    points = max(m + 1, 2)
    worst = Fraction(0)
    for i in range(points):
        x = Fraction(2 * i, points - 1) - 1
        target = gegenbauer_fractions(m, l + 1, x)[m]
        low = gegenbauer_fractions(m, Fraction(2 * l + 1, 2), x)
        high = gegenbauer_fractions(m, Fraction(2 * l + 3, 2), x)
        lower = sum((Fraction(b, den) * low[m - 2 * j] for j, b in enumerate(betas)), Fraction(0))
        upper = sum((Fraction(g, den) * high[m - 2 * j] for j, g in enumerate(gammas)), Fraction(0))
        worst = max(worst, abs(lower - target), abs(upper - target))
    return float(worst)


def perturb_coefficient(monkeypatch, state, j, field):
    """Raise the integer numerator of one connection coefficient of ``state``
    by a millionth of itself, or by 1 where that rounds to 0; ``field`` is
    "beta" or "gamma_c"."""
    original = invp.connection_coeffs

    def perturbed(n, l):
        betas, gammas, den = original(n, l)
        if (n, l) == state:
            coeffs = betas if field == "beta" else gammas
            coeffs[j] += coeffs[j] // 1000000 or 1
        return betas, gammas, den

    monkeypatch.setattr(invp, "connection_coeffs", perturbed)


@pytest.fixture
def fresh_family_memo():
    """The l-family memo, empty before the test and emptied after it, so a
    test neither reads a family built earlier in the session nor leaves one
    built under a patch."""
    invp._family_memo.cache_clear()
    yield invp._family_memo
    invp._family_memo.cache_clear()


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
        betas, gammas, den = connection_coeffs(3, 2)
        assert len(betas) == len(gammas) == 1
        assert betas[0] == gammas[0] == den

    def test_pole_convention_at_j_zero(self):
        # gamma at j = 0 uses the (-1/2)_0 = 1 limit value.
        _, gammas, _ = connection_coeffs(6, 1)
        assert gammas[0] != 0

    def test_count(self):
        betas, gammas, _ = connection_coeffs(9, 2)
        assert len(betas) == len(gammas) == (9 - 2 - 1) // 2 + 1

    @pytest.mark.parametrize("n", range(1, 41))
    def test_term_ratio_matches_gamma_formula(self, n):
        # The docstring's formulas with every gamma rebuilt per j.
        for l in range(n):
            betas, gammas, den = connection_coeffs(n, l)
            assert all(type(c) is int for c in (*betas, *gammas, den))
            for j, (b, gc) in enumerate(zip(betas, gammas, strict=True)):
                jf = math.factorial(j)
                # G(l+1) = l! and G(n-j) = (n-j-1)!; each sqrt(pi) pair cancels.
                lf, nf = math.factorial(l), math.factorial(n - j - 1)
                beta = g(l) / lf * g(j) * nf / g(n - j) * Fraction(2 * n - 4 * j - 1, 2) / jf
                gamma_c = g(l + 1) / lf * nf / g(n - j + 1) * pochhammer_neg_half(j) * Fraction(2 * n - 4 * j + 1, 2) / jf
                assert Fraction(b, den) == beta
                assert Fraction(gc, den) == gamma_c

    @pytest.mark.parametrize("n", range(1, 13))
    def test_reconstruction_float_grid(self, n):
        # Decided on integers: the residual of a true identity is exactly 0.
        for l in range(n):
            assert reconstruction_residual(n, l) == 0.0

    def test_reconstruction_exact(self):
        # Bitwise identity on a rational grid point for a nontrivial state.
        n, l = 9, 2
        x = Fraction(3, 7)
        m = n - l - 1
        betas, gammas, den = connection_coeffs(n, l)
        lower = sum(
            (Fraction(b, den) * gegenbauer(m - 2 * j, Fraction(2 * l + 1, 2), x) for j, b in enumerate(betas)),
            Fraction(0),
        )
        upper = sum(
            (Fraction(gc, den) * gegenbauer(m - 2 * j, Fraction(2 * l + 3, 2), x) for j, gc in enumerate(gammas)),
            Fraction(0),
        )
        target = gegenbauer(m, l + 1, x)
        assert lower == target
        assert upper == target

    @pytest.mark.parametrize("field", ["beta", "gamma_c"])
    @pytest.mark.parametrize("n, l, j", [(9, 2, 1), (12, 0, 5), (4, 3, 0), (7, 1, 0)])
    def test_reconstruction_residual_sees_a_perturbed_coefficient(self, monkeypatch, n, l, j, field):
        perturb_coefficient(monkeypatch, (n, l), j, field)
        residual = reconstruction_residual(n, l)
        assert residual > 0
        assert residual == fraction_reconstruction_residual(n, l)

    @pytest.mark.parametrize("field", ["beta", "gamma_c"])
    def test_verify_fails_on_a_perturbed_coefficient(self, monkeypatch, capsys, field):
        perturb_coefficient(monkeypatch, (9, 2), 1, field)
        assert main(["verify", "--nmax", "12"]) == 1
        assert "FAIL weight-shift-reconstruction" in capsys.readouterr().out


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

    @pytest.mark.parametrize("n, l", [(700, 70), (700, 350)])
    def test_dual_series_equivalence_at_n_700(self, n, l):
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

    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_integer_engine_matches_fraction_prefactors_to_2000(self, data):
        # The gcd-reduced integer run against the unreduced run with a
        # Fraction prefactor.
        n = data.draw(st.integers(1, 2000), label="n")
        l = data.draw(st.integers(0, n - 1), label="l")
        for route, oracle in (
            (inv_p_series_compact, inv_p_series_compact_fractions),
            (inv_p_series_connection, inv_p_series_connection_fractions),
        ):
            value = route(n, l)
            assert value.pi_power == -1
            assert value.coefficient.as_integer_ratio() == oracle(n, l).as_integer_ratio()

    @pytest.mark.parametrize("l", [0, 9, 150])
    @pytest.mark.parametrize("d", [31, 32, 33, 64, 65])
    def test_term_counts_around_the_gcd_cadence(self, monkeypatch, d, l):
        # The gcd falls after every 32nd Horner step from the tail: the compact
        # series runs n - l terms and the connection series (n - l + 1) // 2,
        # so the last step lands just before, on and after a reduction.
        assert invp._GCD_EVERY == 32
        n, counts, engine = l + d, [], invp._ratio_sum

        def spy(top, bottom, terms, *rest):
            counts.append(terms)
            return engine(top, bottom, terms, *rest)

        monkeypatch.setattr(invp, "_ratio_sum", spy)
        compact, connection = inv_p_series_compact(n, l), inv_p_series_connection(n, l)
        assert counts == [d, (d + 1) // 2]
        assert compact.coefficient == inv_p_series_compact_fractions(n, l)
        assert connection.coefficient == inv_p_series_connection_fractions(n, l)

    @pytest.mark.parametrize("n", [700, 701, 2000])
    def test_both_series_meet_the_closed_forms_at_large_n(self, n):
        for route in (inv_p_series_compact, inv_p_series_connection):
            assert route(n, 0) == inv_p_swave(n)
            assert route(n, n - 1) == inv_p_circular(n)
            assert route(n, n - 2) == inv_p_near_circular(n)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_unreduced_route_matches(self, n):
        # The pre-reduction connection-coefficient sum is kept as a
        # regression witness against simplification slips.
        for l in range(n):
            assert _series_connection_unreduced(n, l) == inv_p_series_connection(n, l)

    @pytest.mark.parametrize("n, l", [(120, 3), (200, 50), (301, 0)])
    def test_unreduced_route_matches_at_large_n(self, n, l):
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


def _compact_term(n, l, j):
    """pi times term j of the compact series for (n, l), from factorials alone;
    zero outside 0 <= j <= n-l-1."""
    if j < 0 or j > n - l - 1:
        return Fraction(0)
    m = l + j + 1
    half_gammas = g(m) * g(m + 1)
    return Fraction(
        (-1) ** j * n * (l + j + 2) * math.factorial(n + l + j) * math.factorial(l + j) ** 2,
        math.factorial(n - l - j - 1) * math.factorial(2 * l + j + 1) * math.factorial(j),
    ) / half_gammas


def _certificate(n, l, j):
    """Zeilberger certificate R(l, j) of the recurrence in l, so that
    A F(l,j) + B F(l+1,j) + C F(l+2,j) = G(l,j+1) - G(l,j) with G = R F.

    Derived offline by fitting exact partial sums; the rational identity it
    implies (divide through by F(l, j)) was then checked symbolically.
    """
    numerator = 0
    for coefficient in (  # polynomial in j, highest power first
        16*(2*l + 3)*(3*l**2 + 9*l - 4*n**2 + 10),
        16*(2*l + 3)*(27*l**3 + 126*l**2 - 36*l*n**2 + 225*l - 56*n**2 + 146),
        4*(
            840*l**5 + 6570*l**4 - 1144*l**3*n**2 + 21394*l**3 - 5262*l**2*n**2 + 35961*l**2
            + 32*l*n**4 - 8042*l*n**2 + 30867*l + 56*n**4 - 4090*n**2 + 10712
        ),
        4*(
            1824*l**6 + 17274*l**5 - 2576*l**4*n**2 + 69740*l**4 - 15854*l**3*n**2 + 152909*l**3
            + 192*l**2*n**4 - 36412*l**2*n**2 + 190828*l**2 + 664*l*n**4 - 37048*l*n**2 + 127701*l
            + 568*n**4 - 14114*n**2 + 35596
        ),
        2*(
            4764*l**7 + 52992*l**6 - 7048*l**5*n**2 + 255823*l**5 - 54560*l**4*n**2 + 692597*l**4
            + 940*l**3*n**4 - 167947*l**3*n**2 + 1131042*l**3 + 4880*l**2*n**4 - 257405*l**2*n**2
            + 1109334*l**2 - 16*l*n**6 + 8356*l*n**4 - 196803*l*n**2 + 602643*l - 32*n**6
            + 4716*n**4 - 60165*n**2 + 139397
        ),
        2*(
            3732*l**8 + 47736*l**7 - 5816*l**6*n**2 + 268721*l**6 - 54516*l**5*n**2 + 867552*l**5
            + 1156*l**4*n**4 - 211533*l**4*n**2 + 1751849*l**4 + 8028*l**3*n**4 - 435704*l**3*n**2
            + 2258792*l**3 - 48*l**2*n**6 + 20684*l**2*n**4 - 503476*l**2*n**2 + 1810763*l**2
            - 176*l*n**6 + 23440*l*n**4 - 310148*l*n**2 + 823008*l - 160*n**6 + 9868*n**4
            - 79751*n**2 + 162023
        ),
        2*(
            1620*l**9 + 23460*l**8 - 2664*l**7*n**2 + 151206*l**7 - 29452*l**6*n**2 + 568327*l**6
            + 708*l**5*n**4 - 138578*l**5*n**2 + 1369931*l**5 + 6168*l**4*n**4 - 360419*l**4*n**2
            + 2191214*l**4 - 48*l**3*n**6 + 21228*l**3*n**4 - 560735*l**3*n**2 + 2320616*l**3
            - 256*l**2*n**6 + 36100*l**2*n**4 - 522917*l**2*n**2 + 1566023*l**2 - 432*l*n**6
            + 30324*l*n**4 - 271163*l*n**2 + 610019*l - 224*n**6 + 10040*n**4 - 60400*n**2 + 104368
        ),
        4*(l + 1)*(l + 2)*(
            150*l**8 + 1980*l**7 - 260*l**6*n**2 + 11444*l**6 - 2544*l**5*n**2 + 37743*l**5
            + 86*l**4*n**4 - 10302*l**4*n**2 + 77452*l**4 + 644*l**3*n**4 - 22231*l**3*n**2
            + 100940*l**3 - 8*l**2*n**6 + 1778*l**2*n**4 - 27114*l**2*n**2 + 81342*l**2 - 32*l*n**6
            + 2168*l*n**4 - 17821*l*n**2 + 36961*l - 24*n**6 + 984*n**4 - 4956*n**2 + 7236
        ),
    ):
        numerator = numerator * j + coefficient
    denominator = (
        (j + l + 2) * (j + 2 * l + 2) * (j + 2 * l + 3) * (j + 2 * l + 4) * (2 * j + 2 * l + 3) * (2 * j + 2 * l + 5)
    )
    return Fraction(j * numerator, denominator)


def _pair(value: PiGradedRational) -> tuple[int, int]:
    """The lowest-terms integer pair of a value's rational over pi."""
    assert value.pi_power == -1
    return value.coefficient.as_integer_ratio()


class TestFamily:
    @pytest.mark.parametrize("n", range(1, 121))
    def test_bit_identical_to_compact_series(self, n):
        family = invp._family_pairs(n)
        assert len(family) == n
        for l, pair in enumerate(family):
            assert pair == _pair(inv_p_series_compact(n, l))

    @pytest.mark.parametrize("n", [*range(1, 161), 400, 1000])
    def test_bit_identical_to_fraction_steps(self, n):
        # The one-denominator integer run against a Fraction at every step.
        family = invp._family_pairs(n)
        assert all(type(p) is int and type(q) is int for p, q in family)
        assert family == [v.as_integer_ratio() for v in inv_p_family_fractions(n)]

    @pytest.mark.parametrize("n", [*range(1, 121), 200, 201, 500, 2000])
    def test_pairs_equal_the_fraction_loop(self, fresh_family_memo, n):
        # The integer pairs that the table and the sum rules read, against the
        # loop that built a Fraction per l before them, on the first call and
        # on a repeat, which reads the memo up to n = 200.
        want = [v.as_integer_ratio() for v in inv_p_family_fraction_loop(n)]
        pairs = invp._family_pairs(n)
        assert all(type(p) is int and q > 0 and math.gcd(p, q) == 1 for p, q in pairs)
        assert pairs == want
        assert invp._family_pairs(n) == want
        assert fresh_family_memo.cache_info().currsize == (1 if n <= 200 else 0)

    def test_returned_list_is_the_callers_own(self, fresh_family_memo):
        pairs = invp._family_pairs(7)
        want = list(pairs)
        pairs[0] = (1, 1)
        pairs.append((2, 3))
        del pairs[1]
        assert invp._family_pairs(7) == want
        assert invp._family_pairs(7) is not invp._family_pairs(7)

    def test_no_family_past_the_bound_is_kept(self, fresh_family_memo):
        invp._family_pairs(200)
        invp._family_pairs(np.int64(12))  # an Integral key shares the int entry
        before = fresh_family_memo.cache_info()
        assert before.currsize == 2
        invp._family_pairs(201)
        invp._family_pairs(201)
        after = fresh_family_memo.cache_info()
        assert after.currsize == before.currsize
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert type(invp._family_pairs(12)[0][0]) is int

    def test_all_kept_families_fit_the_stated_ceiling(self, fresh_family_memo):
        # _family_pairs states under 5.5 MB for every family with n <= 200.
        import tracemalloc

        invp._family_pairs(1)  # module-level allocations out of the count
        fresh_family_memo.cache_clear()
        tracemalloc.start()
        try:
            for n in range(1, 201):
                invp._family_pairs(n)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fresh_family_memo.cache_info().currsize == 200
        assert retained <= 5.5e6

    @pytest.mark.parametrize("n", [200, 201, 300])
    def test_whole_family_at_large_n(self, n):
        assert invp._family_pairs(n) == [_pair(inv_p_series_compact(n, l)) for l in range(n)]

    def test_sampled_l_at_n_1000(self):
        family = invp._family_pairs(1000)
        for l in range(0, 1000, 37):
            assert family[l] == _pair(inv_p_series_compact(1000, l))
        assert family[0] == _pair(inv_p_swave(1000))
        assert family[998] == _pair(inv_p_near_circular(1000))

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_sampled_states_to_1000(self, data):
        n = data.draw(st.integers(3, 1000), label="n")
        family = invp._family_pairs(n)
        for l in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3), label="l"):
            assert family[l] == _pair(inv_p_series_compact(n, l))

    def test_seed_alone_for_n_one_first_step_for_n_two(self):
        # n = 1 is the circular seed alone; at n = 2 the single step from it
        # meets the near-circular closed form, which the family never reads.
        assert invp._family_pairs(1) == [_pair(inv_p_circular(1))]
        assert invp._family_pairs(2) == [_pair(inv_p_near_circular(2)), _pair(inv_p_circular(2))]
        assert invp._family_pairs(1)[0] == _pair(inv_p_swave(1))
        assert invp._family_pairs(2)[0] == _pair(inv_p_swave(2))

    @pytest.mark.parametrize("n", [3, 4, 5, 17, 64, 255, 600])
    def test_l_zero_end_is_the_swave_closed_form(self, n):
        # The seed sits at l = n-1; the S-wave form is never used.
        assert invp._family_pairs(n)[0] == _pair(inv_p_swave(n))

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            invp._family_pairs(n)

    @pytest.mark.usefixtures("fresh_family_memo")
    def test_zero_leading_coefficient_raises(self, monkeypatch):
        monkeypatch.setattr(invp, "_recurrence_coefficients", lambda n, l: (0, 1, 1))
        with pytest.raises(ArithmeticError, match="n=5, l=3"):
            invp._family_pairs(5)

    def test_leading_coefficient_never_zero(self):
        for n in range(2, 400):
            assert all(_recurrence_coefficients(n, l)[0] != 0 for l in range(n - 1)), n

    @pytest.mark.parametrize(
        "n,l",
        [
            (3, 0), (4, 1), (7, 0), (7, 4), (12, 5), (31, 2), (50, 17), (201, 100), (401, 3), (1000, 641),
            # l = n-2, the family's first step from the circular seed (C_l = 0 there).
            (2, 0), (3, 1), (4, 2), (12, 10), (50, 48), (401, 399),
        ],
    )
    def test_certificate_telescopes(self, n, l):
        a, b, c = _recurrence_coefficients(n, l)
        js = sorted({0, 1, 2, (n - l) // 2, n - l - 3, n - l - 2, n - l - 1} - {-1, -2, -3})
        for j in js:
            lhs = a * _compact_term(n, l, j) + b * _compact_term(n, l + 1, j) + c * _compact_term(n, l + 2, j)
            after = _certificate(n, l, j + 1) * _compact_term(n, l, j + 1)
            assert lhs == after - _certificate(n, l, j) * _compact_term(n, l, j), j
        # G(l, 0) = 0 and G(l, n-l) = 0, so the sum over j telescopes to 0.
        assert _certificate(n, l, 0) == 0
        assert _compact_term(n, l, n - l) == 0


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
