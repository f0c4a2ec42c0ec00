import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from hydromom.exact import digamma_quarter_diff
from hydromom.specfun import (
    _fock_rows,
    _spherical_jn,
    gauss_jacobi,
    gegenbauer,
    laguerre_assoc,
)

from oracles import (
    chebyshev_u,
    digamma_quarter_diff_fractions,
    gamma_half_over_sqrt_pi,
    gegenbauer_forward,
    gegenbauer_fractions,
    laguerre_forward,
    legendre_rule_mpmath,
    worst_against_mpmath,
)

GRID = np.linspace(-1.0, 1.0, 101)


def gamma_ratio_large(z: float, a: float, b: float) -> float:
    """Two-term large-z estimate of Gamma(z+a)/Gamma(z+b).

    z^(a-b) * [1 + (a-b)(a+b-1)/(2z)].  The first correction coefficient is
    (a-b)(a+b-1)/2; the (a+b+1) variant that sometimes circulates fails the
    exact check Gamma(z+2)/Gamma(z) = z(z+1) and is off at O(1/z) generally.
    """
    return z ** (a - b) * (1.0 + (a - b) * (a + b - 1) / (2.0 * z))


class TestGegenbauer:
    def test_degree_zero_and_negative(self):
        assert gegenbauer(0, 1.5, 0.3) == 1.0
        assert gegenbauer(-1, 1.5, 0.3) == 0.0
        assert gegenbauer(-2, Fraction(3, 2), 0.4) == 0.0
        assert gegenbauer(-3, Fraction(3, 2), Fraction(1, 3)) == 0

    def test_sine_ratio_identity(self):
        # C_{n-1}^1(cos t) = sin(n t)/sin(t); n = 3, t = pi/4 gives exactly 1.
        assert gegenbauer(2, 1, math.sqrt(2) / 2) == pytest.approx(1.0, abs=1e-15)

    def test_rational_value_against_generating_series(self):
        # Coefficient of z^3 in (1 - 2xz + z^2)^(-5/2) at x = 1/3 is -35/9.
        assert gegenbauer(3, Fraction(5, 2), Fraction(1, 3)) == Fraction(-35, 9)

    def test_against_scipy_on_grid(self):
        for n in (0, 1, 4, 9):
            for lam in (0.5, 1.0, 2.5, 4.0):
                mine = gegenbauer(n, lam, GRID)
                ref = sps.eval_gegenbauer(n, lam, GRID)
                assert np.max(np.abs(mine - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("lam", [Fraction(1, 2), 1, 3, Fraction(5, 2), Fraction(2, 3), Fraction(-1, 3)])
    @pytest.mark.parametrize("x", [Fraction(3, 7), Fraction(-5, 9), Fraction(0), Fraction(1), Fraction(-1), 2])
    def test_exact_branch_bit_identical_to_fraction_recurrence(self, lam, x):
        # The integer-scaled recurrence reduces once, at the end; a Fraction
        # is always in lowest terms, so it must equal the step-by-step
        # recurrence in numerator and denominator, degree by degree.
        oracle = gegenbauer_fractions(30, lam, x)
        got = [gegenbauer(degree, lam, x) for degree in range(31)]
        assert all(isinstance(value, Fraction) for value in got)
        assert [v.as_integer_ratio() for v in got] == [v.as_integer_ratio() for v in oracle]

    @pytest.mark.parametrize("lam", [0.5, 1, 2.5, Fraction(3, 2), 7.25])
    def test_float_branch_bits_match_float_recurrence(self, lam):
        # The float branch (the quadrature shadows' path) keeps its exact
        # operation order, each step divided through by k in its two
        # coefficients: same bits as the recurrence written out here.
        def recurrence(x, one):
            lam_ = float(lam)
            out = [one, 2 * lam_ * x * one]
            for k in range(2, 31):
                out.append(2 * (k + lam_ - 1) / k * x * out[-1] - (k + 2 * lam_ - 2) / k * out[-2])
            return out

        x = np.linspace(-1.0, 1.0, 257)
        want = recurrence(x, np.ones_like(x))
        assert all(np.array_equal(gegenbauer(degree, lam, x), w) for degree, w in enumerate(want))
        assert [gegenbauer(degree, lam, -0.3) for degree in range(31)] == recurrence(-0.3, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 85])
    def test_row_sweep_bits_match_gegenbauer(self, n):
        # Each row of one sweep of Fock's l-family C_{n-l-1}^{l+1} has
        # gegenbauer's bits, on a read-only array, which stays untouched,
        # and on a scalar.
        x = GRID.copy()
        x.flags.writeable = False
        fock = _fock_rows(n, x)
        assert fock.shape == (n, x.size) and np.array_equal(x, GRID)
        assert all(np.array_equal(fock[l], gegenbauer(n - l - 1, l + 1, x)) for l in range(n))
        assert _fock_rows(n, -0.3).tolist() == [gegenbauer(n - l - 1, l + 1, -0.3) for l in range(n)]

    @pytest.mark.parametrize("degree", [0, 1, 2, 30])
    def test_read_only_input_untouched_and_result_fresh(self, degree):
        x = np.linspace(-1.0, 1.0, 65)
        x.flags.writeable = False
        first = gegenbauer(degree, 2.5, x)
        assert np.array_equal(x, np.linspace(-1.0, 1.0, 65))
        assert first.flags.writeable and not np.shares_memory(first, x)
        assert not np.shares_memory(first, gegenbauer(degree, 2.5, x))

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            gegenbauer(2, 0, 0.5)

    def test_zero_fraction_parameter_rejected(self):
        with pytest.raises(ValueError):
            gegenbauer(2, Fraction(0), Fraction(1, 2))
        with pytest.raises(ValueError):
            gegenbauer(2, Fraction(0), 0.5)

    @pytest.mark.parametrize("ell", range(0, 9))
    def test_contiguity_float_grid(self, ell):
        # C_nu^{l+2} - C_{nu-2}^{l+2} = (nu+l+1) C_nu^{l+1}/(l+1) on [-1, 1].
        # Values reach ~1e8 at the corner of the range, so the residual is
        # scaled by the magnitude of the identity's terms (the rational-path
        # test below asserts bitwise equality).
        for nu in range(0, 13):
            lhs = gegenbauer(nu, ell + 2, GRID) - gegenbauer(nu - 2, ell + 2, GRID)
            rhs = (nu + ell + 1) * gegenbauer(nu, ell + 1, GRID) / (ell + 1)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale

    @given(
        nu=st.integers(0, 10),
        ell=st.integers(0, 6),
        x=st.fractions(min_value=-1, max_value=1, max_denominator=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_contiguity_exact(self, nu, ell, x):
        lhs = gegenbauer(nu, ell + 2, x) - gegenbauer(nu - 2, ell + 2, x)
        rhs = Fraction(nu + ell + 1, ell + 1) * gegenbauer(nu, ell + 1, x)
        assert lhs == rhs

    @pytest.mark.parametrize("lam", [1, 2, 3, 5, 7])
    def test_orthogonality_via_gauss_jacobi(self, lam):
        # Against weight (1-x^2)^(lam-1/2); diagonal is
        # 2^(1-2 lam) pi G(n+2 lam) / ((lam+n) n! G(lam)^2).  Off-diagonal
        # entries are compared in the normalized sense (diagonals reach 3e5
        # at lam = 7, so a raw absolute bound is a roundoff statement).
        def diagonal(n):
            return (
                2.0 ** (1 - 2 * lam)
                * math.pi
                * math.gamma(n + 2 * lam)
                / ((lam + n) * math.factorial(n) * math.gamma(lam) ** 2)
            )

        x, w = sps.roots_jacobi(80, lam - 0.5, lam - 0.5)
        for n in range(0, 11):
            for n2 in range(n, 11):
                value = float(np.dot(w, gegenbauer(n, lam, x) * gegenbauer(n2, lam, x)))
                if n != n2:
                    assert abs(value) / math.sqrt(diagonal(n) * diagonal(n2)) < 1e-10
                else:
                    assert value == pytest.approx(diagonal(n), rel=1e-10)


class TestChebyshevU:
    def test_basics(self):
        assert chebyshev_u(0, 0.77) == 1.0
        assert chebyshev_u(1, 0.3) == pytest.approx(0.6)
        assert chebyshev_u(-1, 0.3) == 0.0

    def test_negative_degree_is_zero(self):
        assert chebyshev_u(-1, 0.4) == 0.0
        below = chebyshev_u(-2, GRID)
        assert below.shape == GRID.shape and not np.any(below)

    def test_equals_unit_parameter_gegenbauer(self):
        for n in range(0, 13):
            assert np.max(np.abs(chebyshev_u(n, GRID) - gegenbauer(n, 1, GRID))) < 1e-11

    @pytest.mark.parametrize("n", range(1, 13))
    def test_finite_half_gamma_sum(self, n):
        # U_{n-1}(z) = sqrt(pi) sum_j (-1)^j (n+j)! (1-z)^j /
        #              (j! (n-j-1)! 2^(j+1) Gamma(j+3/2)).
        # The sqrt(pi)/Gamma(j+3/2) ratio is exactly rational, so the whole
        # identity is checked in exact arithmetic on a rational grid; the
        # float path is residual-scaled (terms reach ~4e6 at n = 12).
        for z in (Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(2, 5), Fraction(1)):
            total = Fraction(0)
            for j in range(n):
                coeff = Fraction((-1) ** j * math.factorial(n + j)) / (
                    math.factorial(j)
                    * math.factorial(n - j - 1)
                    * 2 ** (j + 1)
                    * gamma_half_over_sqrt_pi(j + 1)
                )
                total += coeff * (1 - z) ** j
            assert total == gegenbauer(n - 1, 1, z)

        z = GRID
        total = np.zeros_like(z)
        peak = 0.0
        for j in range(n):
            coeff = (
                (-1) ** j
                * math.factorial(n + j)
                / (
                    math.factorial(j)
                    * math.factorial(n - j - 1)
                    * 2 ** (j + 1)
                    * float(gamma_half_over_sqrt_pi(j + 1))
                )
            )
            term = coeff * (1.0 - z) ** j
            peak = max(peak, float(np.max(np.abs(term))))
            total += term
        assert np.max(np.abs(total - chebyshev_u(n - 1, z))) < 1e-10 * max(1.0, peak)


class TestLegendre:
    # P_l is the ultraspherical polynomial at weight parameter 1/2.
    def test_endpoint_normalization(self):
        for ell in range(13):
            assert gegenbauer(ell, 0.5, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_linear(self):
        assert gegenbauer(1, 0.5, 0.37) == 0.37

    def test_cubic_value(self):
        assert gegenbauer(3, 0.5, 0.5) == pytest.approx(-0.4375, rel=1e-15)
        assert gegenbauer(3, Fraction(1, 2), Fraction(1, 2)) == Fraction(-7, 16)

    def test_against_scipy(self):
        for ell in (2, 5, 8, 12):
            assert np.max(np.abs(gegenbauer(ell, 0.5, GRID) - sps.eval_legendre(ell, GRID))) < 1e-12


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre_assoc(0, 3.0, 1.7) == 1.0

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_degree_rejected(self, n):
        with pytest.raises(ValueError, match="n >= 0"):
            laguerre_assoc(n, 1.0, 0.5)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_integer_arguments_give_floats(self, n):
        # Integer x gives floats at every degree, degree 1 included.
        x = np.array([0, 1, 7])
        values = laguerre_assoc(n, 3, x)
        assert values.dtype == np.float64
        assert np.array_equal(values, laguerre_assoc(n, 3, x.astype(float)))
        assert type(laguerre_assoc(n, 3, 7)) is float
        if n == 1:
            assert values.tolist() == [4.0, 3.0, -3.0]

    @pytest.mark.parametrize("alpha", [0, 3, 2.5, 7.25, 21])
    def test_float_branch_bits_match_float_recurrence(self, alpha):
        # Same bits as the recurrence written out here, each step divided
        # through by k in its coefficients with x/k as x times -1/k, for
        # float, integer and scalar x alike.
        def recurrence(x, one):
            out = [one, 1.0 + alpha - x]
            for k in range(2, 31):
                out.append((x * (-1.0 / k) + (2 * k - 1 + alpha) / k) * out[-1] - (k - 1 + alpha) / k * out[-2])
            return out

        for x in (np.linspace(0.0, 40.0, 257), np.arange(0, 41)):
            want = recurrence(x, np.ones_like(x, dtype=float))
            assert all(np.array_equal(laguerre_assoc(degree, alpha, x), w) for degree, w in enumerate(want))
        for x in (1.7, 7, np.float64(0.3)):
            assert [laguerre_assoc(degree, alpha, x) for degree in range(31)] == recurrence(x, 1.0)

    @pytest.mark.parametrize("degree", [0, 1, 2, 30])
    def test_read_only_input_untouched_and_result_fresh(self, degree):
        for x in (np.linspace(0.0, 40.0, 65), np.arange(0, 41)):
            kept = x.copy()
            x.flags.writeable = False
            first = laguerre_assoc(degree, 3, x)
            assert np.array_equal(x, kept) and x.dtype == kept.dtype
            assert first.dtype == np.float64 and first.flags.writeable and not np.shares_memory(first, x)
            assert not np.shares_memory(first, laguerre_assoc(degree, 3, x))

    def test_against_scipy(self):
        x = np.linspace(0.0, 30.0, 61)
        for n in (1, 3, 7):
            for alpha in (0, 1, 3, 5):
                ref = sps.eval_genlaguerre(n, alpha, x)
                assert np.max(np.abs(laguerre_assoc(n, alpha, x) - ref)) < 1e-9 * np.max(np.abs(ref))

    def test_orthogonality_gauss_laguerre(self):
        # integral e^-t t^nu L_1^nu L_2^nu dt = 0 and the diagonal at
        # (2, 2), nu = 1 equals Gamma(4)/Gamma(3) = 3.
        t, w = sps.roots_genlaguerre(40, 3)
        off = float(np.dot(w, laguerre_assoc(1, 3, t) * laguerre_assoc(2, 3, t)))
        assert abs(off) < 1e-10
        t, w = sps.roots_genlaguerre(40, 1)
        diag = float(np.dot(w, laguerre_assoc(2, 1, t) ** 2))
        assert diag == pytest.approx(3.0, rel=1e-12)


class TestRecurrenceAccuracy:
    # The float recurrences against the textbook ones at 50 digits, at the
    # degrees that Fock's amplitudes and the position wavefunction reach for
    # n <= 85; each error is relative to the peak on the grid.  The bounds
    # sit about 2.5x over the worst measured: 7.8e-15, 2.2e-14 and 4.4e-15.
    @pytest.mark.parametrize("m,lam", [(84, 0.5), (84, 1), (70, 15), (60, 25), (44, 41), (40, 41), (40, 0.5)])
    def test_gegenbauer_high_degree(self, m, lam):
        worst = worst_against_mpmath(gegenbauer(m, lam, GRID), lambda mp, x: gegenbauer_forward(m, mp.mpf(lam), x), GRID)
        assert worst <= 2e-14

    def test_row_sweep_at_n85(self):
        n, x = 85, np.linspace(-1.0, 1.0, 41)
        rows = _fock_rows(n, x)
        for l, row in enumerate(rows):
            assert worst_against_mpmath(row, lambda mp, y: gegenbauer_forward(n - l - 1, l + 1, y), x) <= 5e-14, l

    @pytest.mark.parametrize("l", [0, 5, 20, 40])
    def test_laguerre_degree_84(self, l):
        # L_84^{2l+1}(t) is R_nl's polynomial at n = 85 + l, over
        # t = 2 kappa r in [0, 4n + 4], past its last zero.
        n = 85 + l
        t = np.linspace(0.0, 4.0 * n + 4.0, 101)
        worst = worst_against_mpmath(laguerre_assoc(84, 2 * l + 1, t), lambda mp, y: laguerre_forward(84, 2 * l + 1, y), t)
        assert worst <= 1e-14


class TestDigammaQuarterDiff:
    def test_pure_reflection(self):
        q, c = digamma_quarter_diff(Fraction(3, 4), Fraction(1, 4))
        assert (q, c) == (0, 1)

    def test_shifted_difference(self):
        # psi(7/4) - psi(5/4) = pi - 8/3
        q, c = digamma_quarter_diff(Fraction(7, 4), Fraction(5, 4))
        assert (q, c) == (Fraction(-8, 3), 1)

    def test_same_class_is_rational(self):
        q, c = digamma_quarter_diff(Fraction(9, 4), Fraction(1, 4))
        assert c == 0 and q == Fraction(4) / 1 + Fraction(4, 5)

    def test_integer_class(self):
        q, c = digamma_quarter_diff(Fraction(4), Fraction(2))
        assert c == 0 and q == Fraction(1, 2) + Fraction(1, 3)

    def test_matches_float_digamma(self):
        for a, b in [(Fraction(11, 4), Fraction(5, 4)), (Fraction(13, 4), Fraction(7, 4)), (Fraction(7, 2), Fraction(3, 2))]:
            q, c = digamma_quarter_diff(a, b)
            assert float(q) + float(c) * math.pi == pytest.approx(
                sps.digamma(float(a)) - sps.digamma(float(b)), rel=1e-12
            )

    def test_mixed_classes_rejected(self):
        with pytest.raises(ValueError):
            digamma_quarter_diff(Fraction(1, 2), Fraction(1, 4))

    def test_every_argument_to_300_matches_fraction_sum(self):
        # Each quarter-integer a <= 300 in both slots, against the base f of
        # its own class (a = f + m, 0 < f <= 1; f = 1 is the integer branch),
        # so the other slot's sum is empty and a's sum meets the old one alone.
        for k in range(1, 1201):
            a = Fraction(k, 4)
            base = a - math.ceil(a) + 1
            q, c = digamma_quarter_diff_fractions(a, base)
            assert digamma_quarter_diff(a, base) == (q, c) and c == 0
            assert digamma_quarter_diff(base, a) == (-q, c)

    def test_every_pair_to_10_matches_fraction_sum(self):
        # Both sums non-empty, the pi branch, and the same rejections.
        quarters = [Fraction(k, 4) for k in range(1, 41)]
        for a in quarters:
            for b in quarters:
                try:
                    want = digamma_quarter_diff_fractions(a, b)
                except ValueError:
                    with pytest.raises(ValueError):
                        digamma_quarter_diff(a, b)
                    continue
                assert digamma_quarter_diff(a, b) == want


class TestGammaRatioLarge:
    def test_equal_arguments(self):
        assert gamma_ratio_large(33.0, 1.25, 1.25) == 1.0

    def test_against_lgamma(self):
        ref = math.exp(math.lgamma(51.0) - math.lgamma(50.5))
        assert abs(gamma_ratio_large(50.0, 1.0, 0.5) / ref - 1.0) < 3e-4

    def test_terminating_case_exact(self):
        # Gamma(z+2)/Gamma(z) = z(z+1); the two-term estimate hits it exactly.
        ref = 200.0 * 201.0
        assert abs(gamma_ratio_large(200.0, 2.0, 0.0) / ref - 1.0) < 1e-4

    def test_misprinted_coefficient_fails(self):
        # The (a+b+1) variant misses the exact z(z+1) ratio at O(1/z).
        z, a, b = 200.0, 2.0, 0.0
        variant = z ** (a - b) * (1.0 + (a - b) * (a + b + 1) / (2.0 * z))
        assert abs(variant / (z * (z + 1.0)) - 1.0) > 5e-3


class TestSphericalJn:
    ORDERS = [0, 1, 2, 3, 5, 8, 13, 20, 29, 40, 60, 79]
    # The zeros of j_0 (k pi) and the first two of j_1, where the other one
    # anchors the downward branch.
    ZEROS = [k * math.pi for k in range(1, 128)] + [4.493409457909064, 7.725251836937707]

    @classmethod
    def points(cls, l):
        """z from 1e-3 to 400, the zeros, and both sides of the branch at z = l."""
        edge = [np.nextafter(float(l), 0.0), float(l), np.nextafter(float(l), np.inf)] if l else []
        return np.concatenate([np.geomspace(1e-3, 400.0, 701), cls.ZEROS, edge])

    @staticmethod
    def envelope(values):
        # Near a zero only an absolute error means anything: measure it
        # against 1e-3 of the largest |j_l| on the grid.
        return np.maximum(np.abs(values), 1e-3 * np.max(np.abs(values)))

    @pytest.mark.parametrize("l", ORDERS)
    def test_against_scipy(self, l):
        z = self.points(l)
        got, want = _spherical_jn(l, z), sps.spherical_jn(l, z)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / self.envelope(want)) <= 3e-13

    @pytest.mark.parametrize("l", [l for l in ORDERS if l > 0])
    def test_continuous_across_the_branch(self, l):
        below, at, above = _spherical_jn(l, np.array([np.nextafter(float(l), 0.0), float(l), np.nextafter(float(l), np.inf)]))
        assert below == pytest.approx(at, rel=1e-13) and above == pytest.approx(at, rel=1e-13)

    @pytest.mark.parametrize("l", ORDERS)
    def test_against_mpmath(self, l):
        mp = pytest.importorskip("mpmath")
        z = np.concatenate([np.geomspace(1e-3, 400.0, 161), self.ZEROS[::8], self.ZEROS[-2:]])
        with mp.workdps(40):
            want = np.array([float(mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(l + 0.5, mp.mpf(x))) for x in z])
        got = _spherical_jn(l, z)
        assert np.max(np.abs(got - want) / self.envelope(want)) <= 2e-13
        # Where j_l falls off with l (z < l) it has no zeros, and the
        # downward ratios keep it to a few ulps relative, down to underflow.
        decaying = (z < l) & (np.abs(want) > 1e-290)
        assert np.all(np.abs(got[decaying] / want[decaying] - 1.0) <= 1e-14)


class TestGaussLegendre:
    """Gauss-Legendre is the Gauss-Jacobi rule at (a, b) = (0, 0)."""

    def test_matches_40_digit_reference(self):
        # numpy's leggauss fails this: its weights are 1.2e-13 off at 24 nodes
        # and 4.5e-12 at 89.
        pytest.importorskip("mpmath")
        for num in (1, 2, 3, 7, 24, 89, 120):
            want_nodes, want_weights = legendre_rule_mpmath(num)
            nodes, weights = gauss_jacobi(num, 0.0, 0.0)
            assert max(abs(float(want - got)) for want, got in zip(want_nodes, nodes)) <= 2e-16, num
            assert max(abs(float(got / want - 1)) for want, got in zip(want_weights, weights)) <= 5e-14, num

    @pytest.mark.parametrize("a", [0.0, 2.5, -0.5])
    def test_symmetric_to_the_bit(self, a):
        for num in [*range(1, 40), 89, 120, 255, 510]:
            nodes, weights = gauss_jacobi(num, a, a)
            assert np.array_equal(nodes, -nodes[::-1]), num
            assert np.array_equal(weights, weights[::-1]), num
            if num % 2:
                assert nodes[num // 2] == 0.0, num

    def test_repeat_call_returns_same_arrays(self):
        # At a == b the rule is its own mirror: one cached build, and
        # integer (0, 0) finds the float one.
        for a in (0.0, 2.5):
            first = gauss_jacobi(37, a, a)
            second = gauss_jacobi(37, a, a)
            assert first[0] is second[0] and first[1] is second[1]
        as_ints = gauss_jacobi(37, 0, 0)
        as_floats = gauss_jacobi(37, 0.0, 0.0)
        assert as_ints[0] is as_floats[0] and as_ints[1] is as_floats[1]

    def test_cached_arrays_are_read_only(self):
        nodes, weights = gauss_jacobi(12, 0.0, 0.0)
        before = nodes.copy(), weights.copy()
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[:] = 1.0
        assert np.array_equal(nodes, before[0]) and np.array_equal(weights, before[1])


def jacobi_mass(a: float, b: float) -> float:
    """The integral of (1-x)^a (1+x)^b over [-1, 1]: 2^(a+b+1) B(a+1, b+1)."""
    return 2.0 ** (a + b + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)


class TestGaussJacobi:
    # (a, b) samples: integer, half-integer, a + b = 0, a < b,
    # a == b (Gauss-Legendre at 0) and the whole-exponent weights of the x
    # form's states, (l + 2, l) and (l + 3/2, l + 1/2).
    PAIRS = [
        (0.0, 0.0),
        (2.0, 0.0),
        (0.5, -0.5),
        (-0.5, 0.5),
        (-0.5, -0.5),
        (1.5, 0.5),
        (0.5, 1.5),
        (10.0, 8.0),
        (3.7, -0.4),
        (2.5, 2.5),
    ]

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_matches_scipy(self, a, b):
        # scipy's weights are the less accurate side (about 5e-11 relative
        # at 100 nodes), so the weight bound is set by them.
        for num in range(1, 101):
            nodes, weights = gauss_jacobi(num, a, b)
            want_nodes, want_weights = sps.roots_jacobi(num, a, b)
            assert np.max(np.abs(nodes - want_nodes)) <= 1e-14, num
            assert np.max(np.abs(weights / want_weights - 1.0)) <= 5e-10, num

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_weights_sum_to_mass(self, a, b):
        for num in (1, 2, 7, 40, 100, 300, 510):
            _, weights = gauss_jacobi(num, a, b)
            assert math.fsum(weights) == pytest.approx(jacobi_mass(a, b), rel=1e-12), num

    @pytest.mark.parametrize(
        "a, b", [(0.0, 0.0), (2.0, 0.0), (0.5, -0.5), (1.5, 0.5), (3.7, -0.4), (2.5, 2.5), (0.0, -0.5)]
    )
    def test_exact_on_monomials(self, a, b):
        # sum w x^k = int (1-x)^a (1+x)^b x^k for k <= 2 num - 1; with
        # x = 2t - 1 the right side is a sum of Beta values.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            # The sum alternates over terms up to 1e9 times the result, so
            # the exponents are formed in mpmath, not rounded as floats.
            big_a, big_b = mp.mpf(a), mp.mpf(b)

            def moment(k):
                return 2 ** (big_a + big_b + 1) * mp.fsum(
                    mp.binomial(k, j) * 2**j * (-1) ** (k - j) * mp.beta(big_a + 1, big_b + j + 1) for j in range(k + 1)
                )

            for num in (1, 2, 3, 5, 10, 20):
                nodes, weights = gauss_jacobi(num, a, b)
                for k in range(2 * num):
                    got = math.fsum(weights * nodes**k)
                    assert abs(got - float(moment(k))) <= 1e-13 * jacobi_mass(a, b), (num, k)

    def test_mirror_and_read_only(self):
        # (a, b) and (b, a) are two builds; their rules need not be
        # mirror images to the bit.
        nodes, weights = gauss_jacobi(23, 2.5, 0.5)
        mirror_nodes, mirror_weights = gauss_jacobi(23, 0.5, 2.5)
        again = gauss_jacobi(23, 2.5, 0.5)
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights, mirror_nodes, mirror_weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert np.all(np.diff(mirror_nodes) > 0)

    @pytest.mark.parametrize(
        "num, a, b",
        [
            (0, 0.0, 0.0),
            (-3, 0.0, 0.0),
            (True, 0.0, 0.0),
            (2.0, 0.0, 0.0),
            (40.5, 0.0, 0.0),
            (5, -1.0, 0.0),
            (5, 0.0, -1.0),
            (5, -2.5, 0.5),
            (5, math.nan, 0.0),
            (5, 0.0, math.nan),
            (5, math.inf, 0.0),
        ],
    )
    def test_rejects_bad_arguments(self, num, a, b):
        with pytest.raises(ValueError):
            gauss_jacobi(num, a, b)

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_weights_finite_and_positive_to_510(self, a, b):
        for num in (128, 255, 256, 383, 509, 510):
            nodes, weights = gauss_jacobi(num, a, b)
            assert np.all(np.isfinite(weights) & (weights > 0.0)), num
            assert np.all(np.diff(nodes) > 0) and -1.0 < nodes[0] and nodes[-1] < 1.0, num

    @pytest.mark.parametrize(
        "num, a, b",
        [
            # The whole-exponent weights of <p^0> at (82, 70) and (601, 0),
            # and small and negative exponents.
            (12, 71.5, 70.5),
            (1, 0.5, 0.5),
            (5, 3.7, -0.9),
            (30, -0.5, -0.5),
            (601, 1.5, 0.5),
        ],
    )
    def test_weights_sum_to_40_digit_mass(self, num, a, b):
        mp = pytest.importorskip("mpmath")
        _, weights = gauss_jacobi(num, a, b)
        with mp.workdps(40):
            want = 2 ** (mp.mpf(a) + b + 1) * mp.beta(mp.mpf(a) + 1, mp.mpf(b) + 1)
            assert abs(math.fsum(weights) / want - 1) <= 1e-14

    def test_weight_out_of_float_range_raises(self):
        # The total mass 2^2001 / 2001 is past the double range: a named
        # error, never an inf weight.
        with pytest.raises(OverflowError, match="float range"):
            gauss_jacobi(5, 2000.0, 0.0)

    @pytest.mark.parametrize(
        "num, a, b",
        [
            # Gamma(a + b + 2) is past the float range, the mass need not be:
            # the whole-exponent weights of (85, 84) and (500, 250) at s = 0,
            # equal large exponents, a large unequal pair and its mirror.
            (1, 85.5, 84.5),
            (250, 251.5, 250.5),
            (1, 600.0, 600.0),
            (3, 2000.0, 1500.25),
            (3, 1500.25, 2000.0),
        ],
    )
    def test_exponents_past_gamma_range_are_refused(self, num, a, b):
        with pytest.raises(OverflowError, match="float range"):
            gauss_jacobi(num, a, b)

    def test_rule_past_the_node_limit_is_refused_unbuilt(self, monkeypatch):
        # Past 4096 nodes the dense Jacobi matrix and the Newton sweep's
        # coefficients, about 24 num^2 bytes, would outgrow memory: a named
        # error before the rule is built or anything is allocated.
        import tracemalloc

        from hydromom import specfun

        monkeypatch.setattr(specfun, "_gauss_jacobi", lambda *args: pytest.fail(f"built {args}"))
        tracemalloc.start()
        try:
            with pytest.raises(OverflowError) as refused:
                gauss_jacobi(4097, 0.0, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "the 4097-point Gauss-Jacobi rule for (a, b) = (0.0, 0.0) is refused: past 4096 nodes"
        assert peak < 1 << 20

    @pytest.mark.parametrize("num", [170, 300, 600])
    def test_half_half_rule_is_chebyshev_u(self, num):
        # The (1/2, 1/2) weight's orthogonal polynomials are U_num, with
        # x_k = cos(k pi/(num+1)) and w_k = pi/(num+1) sin^2(k pi/(num+1)).
        mp = pytest.importorskip("mpmath")
        nodes, weights = gauss_jacobi(num, 0.5, 0.5)
        with mp.workdps(40):
            angles = [k * mp.pi / (num + 1) for k in range(num, 0, -1)]
            node_err = max(abs(float(mp.cos(t) - x)) for t, x in zip(angles, nodes))
            weight_err = max(abs(float(w / (mp.pi / (num + 1) * mp.sin(t) ** 2) - 1)) for t, w in zip(angles, weights))
        assert node_err <= 2e-16
        assert weight_err <= 1e-12

    @pytest.mark.parametrize("num", [1, 2, 3, 43, 251])
    def test_inverse_sqrt_rule_is_the_folded_legendre_rule(self, num):
        # With u = x^2 = (1+t)/2, an even integrand's 2m-point Legendre rule
        # folds onto the m-point rule for (1+t)^(-1/2): t_k = 2 x_k^2 - 1 and
        # W_k = 2 sqrt(2) w_k over the positive nodes x_k.  The double integral
        # runs x on the folded form.
        nodes, weights = gauss_jacobi(num, 0.0, -0.5)
        x, w = gauss_jacobi(2 * num, 0.0, 0.0)
        x, w = x[num:], w[num:]
        assert np.max(np.abs(nodes - (2.0 * x * x - 1.0))) <= 1e-15
        assert np.max(np.abs(weights / (2.0 * math.sqrt(2.0) * w) - 1.0)) <= 1e-12
