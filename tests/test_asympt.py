import math
from fractions import Fraction

import pytest

from hydromom.asympt import lambda_limit, near_circular_asymptotic, small_ell_asymptotic, swave_asymptotic
from hydromom.invp import inv_p_circular, inv_p_exact, inv_p_swave


class TestSWaveAsymptotic:
    def test_n3_accuracy(self):
        est = swave_asymptotic(3)
        exact = 2144.0 / (210.0 * math.pi)
        assert est == pytest.approx(3.2504, abs=1e-4)
        assert abs(est / exact - 1.0) < 2e-4

    def test_worst_case_is_n1(self):
        exact = 16.0 / (3.0 * math.pi)
        assert abs(swave_asymptotic(1) / exact - 1.0) == pytest.approx(0.035, abs=0.002)

    def test_monotone_improvement(self):
        errors = []
        for n in (1, 2, 4, 8, 16, 32, 64, 128):
            exact = inv_p_swave(n).to_float()
            errors.append(abs(swave_asymptotic(n) / exact - 1.0))
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestSmallEllAsymptotic:
    def test_leading_log_coefficient(self):
        # The log slope (est(n2) - est(n1)) / ln(n2/n1) tends to 4/pi; the
        # ratio est/log n would also carry the l-dependent constant.
        for l in (0, 2, 5):
            n1, n2 = 10**3, 10**4
            slope = (small_ell_asymptotic(n2, l) - small_ell_asymptotic(n1, l)) / math.log(n2 / n1)
            assert slope == pytest.approx(4.0 / math.pi, rel=1e-5)

    def test_threads_through_family_at_n100(self):
        # Each member of the exact l-family at n = 100 has its own estimate,
        # and the family's neighbour gaps are the harmonic steps 4/(pi l).
        for l in (0, 1, 2):
            exact = inv_p_exact(100, l)[0].to_float()
            assert abs(small_ell_asymptotic(100, l) / exact - 1.0) < 1e-6
        for l in (1, 2):
            gap = inv_p_exact(100, l - 1)[0].to_float() - inv_p_exact(100, l)[0].to_float()
            assert abs(gap - 4.0 / (math.pi * l)) < 1e-3

    def test_constant_corrected_form_matches_swave(self):
        # With the constant gamma + ln 4 - 1/2 - H_l kept, l = 0 is the S-wave
        # estimate, which matches exact to far better than 1e-3 at n = 100.
        for n in (1, 2, 3, 100, 10**6):
            assert small_ell_asymptotic(n, 0) == pytest.approx(swave_asymptotic(n), rel=1e-15)
        exact = inv_p_exact(100, 0)[0].to_float()
        assert abs(small_ell_asymptotic(100, 0) / exact - 1.0) < 1e-3

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_error_is_fourth_order(self, l):
        # An O(n^-4) error shrinks about 16x under n -> 2n; a wrong n^-2
        # coefficient would leave an O(n^-2) error shrinking only about 4x.
        def error(n):
            return abs(small_ell_asymptotic(n, l) / inv_p_exact(n, l)[0].to_float() - 1.0)

        for n in (25, 50, 100):
            assert error(n) / error(2 * n) >= 10.0

    def test_exact_neighbor_gap_shrinks_with_n(self):
        # |exact(n, 4) - exact(n, 2)| decreases in n (the l-collapse trend),
        # though it saturates at a nonzero offset.
        gaps = []
        for n in (20, 40, 80, 160):
            gaps.append(
                inv_p_exact(n, 2)[0].to_float() - inv_p_exact(n, 4)[0].to_float()
            )
        assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            small_ell_asymptotic(0)
        with pytest.raises(ValueError):
            small_ell_asymptotic(3, 5)


class TestNearCircularAsymptotic:
    def test_delta_zero_form(self):
        assert near_circular_asymptotic(10, 0) == pytest.approx(1.0 + 3.0 / 40.0, rel=1e-15)

    def test_delta_one_form(self):
        assert near_circular_asymptotic(10, 1) == pytest.approx(1.0 + 9.0 / 40.0, rel=1e-15)

    def test_circular_expansion_consistency(self):
        # The circular closed form expands to 1 + 3/(4n) + O(1/n^2).
        for n in (25, 50, 100):
            exact = inv_p_circular(n).to_float()
            assert abs(exact - near_circular_asymptotic(n, 0)) < 2.0 / (n * n)

    @pytest.mark.parametrize("delta", [0, 1, 2])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_error_halving_ratio(self, n, delta):
        # O(1/n^2) error: doubling n divides the error by ~4.
        exact_n = inv_p_exact(n, n - 1 - delta)[0].to_float()
        exact_2n = inv_p_exact(2 * n, 2 * n - 1 - delta)[0].to_float()
        err_n = abs(exact_n - near_circular_asymptotic(n, delta))
        err_2n = abs(exact_2n - near_circular_asymptotic(2 * n, delta))
        assert 3.4 <= err_n / err_2n <= 4.6

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            near_circular_asymptotic(1, 2)


class TestLambdaLimit:
    def test_half(self):
        value, err = lambda_limit(Fraction(1, 2), 400)
        assert value == pytest.approx(1.975, abs=0.01)
        assert err < 1e-3

    def test_quarter(self):
        value, _ = lambda_limit(Fraction(1, 4), 400)
        assert value == pytest.approx(2.88, abs=0.02)

    def test_eighth(self):
        value, _ = lambda_limit(Fraction(1, 8), 400)
        assert value == pytest.approx(3.77, abs=0.02)

    def test_accepts_float_input(self):
        value, _ = lambda_limit(0.5, 200)
        assert value == pytest.approx(1.975, abs=0.01)

    def test_monotone_in_lambda(self):
        # The limit grows as the ray flattens toward the l = 0 axis.
        v_half, _ = lambda_limit(Fraction(1, 2), 200)
        v_quarter, _ = lambda_limit(Fraction(1, 4), 200)
        v_eighth, _ = lambda_limit(Fraction(1, 8), 200)
        assert v_eighth > v_quarter > v_half

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_limit(Fraction(3, 2), 100)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, 0.999, 0.001])
    def test_rejects_before_snapping(self, lam):
        # inf has no Fraction; 0.999 and 0.001 snap to the excluded ends 1 and 0.
        with pytest.raises(ValueError, match="need 0 < lambda < 1"):
            lambda_limit(lam, 100)

    def test_non_convergence_reported_with_iterates(self):
        with pytest.raises(RuntimeError, match="differ by"):
            lambda_limit(Fraction(1, 8), 40, tol=1e-9)

