import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_strategies
from scipy.special import roots_genlaguerre

from hydromom.exact import harmonic_odd
from hydromom.invp import inv_p_exact
from hydromom.quadrature import (
    ConvergenceError,
    CrossCheckError,
    DivergentMomentError,
    ExpectationResult,
    _adaptive_panels,
    _half_rule,
    _k_form,
    _u_kernel,
    double_integral_rep,
    expectation_f,
    inv_p_numeric,
    inv_p_numeric_theta,
    inv_p_numeric_x,
    power_moment,
    swave_kernel_integral,
)
from hydromom.specfun import gauss_legendre
from hydromom.wavefun import QuantumState, position_radial

from oracles import chebyshev_u


class TestSpecValidation:
    def test_result_validation(self):
        with pytest.raises(ValueError):
            ExpectationResult(1.0, "guesswork", 0.0)
        with pytest.raises(ValueError):
            ExpectationResult(1.0, "quadrature", -1.0)

    def test_result_exact_consistency_enforced(self):
        from fractions import Fraction

        from hydromom.exact import PiGradedRational

        exact = PiGradedRational(Fraction(16, 3), -1)
        ExpectationResult(exact.to_float(), "series-compact", 0.0, exact)
        with pytest.raises(ValueError):
            ExpectationResult(exact.to_float() * 1.5, "series-compact", 1e-12, exact)


class TestNormalizationMoment:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_unit_norm_all_l(self, n):
        for l in range(n):
            assert power_moment(QuantumState(n, l), 0.0).value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n,l", [(171, 0), (180, 5), (300, 0), (400, 10)])
    def test_unit_norm_past_float_factorials(self, n, l):
        # (n+l)! exceeds the double range here; the weight 2N/pi does not.
        assert abs(power_moment(QuantumState(n, l), 0.0).value - 1.0) <= 1e-12

    @pytest.mark.parametrize("s", [0.0, -1.0])
    @pytest.mark.parametrize("n,l", [(500, 250), (600, 100)])
    def test_float_overflow_raises(self, n, l, s):
        # The float C^2 leaves the double range before the weight scales it:
        # a named error, never inf (and no numpy warning).
        with pytest.raises(OverflowError, match="overflows"):
            power_moment(QuantumState(n, l), s)


class TestInverseMomentum:
    def test_ground_state_value(self):
        got = inv_p_numeric(QuantumState(1, 0))
        assert got.value == pytest.approx(16.0 / (3.0 * math.pi), rel=1e-12)

    def test_table_spot_values(self, table_n6):
        for (n, l) in [(4, 3), (6, 2)]:
            expected = float(table_n6[(n, l)]) / (2.0 * math.pi)
            assert inv_p_numeric(QuantumState(n, l)).value == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_x_and_theta_forms_agree(self, n):
        for l in range(n):
            st = QuantumState(n, l)
            a = inv_p_numeric_x(st).value
            b = inv_p_numeric_theta(st).value
            assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("n,l", [(180, 5), (400, 10)])
    def test_past_float_factorials(self, n, l):
        got = inv_p_numeric(QuantumState(n, l)).value
        assert got == pytest.approx(inv_p_exact(n, l)[0].to_float(), rel=1e-10)

    def test_cross_check_guard_trips_on_internal_fault(self, monkeypatch):
        # The forms genuinely agree to ~1e-14, so a fault is simulated by
        # skewing one route; the guard must refuse to return a value.
        import hydromom.quadrature as quad

        real = quad.inv_p_numeric_theta
        monkeypatch.setattr(
            quad,
            "inv_p_numeric_theta",
            lambda st: ExpectationResult(real(st).value * (1.0 + 1e-6), "quadrature", 0.0),
        )
        with pytest.raises(CrossCheckError):
            quad.inv_p_numeric(QuantumState(3, 1))


class TestBuiltInMomentFamily:
    @pytest.mark.parametrize("s", [0.0, -1.0, 1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_x_vs_theta_builtins(self, s, n):
        # The two variable substitutions agree for every built-in power.
        for l in range(n):
            st = QuantumState(n, l)
            x_val = power_moment(st, s).value
            theta = expectation_f(st, (lambda p: np.ones_like(p)) if s == 0 else (lambda p: p**s))
            assert theta.value == pytest.approx(x_val, rel=1e-10)

    @pytest.mark.parametrize("n,l", [(1, 0), (3, 1), (5, 4)])
    def test_k_substitution_route(self, n, l):
        # Direct |P(k)|^2 integration (the only route here that evaluates
        # the amplitude itself) agrees with the weight forms.
        st = QuantumState(n, l)
        norm, _ = _k_form(st, np.ones_like, 1e-11)
        assert norm == pytest.approx(1.0, abs=1e-9)
        invp, _ = _k_form(st, lambda p: 1.0 / p, 1e-11)
        assert invp == pytest.approx(inv_p_exact(n, l)[0].to_float(), rel=1e-9)

    def test_callable_defaults_to_theta_form(self):
        st = QuantumState(5, 2)
        got = expectation_f(st, lambda p: 1.0 / p)
        assert got.value == inv_p_numeric_theta(st).value
        assert got.value == pytest.approx(inv_p_exact(5, 2)[0].to_float(), rel=1e-11)

    def test_rerun_only_below_node_cap(self):
        # The rule is exact for the polynomial it integrates, so its estimate is exactly 0.
        st = QuantumState(9, 2)
        assert power_moment(st, 2.0).err_estimate == 0.0

    def test_p_squared_is_virial_value(self):
        # <p^2> = (hbar kappa)^2 for every state; cross-checked against the
        # position-space gradient integral for (2, 1), whose radial factor is
        # R = N e^(-kappa r) x with x = 2 kappa r, so R' = 2 kappa N
        # e^(-x/2) (1 - x/2).
        assert power_moment(QuantumState(2, 1), 2.0).value == pytest.approx(1.0, rel=1e-11)

        n, l = 2, 1
        kap = 1.0 / n
        t, w = roots_genlaguerre(50, 0)
        r = t / (2.0 * kap)
        norm = 2.0 * kap**1.5 * math.sqrt(
            math.factorial(n - l - 1) / (n * math.factorial(n + l))
        )
        dR = 2.0 * kap * norm * np.exp(-0.5 * t) * (1.0 - 0.5 * t)
        grad_sq = float(np.dot(w, dR**2 * np.exp(t) * r * r / (2.0 * kap)))
        R = position_radial(QuantumState(n, l), kap, r)
        centrifugal = l * (l + 1) * float(np.dot(w, R**2 * np.exp(t) / (2.0 * kap)))
        assert grad_sq + centrifugal == pytest.approx(kap * kap, rel=1e-9)

    def test_moment_window_guard_boundaries(self):
        # Rejection must happen exactly when an endpoint exponent hits -1:
        # for l = 0 that is s = -3 and s = 5.
        st = QuantumState(2, 0)
        for bad in (-3.0, -3.5, 5.0, 6.0):
            with pytest.raises(DivergentMomentError):
                power_moment(st, bad)
        for ok in (-2.9, 4.9):
            assert math.isfinite(power_moment(st, ok).value)

    def test_guard_scales_with_l(self):
        st = QuantumState(4, 2)
        with pytest.raises(DivergentMomentError):
            power_moment(st, -7.0)
        assert math.isfinite(power_moment(st, -6.9).value)

    def test_nan_power_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            power_moment(QuantumState(2, 0), float("nan"))

    def test_diagnostic_message_names_window(self):
        with pytest.raises(DivergentMomentError, match="window is -3.0 < s < 5.0"):
            power_moment(QuantumState(1, 0), 5.0)

    @given(
        l=st_strategies.integers(0, 6),
        offset=st_strategies.floats(0.01, 3.0, allow_nan=False),
        inside=st_strategies.booleans(),
        upper=st_strategies.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_guard_property(self, l, offset, inside, upper):
        # Finite inside the open window (-2l-3, 2l+5), rejected at and
        # beyond either endpoint.
        state = QuantumState(l + 1, l)
        lo, hi = -2.0 * l - 3.0, 2.0 * l + 5.0
        if inside:
            s = (hi - min(offset, 3.9)) if upper else (lo + min(offset, 3.9))
            # keep clear of float fuzz at the boundary
            s = min(max(s, lo + 0.01), hi - 0.01)
            assert math.isfinite(power_moment(state, s).value)
        else:
            s = (hi + offset - 0.01) if upper else (lo - offset + 0.01)
            with pytest.raises(DivergentMomentError):
                power_moment(state, s)


class TestFockReflection:
    # In units of hbar*kappa, <p^s> = <p^(2-s)> (V. Fock, Z. Phys. 98, 145
    # (1935)), and <p^-2> = <p^4> = 8n/(2l+1) - 3.  Through the theta form,
    # folded about pi/4, these pin its mirrored half f(cot theta) at every l.
    STATES = [
        (1, 0), (2, 0), (2, 1), (5, 0), (5, 4), (12, 0), (12, 5), (12, 11), (20, 0), (20, 19),
        (33, 1), (33, 16), (60, 0), (60, 30), (60, 59), (76, 0), (85, 0), (85, 42), (85, 84),
    ]

    @pytest.mark.parametrize("n,l", STATES)
    def test_p_cubed_is_inverse_momentum(self, n, l):
        got = expectation_f(QuantumState(n, l), lambda p: p**3).value
        assert abs(got / inv_p_exact(n, l)[0].to_float() - 1.0) <= 2e-13

    @pytest.mark.parametrize("s", [-2, 4])
    @pytest.mark.parametrize("n,l", STATES)
    def test_mirrored_pair_closed_form(self, n, l, s):
        got = expectation_f(QuantumState(n, l), lambda p: p**s).value
        assert abs(got / (8.0 * n / (2 * l + 1) - 3.0) - 1.0) <= 2e-13


class TestAdaptivePanels:
    def test_stall_reports_last_change(self):
        # Finite but far too oscillatory to resolve: the error carries the
        # change on the last doubling, not the zero left after bookkeeping.
        with pytest.raises(ConvergenceError, match="stalled") as info:
            _adaptive_panels(lambda t: np.sin(1e8 * t), 0.0, 1.0, 1e-12)
        assert 0.0 < info.value.achieved < math.inf

    def test_non_finite_pass_fails_fast(self):
        calls = []

        def integrand(t):
            calls.append(t.size)
            return np.full_like(t, np.nan)

        with pytest.raises(ConvergenceError, match="not finite"):
            _adaptive_panels(integrand, 0.0, 1.0, 1e-12)
        assert len(calls) == 1

    def test_non_finite_moment_fails_fast(self):
        calls = []

        def f(p):
            calls.append(p.size)
            return p * np.nan

        with pytest.raises(ConvergenceError, match="not finite"):
            expectation_f(QuantumState(85, 3), f)
        assert len(calls) == 2  # one pass: f at tan(theta) and at cot(theta)


class TestKernelIntegrals:
    def test_first_value_is_one(self):
        assert swave_kernel_integral(0, 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_odd_harmonic_closed_form(self, n):
        assert swave_kernel_integral(0, n) == pytest.approx(float(harmonic_odd(n)), abs=1e-11)

    def test_second_kernel_at_one(self):
        # K_1(1) = K_0(1) - 1/3 = 2/3, consistent with the ground state
        # value (8/pi) K_1(1) = 16/(3 pi).
        assert swave_kernel_integral(1, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_contiguity_step(self, n):
        # K_1(n) - K_0(n) = -n^2/(4n^2-1); the defining integral evaluated
        # directly, which also rules out the +4n^2 variant.
        step = swave_kernel_integral(1, n) - swave_kernel_integral(0, n)
        want = -n * n / (4.0 * n * n - 1.0)
        assert step == pytest.approx(want, abs=1e-10)
        misprint = 4.0 * n * n / (4.0 * n * n - 1.0)
        assert abs(step - misprint) > 1.0

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            swave_kernel_integral(2, 1)

    @pytest.mark.parametrize("nu, n", [(0, True), (0, 2.5), (0, 2.0), (True, 1), (1.0, 1)])
    def test_rejects_non_integral_arguments(self, nu, n):
        with pytest.raises(ValueError, match="must be an integer"):
            swave_kernel_integral(nu, n)


class TestDoubleIntegral:
    def test_ground_state(self):
        got = double_integral_rep(QuantumState(1, 0))
        assert got.value == pytest.approx(16.0 / (3.0 * math.pi), rel=1e-12)
        assert got.method == "double_integral"

    def test_table_spot_values(self, table_n6):
        for (n, l) in [(3, 1), (5, 4)]:
            expected = float(table_n6[(n, l)]) / (2.0 * math.pi)
            assert double_integral_rep(QuantumState(n, l)).value == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_exact_all_l(self, n):
        for l in range(n):
            expected = inv_p_exact(n, l)[0].to_float()
            got = double_integral_rep(QuantumState(n, l)).value
            assert got == pytest.approx(expected, rel=1e-9)

    def test_one_exact_rule(self):
        # The rule is exact for the polynomial: estimate 0.0, value exact to roundoff.
        for n in range(1, 31):
            for l in range(n):
                got = double_integral_rep(QuantumState(n, l))
                assert got.err_estimate == 0.0
                assert abs(got.value / inv_p_exact(n, l)[0].to_float() - 1.0) <= 1e-11

    @pytest.mark.parametrize("n, l", [(150, 0), (300, 0), (400, 10), (500, 0), (500, 250), (500, 499)])
    def test_large_n_matches_exact(self, n, l):
        expected = inv_p_exact(n, l)[0].to_float()
        assert double_integral_rep(QuantumState(n, l)).value == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 85, 200, 300])
    def test_closed_form_kernel_matches_recurrence(self, n):
        # The route's own grid: x >= 0 rows of the (n+4)-point rule, full y.
        x, _ = _half_rule(n + 4)
        y, _ = gauss_legendre(n + 4)
        col = x[:, None]
        oracle = chebyshev_u(n - 1, col**2 + (1.0 - col**2) * y)
        assert np.max(np.abs(_u_kernel(n, x, y) - oracle)) <= 1e-11 * n

    def test_closed_form_kernel_is_cancellation_free(self):
        # Against the polynomial evaluated in high precision at the same float
        # nodes; forming 1 + arg as a difference would cost about 50x here.
        mp = pytest.importorskip("mpmath")
        n = 300
        x, _ = _half_rule(n + 4)
        y, _ = gauss_legendre(n + 4)
        rows = x[[0, 1, len(x) // 2, -2, -1]]
        with mp.workdps(40):
            arg = lambda a, b: mp.mpf(a) ** 2 + (1 - mp.mpf(a) ** 2) * mp.mpf(b)
            exact = [[float(mp.chebyu(n - 1, arg(a, b))) for b in y] for a in rows]
        assert np.max(np.abs(_u_kernel(n, rows, y) - np.array(exact))) <= 2e-14 * n

    @pytest.mark.parametrize("num", [7, 8])
    def test_half_rule_folds_even_integrands(self, num):
        x, w = gauss_legendre(num)
        half_x, half_w = _half_rule(num)
        assert len(half_x) == (num + 1) // 2 and np.all(half_x >= 0.0)
        if num % 2:
            assert half_x[0] == 0.0 and half_w[0] == w[num // 2]
        for k in range(0, 2 * num, 2):
            assert np.dot(half_w, half_x**k) == pytest.approx(np.dot(w, x**k), rel=1e-14, abs=1e-16)


class TestSharedRules:
    def test_concurrent_evaluation_matches_serial(self):
        # Every fixed-node route reads its Gauss-Legendre rule from one shared
        # cache, so a thread pool over mixed routes must reproduce serial runs.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from hydromom.specfun import gauss_legendre
        from hydromom.wavefun import momentum_radial_numeric

        states = sorted({(n, l) for n in (1, 2, 5, 11, 17, 23, 30) for l in (0, n // 2, n - 1)})
        oracle_states = [(1, 0), (3, 1), (6, 5), (10, 2), (20, 0), (30, 3)]

        def run(job):
            route, (n, l) = job
            st = QuantumState(n, l)
            if route == "bessel":
                return momentum_radial_numeric(st, 1.0 / n, 1.3 / n)
            res = double_integral_rep(st) if route == "double" else inv_p_numeric(st)
            return res.value, res.err_estimate

        jobs = [(route, s) for s in states for route in ("double", "invp")]
        jobs += [("bessel", s) for s in oracle_states]
        serial = [run(job) for job in jobs]
        # Refill the rule cache from four threads at once, switching often.
        gauss_legendre.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert serial == threaded
