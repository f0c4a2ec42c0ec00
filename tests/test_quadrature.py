import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_strategies
from scipy.special import roots_genlaguerre

from hydromom.exact import ExpectationResult, PiGradedRational, QuantumState, harmonic_odd
from hydromom.invp import _family_pairs, inv_p_exact
from hydromom.quadrature import (
    CrossCheckError,
    DivergentMomentError,
    _double_integral,
    _theta_form,
    _u_kernel,
    _x_moments,
    double_integral_rep,
    expectation_f,
    inv_p_numeric,
    power_moment,
    swave_kernel_integral,
)
from hydromom import quadrature, specfun, wavefun
from hydromom.specfun import ConvergenceError, _adaptive_panels, gauss_jacobi
from hydromom.wavefun import momentum_radial_numeric, position_radial

from oracles import chebyshev_u, k_form, power_moment_mpmath


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
        # (n+l)! exceeds the double range here; sqrt(N) from the exact pair does not.
        assert abs(power_moment(QuantumState(n, l), 0.0).value - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 86))
    def test_triangle_to_roundoff(self, n):
        # The rule runs at its exactness point, Gauss-Legendre at n + 1 nodes
        # for s = -1 and (1/2, 1/2) at n nodes for s = 0 and 2, with the
        # integer parts of the exponents in the integrand: <p^-1> matches the
        # exact series within 1e-12 (about 9.3e-14 at worst, at (85, 0)), and
        # <p^0> = <p^2> = 1 within 2e-14 (about 9.9e-15 at worst).  Fock's
        # pair <p^-2> = <p^4> = 8n/(2l+1) - 3 holds within 1e-12 (about
        # 2.7e-13 at worst, at (84, 0)); at l = 0 its rules are (1/2, -1/2)
        # and (-1/2, 1/2), two builds.
        for l in range(n):
            st = QuantumState(n, l)
            exact = inv_p_exact(n, l)[0].to_float()
            assert abs(power_moment(st, -1.0).value / exact - 1.0) <= 1e-12, l
            assert abs(power_moment(st, 0.0).value - 1.0) <= 2e-14, l
            assert abs(power_moment(st, 2.0).value - 1.0) <= 2e-14, l
            for s in (-2.0, 4.0):
                assert abs(power_moment(st, s).value / (8.0 * n / (2 * l + 1) - 3.0) - 1.0) <= 1e-12, (l, s)

    def test_one_rule_per_n_and_parity(self):
        # Every l of one n shares the rule of s = -1 (n + 1 nodes at (0, 0))
        # and the rule of s = 0 and 2 (n nodes at (1/2, 1/2)): a count of
        # rule builds, which does not drift the way timings do.
        specfun._gauss_jacobi.cache_clear()
        for n in range(1, 86):
            before = specfun._gauss_jacobi.cache_info().misses
            for l in range(n):
                for s in (-1.0, 0.0, 2.0):
                    power_moment(QuantumState(n, l), s)
            assert specfun._gauss_jacobi.cache_info().misses - before <= 2, n

    @pytest.mark.parametrize("n,l", [(500, 250), (600, 100), (700, 350)])
    def test_large_n_inside_float_range(self, n, l):
        # C^2 alone overflows here; the envelope's square root scales C
        # down before it is squared (worst 6.0e-15 off exact, at (600, 100)).
        st = QuantumState(n, l)
        assert abs(power_moment(st, -1.0).value / inv_p_exact(n, l)[0].to_float() - 1.0) <= 1e-12
        assert abs(power_moment(st, 0.0).value - 1.0) <= 1e-13
        assert abs(power_moment(st, 2.0).value - 1.0) <= 1e-13

    @pytest.mark.parametrize("s", [0.0, -1.0])
    @pytest.mark.parametrize("n,l", [(1000, 500), (1000, 194)])
    def test_float_overflow_raises(self, n, l, s):
        # The float C leaves the double range: a named error, never inf (and
        # no numpy warning).
        with pytest.raises(OverflowError, match="overflows"):
            power_moment(QuantumState(n, l), s)

    def test_rule_past_the_node_limit_is_refused_unbuilt(self, monkeypatch):
        # (5000, 0) at s = 2 asks for a 5000-node rule, past gauss_jacobi's
        # 4096: refused before the rule is built.
        monkeypatch.setattr(specfun, "_gauss_jacobi", lambda *args: pytest.fail(f"built {args}"))
        with pytest.raises(OverflowError, match=r"5000-point Gauss-Jacobi rule for \(a, b\) = \(0.5, 0.5\) .* past 4096"):
            power_moment(QuantumState(5000, 0), 2.0)

    def test_no_silent_zero_past_the_float_range(self):
        # C overflows at middle l from n of about 742, at or before every
        # state where the float N would underflow: each state gives the norm
        # or the named error, never 0.0.  Every fourth n keeps the 800-node
        # rule builds to about a second.
        values = 0
        for n in range(700, 821, 4):
            try:
                value = power_moment(QuantumState(n, n // 2), 0.0).value
            except OverflowError as exc:
                assert "overflows" in str(exc)
                continue
            assert abs(value - 1.0) <= 1e-10, n
            values += 1
        assert 0 < values < 31

    @pytest.mark.parametrize("n,l,s", [(39, 8, 20.99), (39, 8, -18.99), (38, 0, -2.99), (20, 3, 0.5), (40, 10, 1.3)])
    def test_fractional_power_against_mpmath(self, n, l, s):
        # An exponent remainder near -1 (the first three, near the window's
        # ends) is where the rule loses digits: 3.1e-14 at worst, at
        # (38, 0, -2.99).
        pytest.importorskip("mpmath")
        want = power_moment_mpmath(n, l, s)
        assert abs(power_moment(QuantumState(n, l), s).value / want - 1.0) <= 1e-12


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
            a = power_moment(st, -1.0).value
            b = expectation_f(st, lambda p: 1.0 / p).value
            assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("n,l", [(171, 0), (300, 0), (500, 0)])
    def test_cross_check_holds_at_l0(self, n, l):
        # The x form at l = 0 and large n: both forms agree, and the value is
        # within 1e-10 of the exact series.
        got = inv_p_numeric(QuantumState(n, l)).value
        assert abs(got / inv_p_exact(n, l)[0].to_float() - 1.0) <= 1e-10

    @pytest.mark.parametrize("n,l", [(300, 0), (500, 250), (600, 100)])
    def test_theta_form_at_large_n(self, n, l):
        # The theta form starts at max(2, (n + 3) // 4) panels and still
        # lands within 1e-12 of exact (1.9e-13 at worst, at (300, 0)).
        got = expectation_f(QuantumState(n, l), lambda p: 1.0 / p).value
        assert abs(got / inv_p_exact(n, l)[0].to_float() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n,l", [(180, 5), (400, 10)])
    def test_past_float_factorials(self, n, l):
        got = inv_p_numeric(QuantumState(n, l)).value
        assert got == pytest.approx(inv_p_exact(n, l)[0].to_float(), rel=1e-10)

    def test_cross_check_guard_trips_on_internal_fault(self, monkeypatch):
        # The forms genuinely agree to ~1e-14, so a fault is simulated by
        # skewing the theta route; the guard must refuse to return a value.
        import hydromom.quadrature as quad

        real = quad.expectation_f
        monkeypatch.setattr(
            quad,
            "expectation_f",
            lambda st, f: ExpectationResult(real(st, f).value * (1.0 + 1e-6), "quadrature", 0.0),
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
        norm, _ = k_form(st, np.ones_like, 1e-11)
        assert norm == pytest.approx(1.0, abs=1e-9)
        invp, _ = k_form(st, lambda p: 1.0 / p, 1e-11)
        assert invp == pytest.approx(inv_p_exact(n, l)[0].to_float(), rel=1e-9)

    def test_callable_defaults_to_theta_form(self):
        st = QuantumState(5, 2)
        got = expectation_f(st, lambda p: 1.0 / p)
        assert got.value == _theta_form([QuantumState(5, l) for l in range(5)], lambda p: 1.0 / p)[2].value
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

    @pytest.mark.parametrize("n, l", [(1, 0), (5, 2), (40, 0), (85, 84)])
    def test_theta_form_calls_its_integrand_once(self, n, l):
        # The first two passes are one integrand call, and at these states
        # they agree: f runs once at tan(theta) and once at cot(theta).
        calls = []

        def f(p):
            calls.append(p.size)
            return 1.0 / p

        expectation_f(QuantumState(n, l), f)
        assert len(calls) == 2


def _sequential_panels(f, a, b, rel_tol, initial_panels=8, abs_tol=0.0, passes=None):
    """The panel engine written out one pass per integrand call, the
    reference for the bits of ``_adaptive_panels``; ``passes``, if given,
    collects the panel count of each pass."""

    def once(num):
        if passes is not None:
            passes.append(num)
        t, w = specfun.gauss_legendre_panels(a, b, num)
        value = float(np.dot(w, f(t)))
        if not math.isfinite(value):
            raise ConvergenceError(f"the pass on {num} panels is not finite ({value})", math.inf)
        return value

    panels = initial_panels
    prev = once(panels)
    for _ in range(specfun._MAX_DOUBLINGS):
        panels *= 2
        curr = once(panels)
        err = abs(curr - prev)
        if err <= max(rel_tol * abs(curr), abs_tol):
            return curr, err
        prev = curr
    raise ConvergenceError("panel refinement stalled", err)


def _outcome(engine, *args, **kwargs):
    """(value, err) as hex strings, a list of them for a row integrand, or
    the ConvergenceError's message and achieved estimate: equal outcomes
    are equal to the bit."""
    try:
        got = engine(*args, **kwargs)
    except ConvergenceError as exc:
        return str(exc), exc.achieved
    if isinstance(got, list):
        return [(value.hex(), err.hex()) for value, err in got]
    value, err = got
    return value.hex(), err.hex()


def _engine_checked_against_sequential(monkeypatch, module) -> list:
    """Serve ``module``'s engine calls from ``_adaptive_panels``, asserting
    on each that the sequential loop gives the same outcome, for a row
    integrand run on each row alone; returns the list of outcomes seen,
    one per row."""
    seen = []

    def engine(f, *args, **kwargs):
        got = _outcome(_adaptive_panels, f, *args, **kwargs)
        if isinstance(got, list):
            rows = [lambda t, i=i: f(t)[i] for i in range(len(got))]
            assert got == [_outcome(_sequential_panels, row, *args, **kwargs) for row in rows]
            seen.extend(got)
        else:
            assert got == _outcome(_sequential_panels, f, *args, **kwargs)
            seen.append(got)
        return _adaptive_panels(f, *args, **kwargs)

    monkeypatch.setattr(module, "_adaptive_panels", engine)
    return seen


class TestPanelEngineBits:
    # The engine runs its first two passes in one integrand call; every
    # value, error estimate and failure must be the sequential loop's.
    @pytest.mark.parametrize("n, l", [(1, 0), (2, 1), (7, 3), (12, 0), (30, 10), (85, 3), (85, 84)])
    def test_theta_form(self, monkeypatch, n, l):
        seen = _engine_checked_against_sequential(monkeypatch, quadrature)
        expectation_f(QuantumState(n, l), lambda p: 1.0 / p)
        expectation_f(QuantumState(n, l), lambda p: p * p)
        assert len(seen) == 2

    @pytest.mark.parametrize("n, l, k", [(1, 0, 0.5), (3, 1, 0.75), (10, 4, 0.05), (20, 0, 0.3)])
    def test_bessel_oracle(self, monkeypatch, n, l, k):
        seen = _engine_checked_against_sequential(monkeypatch, wavefun)
        momentum_radial_numeric(QuantumState(n, l), 1.0 / n, k)
        assert len(seen) == 1

    @pytest.mark.parametrize("nu", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 9, 29])
    def test_swave_kernel_integral(self, monkeypatch, nu, n):
        seen = _engine_checked_against_sequential(monkeypatch, quadrature)
        swave_kernel_integral(nu, n)
        assert len(seen) == 1

    def test_third_pass(self):
        args = (lambda t: np.sin(40.0 * t) * np.exp(t), 0.0, 3.0, 1e-13, 1)
        passes = []
        _sequential_panels(*args, passes=passes)
        assert len(passes) >= 3
        assert _outcome(_adaptive_panels, *args) == _outcome(_sequential_panels, *args)

    def test_stall(self):
        args = (lambda t: np.sin(1e8 * t), 0.0, 1.0, 1e-12)
        stalled = _outcome(_adaptive_panels, *args)
        assert stalled == _outcome(_sequential_panels, *args)
        assert "stalled" in stalled[0]

    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_pass_is_named(self, which):
        # A pole on a node of the first or of the second pass alone: the
        # pass named in the error is the sequential loop's.
        node = specfun.gauss_legendre_panels(0.0, 1.0, 8 << which)[0][5]

        def pole(t):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (t - node)

        failed = _outcome(_adaptive_panels, pole, 0.0, 1.0, 1e-12)
        assert failed == _outcome(_sequential_panels, pole, 0.0, 1.0, 1e-12)
        assert f"the pass on {8 << which} panels is not finite" in failed[0]

    def test_rows_stop_at_their_own_doubling(self):
        # A smooth row agrees at the second pass, an oscillating one only
        # later; stacked, each row is the sequential loop run on it alone.
        rows = (np.exp, lambda t: np.sin(40.0 * t) * np.exp(t))
        args = (0.0, 3.0, 1e-13, 1)
        got = _adaptive_panels(lambda t: np.stack([row(t) for row in rows]), *args)
        passes = [[], []]
        for row, seen in zip(rows, passes):
            _sequential_panels(row, *args, passes=seen)
        assert len(passes[0]) == 2 and len(passes[1]) >= 4
        assert [(v.hex(), e.hex()) for v, e in got] == [_outcome(_sequential_panels, row, *args) for row in rows]

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_non_finite_row_raises_its_own_error(self, which):
        # A pole on a node of one pass of the second row alone: the stack
        # raises the error that row raises on its own.
        node = specfun.gauss_legendre_panels(0.0, 1.0, 8 << which)[0][5]

        def pole(t):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (t - node)

        args = (0.0, 1.0, 1e-12)
        failed = _outcome(_adaptive_panels, lambda t: np.stack([np.cos(t), pole(t)]), *args)
        assert failed == _outcome(_sequential_panels, pole, *args)
        assert f"the pass on {8 << which} panels is not finite" in failed[0]


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

    @pytest.mark.parametrize("n", [60, 70, 85])
    def test_every_l_within_5e_13(self, n):
        # On numpy's leggauss rule this route is 5.0e-12 off at n = 70 and 85.
        for l, (p, q) in enumerate(_family_pairs(n)):
            got = double_integral_rep(QuantumState(n, l)).value
            assert abs(got / PiGradedRational(Fraction(p, q), -1).to_float() - 1.0) <= 5e-13, l

    @pytest.mark.parametrize("n, l", [(150, 0), (300, 0), (400, 10), (500, 0), (500, 250), (500, 499)])
    def test_large_n_matches_exact(self, n, l):
        # At n = 500 even a correctly rounded 504-point rule leaves 4.8e-12:
        # the rounding of the nodes, amplified by the degree-1000 integrand.
        expected = inv_p_exact(n, l)[0].to_float()
        assert double_integral_rep(QuantumState(n, l)).value == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 85, 200, 300])
    def test_closed_form_kernel_matches_recurrence(self, n):
        # The route's own grid: u = (1+t)/2 on the (n//2 + 1)-point rule for
        # (0, -1/2) down the rows, the (n+4)-point Legendre y along them.
        t, _ = gauss_jacobi(n // 2 + 1, 0.0, -0.5)
        u, v = 0.5 * (1.0 + t), 0.5 * (1.0 - t)
        y, _ = gauss_jacobi(n + 4, 0.0, 0.0)
        oracle = chebyshev_u(n - 1, u[:, None] + v[:, None] * y)
        assert np.max(np.abs(_u_kernel(n, u, v, y) - oracle)) <= 1e-11 * n

    def test_closed_form_kernel_is_cancellation_free(self):
        # Against the polynomial evaluated in high precision at the argument
        # the kernel receives, formed from the float node t; forming 1 + arg
        # as a difference would cost about 50x here.
        mp = pytest.importorskip("mpmath")
        n = 300
        t, _ = gauss_jacobi(n // 2 + 1, 0.0, -0.5)
        y, _ = gauss_jacobi(n + 4, 0.0, 0.0)
        rows = t[[0, 1, len(t) // 2, -2, -1]]
        with mp.workdps(40):
            arg = lambda a, b: (1 + mp.mpf(a)) / 2 + (1 - mp.mpf(a)) / 2 * mp.mpf(b)
            exact = [[float(mp.chebyu(n - 1, arg(a, b))) for b in y] for a in rows]
        got = _u_kernel(n, 0.5 * (1.0 + rows), 0.5 * (1.0 - rows), y)
        assert np.max(np.abs(got - np.array(exact))) <= 2e-14 * n


class TestSharedRules:
    def test_concurrent_evaluation_matches_serial(self):
        # Every route reads its rules from the one shared Gauss-Jacobi
        # cache, so a thread pool over mixed routes must reproduce serial runs.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from hydromom import specfun
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
        specfun._gauss_jacobi.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert serial == threaded

    def test_concurrent_exact_families_match_serial(self):
        # The sum rules and _family_pairs share the l-family memo; refilled
        # from four threads at once, it must give the serial values.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from hydromom import invp
        from hydromom.sumrules import sum_rule_alternating, sum_rule_even

        jobs = [(f, n) for n in range(1, 41) for f in (sum_rule_even, sum_rule_alternating, invp._family_pairs)]
        serial = [f(n) for f, n in jobs]
        invp._family_memo.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda job: job[0](job[1]), jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert serial == threaded
        assert invp._family_memo.cache_info().currsize == 40

    def test_no_route_loads_numpy_polynomial(self):
        # Every rule, Gauss-Legendre included, comes from specfun.gauss_jacobi.
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import contextlib, io, sys
            import numpy

            if "numpy.polynomial" in sys.modules:
                print("numpy")
                sys.exit()
            from hydromom import cli
            from hydromom.exact import QuantumState
            from hydromom.quadrature import double_integral_rep, inv_p_numeric
            from hydromom.wavefun import momentum_radial_numeric

            inv_p_numeric(QuantumState(6, 1)), double_integral_rep(QuantumState(6, 1))
            momentum_radial_numeric(QuantumState(3, 1), 1.0, 0.5)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["verify", "--nmax", "3"]) == 0
            print("numpy.polynomial" in sys.modules)
            """
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "numpy":
            pytest.skip("this numpy (< 2) imports numpy.polynomial itself")
        assert proc.stdout.strip() == "False"


def _bits(results) -> list:
    return [(r.value.hex(), r.err_estimate.hex(), r.method) for r in results]


class TestFamilyRoutes:
    """Each float route run on a whole l-family returns its per-state
    results, bit for bit, value and err_estimate."""

    @pytest.mark.parametrize("n", range(1, 86))
    def test_family_equals_per_state_routes(self, n):
        states = [QuantumState(n, l) for l in range(n)]
        for s in (-1.0, 0.0, 2.0, 0.5):
            assert _bits(_x_moments(states, s)) == _bits(power_moment(st, s) for st in states)
        theta = _bits(expectation_f(st, lambda p: 1.0 / p) for st in states)
        assert _bits(_theta_form(states, lambda p: 1.0 / p)) == theta
        assert _bits(_double_integral(states)) == _bits(map(double_integral_rep, states))

    @pytest.mark.parametrize("s", [-2, 4, -1.5])
    def test_x_form_family_refuses_powers_without_a_shared_rule(self, s):
        with pytest.raises(ValueError, match="one x-form rule"):
            _x_moments([QuantumState(6, l) for l in range(6)], s)

    def test_states_other_than_one_or_the_whole_family_are_refused(self):
        states = [QuantumState(6, l) for l in (1, 2)]
        with pytest.raises(ValueError, match="whole l-family"):
            _x_moments(states, 0.0)
        with pytest.raises(ValueError, match="whole l-family"):
            _theta_form(states, np.sqrt)

    def test_x_form_family_of_several_n_is_refused(self):
        # The l's are range(3), but (4, 1) would run on (3, 1)'s row with its
        # own norm: <p^0> read 0.533.
        with pytest.raises(ValueError, match="n = 3 and n = 4"):
            _x_moments([QuantumState(3, 0), QuantumState(4, 1), QuantumState(3, 2)], 0.0)

    def test_double_integral_of_several_n_is_refused(self):
        # (5, 1) would run on n = 3's kernel: 1.940 against its own 2.622.
        with pytest.raises(ValueError, match="n = 3 and n = 5"):
            _double_integral([QuantumState(3, 0), QuantumState(5, 1)])

    def test_double_integral_serves_any_set_of_l(self):
        states = [QuantumState(6, l) for l in (1, 2)]
        assert _bits(_double_integral(states)) == _bits(map(double_integral_rep, states))

    def test_theta_rows_that_do_not_agree_run_the_engine(self, monkeypatch):
        # At a tolerance the first two passes miss, the rows that do not yet
        # agree run on through the engine's later doublings: the family's
        # integrand is called again for a third pass.
        monkeypatch.setattr(quadrature, "_REL_TOL", 3e-16)
        sweeps = []
        rows = quadrature._fock_rows
        monkeypatch.setattr(quadrature, "_fock_rows", lambda *args: sweeps.append(args) or rows(*args))
        family = _theta_form([QuantumState(9, l) for l in range(9)], lambda p: 1.0 / p)
        assert len(sweeps) >= 2
        want = (expectation_f(QuantumState(9, l), lambda p: 1.0 / p) for l in range(9))
        assert _bits(family) == _bits(want)

    def test_theta_row_not_finite_raises_as_the_engine(self, monkeypatch):
        real = quadrature._sqrt_norm
        monkeypatch.setattr(quadrature, "_sqrt_norm", lambda st: math.inf if st.l == 2 else real(st))
        with pytest.raises(ConvergenceError) as per_state:
            expectation_f(QuantumState(7, 2), lambda p: 1.0 / p)
        with pytest.raises(ConvergenceError) as family:
            _theta_form([QuantumState(7, l) for l in range(7)], lambda p: 1.0 / p)
        assert str(family.value) == str(per_state.value)
