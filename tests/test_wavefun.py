import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy.special import roots_genlaguerre, spherical_jn

from hydromom import specfun, wavefun
from hydromom.exact import QuantumState, _norm_ratio, _sqrt_norm
from hydromom.physics import PhysicalScales
from hydromom.quadrature import power_moment
from hydromom.specfun import ConvergenceError, _adaptive_panels, gauss_legendre_panels
from hydromom.wavefun import (
    generating_closed,
    generating_partial,
    momentum_norm_exact,
    momentum_radial,
    momentum_radial_numeric,
    position_radial,
)

from oracles import gegenbauer_forward, laguerre_forward, worst_against_mpmath


class TestQuantumState:
    def test_valid(self):
        s = QuantumState(3, 2, -1)
        assert (s.n, s.l, s.m) == (3, 2, -1)
        assert QuantumState(np.int64(3), np.int32(1)).n == 3

    @pytest.mark.parametrize(
        "n,l,m",
        [
            (0, 0, 0),
            (1, 1, 0),
            (2, -1, 0),
            (2, 1, 2),
            (3, 3, 0),
            (2.5, 1, 0),
            (True, 0, 0),
            (3, 1.0, 0),
        ],
    )
    def test_invalid(self, n, l, m):
        with pytest.raises(ValueError):
            QuantumState(n, l, m)


class TestPhysicalScales:
    def test_kappa(self):
        s = PhysicalScales(a=2.0)
        assert s.kappa(4) == pytest.approx(1.0 / 8.0)

    def test_every_field_is_read(self):
        # The physics layer and the CLI read each of these; nothing else is carried.
        assert [f.name for f in dataclasses.fields(PhysicalScales)] == ["a", "hbar", "alpha", "b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalScales(a=0.0)
        with pytest.raises(ValueError):
            PhysicalScales(b=-1.0)
        for name in ("a", "hbar", "alpha", "b"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name}={bad!r}"):
                    PhysicalScales(**{name: bad})


class TestMomentumRadial:
    def test_ground_state_closed_form(self):
        kap = 0.8
        k = np.linspace(0.0, 6.0, 31)
        expected = 16.0 * math.pi * kap**2.5 / (k * k + kap * kap) ** 2
        got = momentum_radial(QuantumState(1, 0), kap, k)
        assert np.max(np.abs(got / expected - 1.0)) < 1e-14

    def test_circular_state_at_own_scale_does_not_underflow(self):
        # (4 k kappa)^84 underflows at kappa = 1/85; the amplitude does not.
        n, l = 85, 84
        kap = 1.0 / n
        k = 0.5 * kap
        k2 = k * k + kap * kap
        log_want = (
            math.log(16.0 * math.pi)
            + 2.5 * math.log(kap)
            + 0.5 * (math.log(n) - math.lgamma(n + l + 1))
            + math.lgamma(l + 1)
            + l * math.log(4.0 * k * kap / k2)
            - 2.0 * math.log(k2)
        )
        got = momentum_radial(QuantumState(n, l), kap, k)
        assert got > 0.0
        assert got == pytest.approx(math.exp(log_want), rel=1e-12)

    def test_k_zero_limits(self):
        assert momentum_radial(QuantumState(2, 1), 0.5, 0.0) == 0.0
        assert momentum_radial(QuantumState(2, 0), 0.5, 0.0) != 0.0

    @pytest.mark.parametrize("n,l", [(2, 0), (4, 1), (5, 0), (6, 3)])
    def test_sign_change_count(self, n, l):
        # Exactly n-l-1 radial nodes in (0, inf), inherited from the
        # ultraspherical zeros inside (-1, 1).
        kap = 1.0 / n
        k = np.geomspace(1e-3 * kap, 60.0 * kap, 4001)
        vals = momentum_radial(QuantumState(n, l), kap, k)
        signs = np.sign(vals)
        flips = int(np.sum(signs[1:] * signs[:-1] < 0))
        assert flips == n - l - 1

    def test_normalization_via_quadrature(self):
        # integral |P|^2 k^2 dk/(8 pi^3) = 1, integrated in k directly.
        for (n, l) in [(1, 0), (3, 1), (5, 4), (8, 2)]:
            st = QuantumState(n, l)
            kap = 1.0 / n

            def f(theta):
                k = kap * np.tan(theta)
                amp = momentum_radial(st, kap, k)
                return amp * amp * k * k * kap / np.cos(theta) ** 2 / (8.0 * math.pi**3)

            val, _ = _adaptive_panels(f, 0.0, math.pi / 2 * (1 - 1e-13), 1e-11, initial_panels=16)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_normalization_exact_identity(self):
        for n in range(1, 21):
            for l in range(n):
                assert momentum_norm_exact(QuantumState(n, l)) == 1


class TestPositionRadial:
    def test_ground_state(self):
        kap = 1.3
        r = np.linspace(0.0, 5.0, 11)
        expected = 2.0 * kap**1.5 * np.exp(-kap * r)
        assert np.max(np.abs(position_radial(QuantumState(1, 0), kap, r) - expected)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_radial_norm_gauss_laguerre(self, n):
        for l in range(n):
            kap = 1.0 / n
            t, w = roots_genlaguerre(2 * n + 24, 0)
            r = t / (2.0 * kap)
            vals = position_radial(QuantumState(n, l), kap, r) ** 2 * np.exp(t) * r * r / (2.0 * kap)
            assert float(np.dot(w, vals)) == pytest.approx(1.0, abs=1e-11)

    def test_parseval_position_equals_momentum_norm(self):
        # Unitarity: both norms are 1 to quadrature accuracy.
        n, l = 4, 2
        kap = 1.0 / n
        t, w = roots_genlaguerre(60, 0)
        r = t / (2.0 * kap)
        pos = float(
            np.dot(w, position_radial(QuantumState(n, l), kap, r) ** 2 * np.exp(t) * r * r / (2.0 * kap))
        )
        mom = power_moment(QuantumState(n, l), 0.0).value
        assert pos == pytest.approx(mom, abs=1e-10)


def _momentum_mpmath(mp, n, l, kappa, k):
    """P_nl(k) in its textbook form, for an mpmath ``k``."""
    kap = mp.mpf(kappa)
    norm = 16 * mp.pi * kap**2.5 * mp.sqrt(n * mp.factorial(n - l - 1) / mp.factorial(n + l))
    x = (k * k - kap * kap) / (k * k + kap * kap)
    power = (4 * k * kap) ** l * mp.factorial(l) / (k * k + kap * kap) ** (l + 2)
    return norm * power * gegenbauer_forward(n - l - 1, l + 1, x)


def _position_mpmath(mp, n, l, kappa, r):
    """R_nl(r) in its textbook form, for an mpmath ``r``."""
    t = 2 * mp.mpf(kappa) * r
    norm = 2 * mp.mpf(kappa) ** 1.5 * mp.sqrt(mp.factorial(n - l - 1) / (n * mp.factorial(n + l)))
    return norm * mp.exp(-t / 2) * t**l * laguerre_forward(n - l - 1, 2 * l + 1, t)


class TestAgainstMpmath:
    # The textbook forms of P_nl and R_nl at 50 digits, with no shared
    # normalisation code, at the float arguments the library sees.
    STATES = [
        (10, 3, "one"), (30, 10, "one"), (85, 40, "one"), (83, 82, "one"),
        (146, 73, "state"), (200, 100, "state"),
    ]

    @pytest.mark.parametrize("n,l,scale", STATES)
    def test_position_radial(self, n, l, scale):
        kappa = 1.0 if scale == "one" else 1.0 / n
        r = np.linspace(0.0, 3.0 * n / kappa, 201)

        worst = worst_against_mpmath(
            position_radial(QuantumState(n, l), kappa, r), lambda mp, r: _position_mpmath(mp, n, l, kappa, r), r
        )
        assert worst <= 2e-13

    @pytest.mark.parametrize("n,l,scale", STATES)
    def test_momentum_radial(self, n, l, scale):
        kappa = 1.0 if scale == "one" else 1.0 / n
        k = np.linspace(0.0, 5.0 * kappa, 201)

        worst = worst_against_mpmath(
            momentum_radial(QuantumState(n, l), kappa, k), lambda mp, k: _momentum_mpmath(mp, n, l, kappa, k), k
        )
        assert worst <= 2e-13


class TestSqrtNorm:
    # Past n of about 740 the float N = num/den underflows at middle l,
    # while sqrt(N) is a normal double; the amplitudes take sqrt(N) from the
    # integer pair instead of returning a silent 0.0.
    @pytest.mark.parametrize("n,l", [(1000, 194), (800, 300)])
    def test_matches_lgamma(self, n, l):
        log_norm = math.log(n) + math.lgamma(n - l) + 2.0 * (l * math.log(2.0) + math.lgamma(l + 1))
        want = math.exp(0.5 * (log_norm - math.lgamma(n + l + 1)))
        assert abs(_sqrt_norm(QuantumState(n, l)) / want - 1.0) <= 1e-13

    @pytest.mark.parametrize("n,l", [(1000, 194), (800, 300)])
    def test_momentum_amplitude_is_no_silent_zero(self, n, l):
        kappa = 1.0 / n
        with np.errstate(over="ignore", invalid="ignore"):
            values = momentum_radial(QuantumState(n, l), kappa, np.linspace(0.0, 5.0 * kappa, 200))
        # The few non-finite points (k = 0 among them) are the float
        # Gegenbauer recurrence's overflow, a separate defect.
        finite = values[np.isfinite(values)]
        assert finite.size >= 190
        assert np.all(finite != 0.0)

    def test_momentum_amplitude_where_prefactor_times_power_underflows(self):
        # At (800, 300), kappa = 1/800, on the 7th point of the grid above,
        # 16 pi kappa^2.5 sqrt(N) (2 k kappa/(k^2+kappa^2))^l underflows to 0
        # while C_499^301 = -7.37e307 is finite: power * C is formed first.
        n, l, kappa = 800, 300, 1.0 / 800
        k = float(np.linspace(0.0, 5.0 * kappa, 200)[6])
        want = self._momentum(n, l, kappa, k)
        assert want == pytest.approx(-6.9457e-9, rel=1e-4)
        assert momentum_radial(QuantumState(n, l), kappa, k) == pytest.approx(want, rel=1e-12)
        assert momentum_radial(QuantumState(n, l), kappa, np.array([k]))[0] == pytest.approx(want, rel=1e-12)

    def test_momentum_amplitude_underflows_only_where_its_value_does(self):
        # At (700, 350) on k/kappa in [0.01, 12] the prefactor times the power
        # alone underflows at 100 points whose values reach 1e-89; only the
        # first point's value, about 1.6e-444, is below the float range.
        n, l, kappa = 700, 350, 1.0 / 700
        k = np.linspace(0.01, 12.0, 200) * kappa
        values = momentum_radial(QuantumState(n, l), kappa, k)
        assert np.all(np.isfinite(values)) and np.flatnonzero(values == 0.0).tolist() == [0]
        for i in (1, 149, 199):
            assert values[i] == pytest.approx(self._momentum(n, l, kappa, float(k[i])), rel=1e-12), i

    @pytest.mark.parametrize("n,l,points", [(800, 300, (4,)), (1000, 194, (1,)), (700, 350, range(1, 7))])
    def test_position_amplitude_underflows_only_where_its_value_does(self, n, l, points):
        # On t = 2 kappa r in [1, 4n + 4], kappa = 1/n, the norm times the
        # envelope, or the envelope alone, underflows at these points while
        # L is finite and the value is a normal float (3.9e-302 at point 1 of
        # (700, 350)).  The one zero left is point 0 of (700, 350), whose
        # value, about 1.8e-708, is below the float range.
        kappa = 1.0 / n
        r = np.linspace(1.0, 4.0 * n + 4.0, 200) / (2.0 * kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            values = position_radial(QuantumState(n, l), kappa, r)
        assert np.flatnonzero(values == 0.0).tolist() == ([0] if (n, l) == (700, 350) else [])
        for i in points:
            assert values[i] == pytest.approx(self._position(n, l, kappa, float(r[i])), rel=1e-12), i

    @staticmethod
    def _momentum(n, l, kappa, k):
        """P_nl(k) at 50 digits, rounded to a float."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            return float(_momentum_mpmath(mp, n, l, kappa, mp.mpf(k)))

    @staticmethod
    def _position(n, l, kappa, r):
        """R_nl(r) at 50 digits, rounded to a float."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            return float(_position_mpmath(mp, n, l, kappa, mp.mpf(r)))

    @pytest.mark.parametrize("n,l", [(1481, 655), (1500, 750)])
    def test_subnormal_root_refused(self, n, l):
        # sqrt(N) itself leaves the normal range here (2.2e-308 at (1481, 655)).
        with pytest.raises(OverflowError, match="leaves the float range"):
            _sqrt_norm(QuantumState(n, l))

    def test_normal_root_at_the_edge(self):
        assert sys.float_info.min <= _sqrt_norm(QuantumState(1480, 740)) < 1.0

    def test_bit_identical_where_the_float_norm_is_normal(self):
        for n in range(1, 301, 7):
            for l in range(0, n, 3):
                num, den = _norm_ratio(QuantumState(n, l))
                assert _sqrt_norm(QuantumState(n, l)) == math.sqrt(num / den), (n, l)


class TestOrthogonalityAcrossN:
    @pytest.mark.parametrize("n1,n2,l", [(1, 2, 0), (2, 3, 1), (3, 5, 2), (4, 8, 0), (7, 8, 6)])
    def test_off_diagonal(self, n1, n2, l):
        # Each wavefunction carries its own kappa = 1/(n a): orthogonality
        # holds across n at fixed l despite the different radial scales.
        s1, s2 = QuantumState(n1, l), QuantumState(n2, l)
        k1, k2 = 1.0 / n1, 1.0 / n2
        kbar = math.sqrt(k1 * k2)

        def f(theta):
            k = kbar * np.tan(theta)
            v = momentum_radial(s1, k1, k) * momentum_radial(s2, k2, k) * k * k
            return v * kbar / np.cos(theta) ** 2 / (8.0 * math.pi**3)

        val, _ = _adaptive_panels(
            f, 0.0, math.pi / 2 * (1 - 1e-13), 1e-11, initial_panels=16, abs_tol=1e-10
        )
        assert abs(val) < 1e-8


class TestBesselTransform:
    def test_ground_state_at_kappa(self):
        kap = 1.0
        expected = 16.0 * math.pi / 4.0
        assert momentum_radial_numeric(QuantumState(1, 0), kap, kap) == pytest.approx(
            expected, rel=1e-8
        )

    @pytest.mark.parametrize("kfac", [0.5, 1.0, 3.0])
    def test_n3_l1_sample_momenta(self, kfac):
        st = QuantumState(3, 1)
        kap = 1.0 / 3.0
        k = kfac * kap
        got = momentum_radial_numeric(st, kap, k)
        want = momentum_radial(st, kap, k)
        if want == 0.0:
            assert abs(got) < 1e-10
        else:
            assert got == pytest.approx(want, rel=1e-8)

    def test_high_angular_momentum(self):
        st = QuantumState(6, 5)
        kap = 1.0 / 6.0
        got = momentum_radial_numeric(st, kap, kap)
        want = momentum_radial(st, kap, kap)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_k(self, k):
        with pytest.raises(ValueError, match=f"k={k!r}"):
            momentum_radial_numeric(QuantumState(1, 0), 1.0, k)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_kappa(self, kappa):
        with pytest.raises(ValueError, match=f"kappa={kappa!r}"):
            momentum_radial_numeric(QuantumState(1, 0), kappa, 1.0)


# The Bessel-oracle domain of the shadow benchmark workload: n <= 30, k on a
# ladder from 0.3 to 2.55 kappa.
K_LADDER = tuple(0.3 + 0.45 * i for i in range(6))
SHADOW_TRIANGLE = [(n, l) for n in range(1, 31) for l in range(n)]


def _old_cutoff(n, l, kappa):
    return n * (40.0 + 10.0 * l) / kappa


def _oracle_with_cutoff(state, kappa, k):
    """momentum_radial_numeric's value and the radius it integrated up to."""
    with pytest.MonkeyPatch.context() as mp:
        passes = _spy_on_passes(mp)
        value = momentum_radial_numeric(state, kappa, k)
    return value, passes[-1][0]


def _spy_on_passes(monkeypatch) -> list:
    """(end, panels) of every composite-rule pass the oracle makes: the
    sizing pass looks the rule up in wavefun, the engine in specfun."""
    passes = []

    def spy(a, b, panels):
        passes.append((b, panels))
        return gauss_legendre_panels(a, b, panels)

    monkeypatch.setattr(wavefun, "gauss_legendre_panels", spy)
    monkeypatch.setattr(specfun, "gauss_legendre_panels", spy)
    return passes


@pytest.fixture(scope="module")
def shadow_sweep():
    """Every state with n <= 30 at kappa = 1, and every fifth one at kappa = 1/n,
    each at one k of the ladder: rows (n, l, kappa, k, value, cutoff)."""
    rows = []
    for idx, (n, l) in enumerate(SHADOW_TRIANGLE):
        for kappa in (1.0, 1.0 / n) if idx % 5 == 0 else (1.0,):
            k = kappa * K_LADDER[idx % len(K_LADDER)]
            rows.append((n, l, kappa, k, *_oracle_with_cutoff(QuantumState(n, l), kappa, k)))
    return rows


class TestBesselCutoff:
    def test_oracle_matches_closed_form_over_shadow_domain(self, shadow_sweep):
        worst = 0.0
        for n, l, kappa, k, value, _ in shadow_sweep:
            st = QuantumState(n, l)
            want = momentum_radial(st, kappa, k)
            peak = float(np.max(np.abs(momentum_radial(st, kappa, np.linspace(0.0, 5.0 * kappa, 200)))))
            worst = max(worst, abs(value - want) / max(abs(want), 1e-2 * peak))
        assert worst <= 1e-12

    def test_cutoff_never_exceeds_old_and_shrinks_with_n(self, shadow_sweep):
        for n, l, kappa, _, _, cutoff in shadow_sweep:
            ratio = _old_cutoff(n, l, kappa) / cutoff
            assert ratio >= 1.0, (n, l, kappa)
            if n >= 10:
                assert ratio >= (5.0 if 2 * l >= n else 2.0), (n, l, kappa, ratio)

    @pytest.mark.parametrize(
        "n,l,kfac",
        [
            (30, 29, 0.05), (27, 26, 2.55), (20, 19, 0.1), (29, 1, 0.3),
            (30, 0, 2.55), (15, 7, 0.05), (6, 5, 0.01), (1, 0, 1.0),
        ],
    )
    @pytest.mark.parametrize("scale", ["one", "state"])
    def test_discarded_tail_is_bounded(self, n, l, kfac, scale):
        # What the new cutoff drops, up to the old one, is at most 1e-15 of
        # the integral of |integrand|.
        st = QuantumState(n, l)
        kappa = 1.0 if scale == "one" else 1.0 / n
        k = kfac * kappa
        _, cutoff = _oracle_with_cutoff(st, kappa, k)
        old = _old_cutoff(n, l, kappa)

        def abs_integral(a, b):
            panels = max(16, int(math.ceil((b - a) / min(math.pi / k, 1.0 / kappa))))
            r, w = gauss_legendre_panels(a, b, panels)
            vals = spherical_jn(l, k * r) * position_radial(st, kappa, r) * r * r
            return 4.0 * math.pi * float(np.dot(w, np.abs(vals)))

        total = abs_integral(0.0, cutoff)
        assert total > 0.0
        if cutoff < old:
            assert abs_integral(cutoff, old) <= 1e-15 * total


class TestBesselHighAngularMomentum:
    # Past the n <= 30 shadow domain: the oracle holds the same bound at
    # circular and near-circular states up to l = 79.
    @pytest.mark.parametrize("l", [40, 60, 79])
    def test_oracle_matches_closed_form(self, l):
        worst = 0.0
        for n in (l + 1, l + 5):
            st = QuantumState(n, l)
            for kappa in (1.0, 1.0 / n):
                peak = float(np.max(np.abs(momentum_radial(st, kappa, np.linspace(0.0, 5.0 * kappa, 200)))))
                for kfac in (0.3, 2.55):
                    want = momentum_radial(st, kappa, kfac * kappa)
                    got = momentum_radial_numeric(st, kappa, kfac * kappa)
                    worst = max(worst, abs(got - want) / max(abs(want), 1e-2 * peak))
        assert worst <= 1e-12


class TestBesselLargeN:
    # Past l = 79 at the state's own scale, where the position norm used to
    # be subnormal (146, 73) or 0 * inf (120, 119).
    @pytest.mark.parametrize("n,l", [(146, 73), (120, 119)])
    def test_oracle_matches_closed_form(self, n, l):
        st = QuantumState(n, l)
        kappa = 1.0 / n
        peak = float(np.max(np.abs(momentum_radial(st, kappa, np.linspace(0.0, 5.0 * kappa, 200)))))
        worst = 0.0
        for kfac in (0.3, 1.2, 2.55):
            want = momentum_radial(st, kappa, kfac * kappa)
            got = momentum_radial_numeric(st, kappa, kfac * kappa)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-2 * peak))
        assert worst <= 1e-12

    @pytest.mark.parametrize("fill", [0.0, math.nan])
    def test_raises_at_once_without_a_magnitude(self, monkeypatch, fill):
        # A wavefunction that underflowed to zero or turned non-finite gives
        # no magnitude to size the tail against: the oracle stops after its
        # first pass instead of growing the grid to the fixed cutoff.
        passes = _spy_on_passes(monkeypatch)
        monkeypatch.setattr(wavefun, "position_radial", lambda state, kappa, r: np.full_like(r, fill))
        with pytest.raises(ArithmeticError, match=r"QuantumState\(n=30, l=10"):
            momentum_radial_numeric(QuantumState(30, 10), 1.0 / 30, 1.0 / 30)
        assert len(passes) == 1


class TestBesselOnSharedEngine:
    # The oracle's refinement is the shared panel engine: its failures are
    # the engine's ConvergenceError, with the engine's cap and fail-fast.
    def test_stall_raises_convergence_error(self, monkeypatch):
        passes = _spy_on_passes(monkeypatch)
        engine = specfun._adaptive_panels
        # Negative tolerances: no change between two passes can meet them.
        monkeypatch.setattr(wavefun, "_ORACLE_REL_TOL", -1.0)
        monkeypatch.setattr(
            wavefun, "_adaptive_panels", lambda f, a, b, rel_tol, panels, floor: engine(f, a, b, rel_tol, panels, -1.0)
        )
        with pytest.raises(ConvergenceError, match="stalled"):
            momentum_radial_numeric(QuantumState(3, 1), 1.0, 0.75)
        # The sizing pass, the engine's first pass and its 10 doublings.
        assert len(passes) == 12
        assert passes[-1][1] == passes[1][1] * 2**10

    def test_non_finite_engine_pass_fails_fast(self, monkeypatch):
        # NaN only past the sizing pass's range: the engine's first pass, out
        # to the tail cutoff, is the first non-finite one, and no doubling follows.
        n, l, kappa = 30, 10, 1.0 / 30
        st = QuantumState(n, l)
        edge = (4.0 * n + 4.0) / (2.0 * kappa)

        calls = []

        def nan_past_sizing_range(state, kap, r):
            calls.append(r.size)
            return np.where(r <= edge, position_radial(state, kap, r), np.nan)

        passes = _spy_on_passes(monkeypatch)
        monkeypatch.setattr(wavefun, "position_radial", nan_past_sizing_range)
        with pytest.raises(ConvergenceError, match="not finite") as info:
            momentum_radial_numeric(st, kappa, kappa)
        # The sizing pass, then the two rules of the engine's first two
        # passes, which share one integrand call: two calls in all.
        assert len(passes) == 3
        assert len(calls) == 2
        assert f"the pass on {passes[1][1]} panels" in str(info.value)


class TestLaplaceTransformIdentity:
    # integral t^(nu+1) e^(-beta t) J_nu(gamma t) dt =
    #   2^(nu+1) beta gamma^nu Gamma(nu+3/2) / (sqrt(pi) (beta^2+gamma^2)^(nu+3/2))
    # at nu = l + 1/2, beta = 1; this is the workhorse behind the closed-form
    # momentum amplitudes, so it gets its own witness.
    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_identity(self, l, gamma):
        nu = l + 0.5

        def f(t):
            bess = np.sqrt(2.0 * gamma * t / math.pi) * spherical_jn(l, gamma * t)
            return t ** (nu + 1) * np.exp(-t) * bess

        lhs, _ = _adaptive_panels(f, 0.0, 60.0 + 10.0 * l, 1e-11, initial_panels=16)
        rhs = (
            2.0 ** (nu + 1)
            * gamma**nu
            * math.gamma(nu + 1.5)
            / (math.sqrt(math.pi) * (1.0 + gamma * gamma) ** (nu + 1.5))
        )
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestDomain:
    # Outside their domain the amplitudes returned NaN, complex numbers or a
    # silent 0.0; each input is refused with ValueError instead.
    @pytest.mark.parametrize(
        "kappa, r",
        [(1.0, -0.5), (1.0, math.inf), (1.0, math.nan), (-1.0, 1.0), (math.nan, 1.0), (1.0, np.array([0.0, 1.0, -0.5]))],
    )
    def test_position_radial_rejects(self, kappa, r):
        with pytest.raises(ValueError):
            position_radial(QuantumState(2, 1), kappa, r)

    @pytest.mark.parametrize(
        "kappa, k",
        [
            (-1.0, 1.0),
            (0.0, 1.0),
            (math.inf, 1.0),
            (1.0, math.inf),
            (1.0, math.nan),
            (1.0, -1.0),
            (1.0, np.array([0.0, math.nan])),
        ],
    )
    def test_momentum_radial_rejects(self, kappa, k):
        with pytest.raises(ValueError):
            momentum_radial(QuantumState(2, 1), kappa, k)


class TestGeneratingFunction:
    def test_rejects_bad_z(self):
        with pytest.raises(ValueError):
            generating_closed(0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            generating_partial(0, 1.0, 1.0, -1.0, 5)

    @pytest.mark.parametrize("kappa, k, z", [(1.0, 1.0, math.nan), (-1.0, 1.0, 0.5), (1.0, math.nan, 0.5)])
    def test_closed_form_rejects(self, kappa, k, z):
        with pytest.raises(ValueError):
            generating_closed(1, kappa, k, z)

    def test_partial_sum_rejects_nan_z(self):
        with pytest.raises(ValueError):
            generating_partial(1, 1.0, 1.0, math.nan, 5)

    @pytest.mark.parametrize(
        "call, bad",
        [
            pytest.param(call, bad, id=f"{name}-{bad!r}")
            for name, call, outside in [
                ("generating_closed l", lambda l: generating_closed(l, 1.0, 0.5, 0.3), -1),
                ("generating_partial l", lambda l: generating_partial(l, 1.0, 0.5, 0.3, 5), -1),
                ("generating_partial terms", lambda terms: generating_partial(1, 1.0, 0.5, 0.3, terms), 0),
            ]
            for bad in (True, 2.5, 3.0, "3", outside)
        ],
    )
    def test_integers_checked_as_in_the_exact_layer(self, call, bad):
        # The package rule of tests/test_exact.py::_entry_points: a bool, a
        # float or an out-of-domain integer is a ValueError, never a value
        # and never a TypeError.
        with pytest.raises(ValueError):
            call(bad)

    def test_single_term_at_z_zero(self):
        # Only nu = 0 survives, so one term is already the full sum.
        kap, k = 0.9, 1.7
        assert generating_partial(2, kap, k, 0.0, 1) == pytest.approx(
            generating_closed(2, kap, k, 0.0), rel=1e-14
        )

    def test_positive_for_all_arguments(self):
        for z in (-0.9, -0.2, 0.4, 0.8):
            for k in (0.1, 1.0, 7.0):
                assert generating_closed(1, 0.6, k, z) > 0.0

    @pytest.mark.parametrize(
        "l,kfac,z,terms,tol",
        [
            (0, 1.0, 0.5, 40, 1e-8),
            (0, 1.0, -0.5, 40, 1e-8),
            (2, 2.0, -0.5, 40, 1e-7),
            (2, 2.0, -0.5, 60, 1e-8),
            (1, 0.7, 0.5, 40, 1e-8),
        ],
    )
    def test_partial_sums_converge_to_closed(self, l, kfac, z, terms, tol):
        # Term magnitudes grow like nu^(l+1) |z|^nu, so the l = 2 tail at 40
        # terms sits near 6e-8 and needs a few more terms for 1e-8.
        kap = 0.77
        k = kfac * kap
        assert generating_partial(l, kap, k, z, terms) == pytest.approx(
            generating_closed(l, kap, k, z), rel=tol
        )

    def test_halved_prefactor_variant_is_half_the_series(self):
        # A variant of the closed form with half this normalization appears
        # in some derivations; the series limit pins the constant used here.
        kap = k = 0.77
        series = generating_partial(0, kap, k, 0.5, 60)
        assert 0.5 * generating_closed(0, kap, k, 0.5) == pytest.approx(0.5 * series, rel=1e-10)
        assert generating_closed(0, kap, k, 0.5) == pytest.approx(series, rel=1e-10)
