import math

import pytest

from hydromom.exact import QuantumState
from hydromom.invp import inv_p_exact
from hydromom.physics import PhysicalScales, effective_potential_max, energy_shift, inv_p_physical

from oracles import gamma_half_over_sqrt_pi as g


UNIT = PhysicalScales()


class TestInvPPhysical:
    def test_ground_state(self):
        assert inv_p_physical(QuantumState(1, 0), UNIT) == pytest.approx(
            16.0 / (3.0 * math.pi), rel=1e-14
        )

    def test_circular_route_agrees(self):
        # (2 pi a/h) G(n+1) G(n+2) / (G(n+1/2) G(n+3/2)) against
        # (n a/hbar) <hbar kappa/P> for (2, 1); 2 pi a/h is just a/hbar.
        n = 2
        ratio = math.factorial(n) * math.factorial(n + 1) / (g(n) * g(n + 1))
        closed = float(ratio) / math.pi
        assert inv_p_physical(QuantumState(2, 1), UNIT) == pytest.approx(closed, rel=1e-14)

    def test_linear_in_bohr_radius(self):
        small = inv_p_physical(QuantumState(3, 1), PhysicalScales(a=1.0))
        double = inv_p_physical(QuantumState(3, 1), PhysicalScales(a=2.0))
        assert double == pytest.approx(2.0 * small, rel=1e-14)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_unit_consistency(self, n):
        # <1/P> * hbar kappa recovers the dimensionless value.
        scales = PhysicalScales(a=0.529, hbar=1.0546)
        for l in range(n):
            phys = inv_p_physical(QuantumState(n, l), scales)
            kappa = scales.kappa(n)
            assert phys * scales.hbar * kappa == pytest.approx(
                inv_p_exact(n, l)[0].to_float(), rel=1e-12
            )


class TestEnergyShift:
    def test_zero_coupling(self):
        assert energy_shift(QuantumState(4, 2), PhysicalScales(b=0.0)) == 0.0

    def test_ground_state_small_b(self):
        got = energy_shift(QuantumState(1, 0), PhysicalScales(b=1e-6))
        assert got == pytest.approx(-16e-6 / (3.0 * math.pi), rel=1e-13)

    def test_linearity_in_couplings(self):
        st = QuantumState(3, 0)
        base = energy_shift(st, PhysicalScales(alpha=1.0, b=1e-4))
        assert energy_shift(st, PhysicalScales(alpha=3.0, b=1e-4)) == pytest.approx(3 * base)
        assert energy_shift(st, PhysicalScales(alpha=1.0, b=5e-4)) == pytest.approx(5 * base)

    def test_lowest_l_most_disrupted(self):
        # At fixed n the magnitude of the shift decreases with l.
        scales = PhysicalScales(b=1e-5)
        shifts = [abs(energy_shift(QuantumState(6, l), scales)) for l in range(6)]
        assert all(a > b for a, b in zip(shifts, shifts[1:]))

    def test_grows_with_n_at_fixed_l(self):
        scales = PhysicalScales(b=1e-5)
        shifts = [abs(energy_shift(QuantumState(n, 0), scales)) for n in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(shifts, shifts[1:]))


class TestOverflow:
    def test_inv_p_outside_double_range(self):
        with pytest.raises(OverflowError, match="<1/P>"):
            inv_p_physical(QuantumState(1, 0), PhysicalScales(a=1e300, hbar=1e-300))

    def test_energy_shift_outside_double_range(self):
        # <1/P> itself is finite here; only the product with alpha b overflows.
        with pytest.raises(OverflowError, match="energy shift"):
            energy_shift(QuantumState(1, 0), PhysicalScales(alpha=1e200, b=1e200))

    @pytest.mark.parametrize(
        "scales",
        [PhysicalScales(a=1e-300, hbar=1e100), PhysicalScales(a=1e-320)],
        ids=["zero", "subnormal"],
    )
    def test_inv_p_below_normal_range(self, scales):
        with pytest.raises(FloatingPointError, match="<1/P>"):
            inv_p_physical(QuantumState(3, 1), scales)
        with pytest.raises(FloatingPointError, match="<1/P>"):
            energy_shift(QuantumState(3, 1), PhysicalScales(a=scales.a, hbar=scales.hbar, b=1.0))

    def test_energy_shift_below_normal_range(self):
        # <1/P> itself is normal here; only the product with alpha b underflows.
        with pytest.raises(FloatingPointError, match="energy shift"):
            energy_shift(QuantumState(1, 0), PhysicalScales(alpha=1e-200, b=1e-200))


class TestEffectivePotentialMax:
    def test_stationary_point_value(self):
        # At b L = alpha^2 the maximum sits at -alpha^2.
        alpha = 1.7
        assert effective_potential_max(alpha**2 / 0.3, alpha, 0.3) == pytest.approx(
            -(alpha**2), rel=1e-14
        )

    def test_below_zero_iff_bl_under_threshold(self):
        alpha = 1.0
        for bl in (0.1, 1.0, 3.9):
            assert effective_potential_max(bl, alpha, 1.0) < 0.0
        assert effective_potential_max(4.1, alpha, 1.0) > 0.0

    def test_stationarity_in_bl(self):
        # d E0 / d(bL) = 1 - alpha/sqrt(bL) vanishes at bL = alpha^2.
        alpha = 2.0
        bl = alpha**2
        h = 1e-6
        fd = (
            effective_potential_max(bl + h, alpha, 1.0)
            - effective_potential_max(bl - h, alpha, 1.0)
        ) / (2.0 * h)
        assert abs(fd) < 1e-5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_potential_max(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position", range(3))
    def test_rejects_non_finite(self, bad, position):
        args = [2.0, 1.0, 0.5]
        args[position] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            effective_potential_max(*args)
