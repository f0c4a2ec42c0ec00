"""Sum rules tying together all <hbar*kappa/P> values at fixed n.

The ultraspherical addition theorem in its four-dimensional form,

    C_{n-1}^1(cos^2 t + sin^2 t cos u) =
        sum_l (2l+1) (l!)^2 (n-l-1)!/(n+l)! (2 sin t)^{2l}
              [C_{n-l-1}^{l+1}(cos t)]^2 P_l(cos u),

projects onto the expectation values and yields, at the endpoints y = +-1 of
the Legendre variable,

    sum_l (2l+1)       <hk/P>_nl = 16 n^2 / (3 pi)           (plain rule)
    sum_l (2l+1)(-1)^l <hk/P>_nl = (n/pi) [ 4n/(4n^2-1)
                                   + psi(n/2+3/4) - psi(n/2+1/4)
                                   + (-1)^(n-1) pi ]          (alternating)

both of which are verified here exactly, in pi-graded rational arithmetic.
Both rules are exact and load no numpy; only ``legendre_projection`` and
``addition_identity_residual`` import the float layer, when called.
The alternating right side rests on the integrals J_m = integral over (-1,1)
of U_m(2x^2-1), with J_m + J_{m-1} = 2/(2m+1) and J_{-1} = 0; the digamma
arguments n/2 + 3/4 and n/2 + 1/4 are forced by that recurrence.  A
misprinted variant with arguments n + 3/4 and n + 1/4 circulates; it is kept
here as a documented counterexample (it already fails at n = 1, producing
2 - 4/(3 pi) against the true 16/(3 pi)).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import (
    ExpectationResult,
    PiGradedRational,
    QuantumState,
    _require_integer,
    _sqrt_norm,
    digamma_quarter_diff,
)
from .invp import _family_pairs

__all__ = [
    "sum_rule_even",
    "sum_rule_alternating",
    "alternating_rhs_misprinted",
    "u_integral",
    "u_integral_recurrence",
    "legendre_projection",
    "addition_identity_residual",
]


def _weighted_lhs(n: int, sign: int) -> PiGradedRational:
    """sum_l (2l+1) sign^l <hk/P>_nl over one lcm denominator, on integers."""
    pairs = _family_pairs(n)
    den = math.lcm(*(q for _, q in pairs))
    total = sum((2 * l + 1) * sign**l * p * (den // q) for l, (p, q) in enumerate(pairs))
    return PiGradedRational(Fraction(total, den), -1)


def sum_rule_even(n: int) -> tuple[PiGradedRational, PiGradedRational]:
    """Both sides of sum_l (2l+1) <hk/P>_nl = 16 n^2/(3 pi), exactly."""
    n = QuantumState(n, 0).n
    lhs = _weighted_lhs(n, +1)
    rhs = PiGradedRational(Fraction(16 * n * n, 3), -1)
    return lhs, rhs


def u_integral(n: int) -> tuple[Fraction, Fraction]:
    """J_n = integral over (-1,1) of U_n(2x^2-1), as (rational, pi coefficient).

    Uses the closed form 2 J_n = psi(n/2+5/4) - psi(n/2+3/4) + (-1)^n pi with
    the quarter-integer digammas reduced exactly; the pi pieces cancel
    structurally, so the pi coefficient returned is always zero (the integral
    of a polynomial is rational).  J_{-1} = 0 by the negative-degree
    convention.
    """
    n = _require_integer("n", n)
    if n < -1:
        raise ValueError(f"need n >= -1, got {n}")
    if n == -1:
        return Fraction(0), Fraction(0)
    q, c = digamma_quarter_diff(Fraction(n, 2) + Fraction(5, 4), Fraction(n, 2) + Fraction(3, 4))
    return q / 2, (c + (-1) ** n) / 2


def u_integral_recurrence(n: int) -> Fraction:
    """J_n by the forward recurrence J_m = 2/(2m+1) - J_{m-1} from J_{-1} = 0."""
    n = _require_integer("n", n)
    if n < -1:
        raise ValueError(f"need n >= -1, got {n}")
    value = Fraction(0)
    for m in range(0, n + 1):
        value = Fraction(2, 2 * m + 1) - value
    return value


def sum_rule_alternating(n: int) -> tuple[PiGradedRational, PiGradedRational]:
    """Both sides of the alternating rule, exactly (grade -1 rationals).

    The right side is (n/pi) [4n/(4n^2-1) + psi(n/2+3/4) - psi(n/2+1/4)
    + (-1)^(n-1) pi]; the digamma reflection contributes +-pi which cancels
    the explicit (-1)^(n-1) pi for every n, leaving a pure 1/pi grade.
    """
    n = QuantumState(n, 0).n
    lhs = _weighted_lhs(n, -1)
    q, c = digamma_quarter_diff(Fraction(n, 2) + Fraction(3, 4), Fraction(n, 2) + Fraction(1, 4))
    pi_part = n * (c + (-1) ** (n - 1))
    if pi_part != 0:
        raise AssertionError("pi terms failed to cancel; quarter-digamma reduction is wrong")
    rhs = PiGradedRational(n * (Fraction(4 * n, 4 * n * n - 1) + q), -1)
    return lhs, rhs


def alternating_rhs_misprinted(n: int) -> tuple[PiGradedRational, PiGradedRational]:
    """The misprinted alternating right side, split into (1/pi, 1) grades.

    Same structure but with digamma arguments n + 3/4 and n + 1/4.  For odd n
    the pi terms now add instead of cancel, leaving a grade-0 remainder; at
    n = 1 the value is 2 - 4/(3 pi), which a single glance at the n = 1 state
    (16/(3 pi)) refutes.
    """
    n = QuantumState(n, 0).n
    q, c = digamma_quarter_diff(n + Fraction(3, 4), n + Fraction(1, 4))
    inv_pi_part = PiGradedRational(n * (Fraction(4 * n, 4 * n * n - 1) + q), -1)
    plain_part = PiGradedRational(n * (c + (-1) ** (n - 1)), 0)
    return inv_pi_part, plain_part


def legendre_projection(n: int, l: int) -> ExpectationResult:
    """<hk/P>_nl recovered numerically by Legendre projection.

    Projecting the addition-theorem right side
    g(y) = (2n/pi) * integral (1+x^2) U_{n-1}(x^2 + (1-x^2) y) dx
    onto P_l, (1/2) * integral P_l(y) g(y) dy, is the double integral of
    ``quadrature.double_integral_rep``, whose result this returns.
    """
    from .quadrature import double_integral_rep

    return double_integral_rep(QuantumState(n, l))


def addition_identity_residual(n: int, theta: float, psi_angle: float) -> float:
    """Absolute residual of the four-dimensional addition identity.

    Both sides are assembled from the ultraspherical and Legendre
    recurrences at the angles given; the residual should sit at roundoff.
    """
    from .specfun import _gegenbauer_rows, gegenbauer

    n = QuantumState(n, 0).n
    ct, st = math.cos(theta), math.sin(theta)
    cu = math.cos(psi_angle)
    lhs = gegenbauer(n - 1, 1, ct * ct + st * st * cu)
    rhs = 0.0
    for l, fock in enumerate(_gegenbauer_rows(range(1, n + 1), ct).tolist()):
        amp = _sqrt_norm(QuantumState(n, l)) * st**l * fock
        rhs += (2 * l + 1) / n * amp * amp * gegenbauer(l, 0.5, cu)
    return abs(lhs - rhs)
