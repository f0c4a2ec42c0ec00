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
The left sides take the whole l-family at fixed n from ``invp.inv_p_family``:
one pass of the three-term recurrence in l, seeded by the circular and
near-circular closed forms, instead of one compact series per l.
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

from .exact import PiGradedRational
from .invp import inv_p_family
from .quadrature import ExpectationResult, double_integral_rep
from .specfun import digamma_quarter_diff, gegenbauer
from .wavefun import QuantumState, _norm_ratio

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
    total = sum(
        (value.coefficient * ((2 * l + 1) * sign**l) for l, value in enumerate(inv_p_family(n))),
        Fraction(0),
    )
    return PiGradedRational(total, -1)


def sum_rule_even(n: int) -> tuple[PiGradedRational, PiGradedRational]:
    """Both sides of sum_l (2l+1) <hk/P>_nl = 16 n^2/(3 pi), exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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
    if n < -1:
        raise ValueError(f"need n >= -1, got {n}")
    if n == -1:
        return Fraction(0), Fraction(0)
    q, c = digamma_quarter_diff(Fraction(n, 2) + Fraction(5, 4), Fraction(n, 2) + Fraction(3, 4))
    return q / 2, (c + (-1) ** n) / 2


def u_integral_recurrence(n: int) -> Fraction:
    """J_n by the forward recurrence J_m = 2/(2m+1) - J_{m-1} from J_{-1} = 0."""
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
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q, c = digamma_quarter_diff(n + Fraction(3, 4), n + Fraction(1, 4))
    inv_pi_part = PiGradedRational(n * (Fraction(4 * n, 4 * n * n - 1) + q), -1)
    plain_part = PiGradedRational(n * (c + (-1) ** (n - 1)), 0)
    return inv_pi_part, plain_part


def legendre_projection(n: int, l: int) -> ExpectationResult:
    """<hk/P>_nl recovered numerically by Legendre projection.

    Projecting the addition-theorem right side
    g(y) = (2n/pi) * integral (1+x^2) U_{n-1}(x^2 + (1-x^2) y) dx
    onto P_l, (1/2) * integral P_l(y) g(y) dy, is the polynomial double
    integral of ``quadrature.double_integral_rep`` (which evaluates U_{n-1}
    in closed form on the x >= 0 half of its grid); this is that route under
    its sum-rule name.  Its one n + 4 point rule is exact for the
    polynomial, so ``err_estimate`` is 0.0.
    """
    return double_integral_rep(QuantumState(n, l))


def addition_identity_residual(n: int, theta: float, psi_angle: float) -> float:
    """Absolute residual of the four-dimensional addition identity.

    Both sides are assembled from the ultraspherical and Legendre
    recurrences at the angles given; the residual should sit at roundoff.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    ct, st = math.cos(theta), math.sin(theta)
    cu = math.cos(psi_angle)
    lhs = gegenbauer(n - 1, 1, ct * ct + st * st * cu)
    rhs = 0.0
    for l in range(n):
        poly = gegenbauer(n - l - 1, l + 1, ct)
        num, den = _norm_ratio(QuantumState(n, l))
        rhs += (2 * l + 1) * (num / den) / n * st ** (2 * l) * poly * poly * gegenbauer(l, 0.5, cu)
    return abs(lhs - rhs)
