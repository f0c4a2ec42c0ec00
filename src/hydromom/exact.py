"""Exact scalar arithmetic for closed-form momentum expectation values.

Everything downstream that claims to be "exact" bottoms out here.  Two
ingredients are needed:

* arbitrary-precision rationals (:class:`fractions.Fraction`, which already
  guarantees lowest terms and a positive denominator),
* pi-graded rationals ``q * pi**k`` with k in {-1, 0, +1}, so that unit
  conversions between the <hbar*kappa/P>, <2*pi*hbar*kappa/P> and <1/P>
  normalizations are grade bookkeeping instead of floating arithmetic.

pi is never expanded numerically inside exact computation; it only becomes a
float at the very end through :meth:`PiGradedRational.to_float`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GradeError",
    "PiGradedRational",
    "harmonic_odd",
    "format_exact",
    "parse_exact",
]


class GradeError(ValueError):
    """Raised when pi-grade bookkeeping would be violated."""


_ALLOWED_GRADES = (-1, 0, 1)


@dataclass(frozen=True)
class PiGradedRational:
    """An exact scalar ``coefficient * pi**pi_power`` with pi_power in {-1,0,1}.

    Addition and subtraction are only defined between equal grades; adding a
    pure rational to a 1/pi quantity is a physics unit error and is treated as
    a type error here.  Multiplication adds grades and must stay inside
    {-1, 0, 1}.  Zero is representable at any grade.
    """

    coefficient: Fraction
    pi_power: int = 0

    def __post_init__(self) -> None:
        if self.pi_power not in _ALLOWED_GRADES:
            raise GradeError(f"pi power {self.pi_power} outside {{-1, 0, 1}}")
        object.__setattr__(self, "coefficient", Fraction(self.coefficient))

    def _check_same_grade(self, other: "PiGradedRational") -> None:
        if self.pi_power != other.pi_power:
            raise GradeError(
                f"cannot combine grades pi^{self.pi_power} and pi^{other.pi_power}"
            )

    def __add__(self, other: "PiGradedRational") -> "PiGradedRational":
        self._check_same_grade(other)
        return PiGradedRational(self.coefficient + other.coefficient, self.pi_power)

    def __sub__(self, other: "PiGradedRational") -> "PiGradedRational":
        self._check_same_grade(other)
        return PiGradedRational(self.coefficient - other.coefficient, self.pi_power)

    def __mul__(self, other: "PiGradedRational") -> "PiGradedRational":
        power = self.pi_power + other.pi_power
        if power not in _ALLOWED_GRADES:
            raise GradeError(f"product grade pi^{power} outside {{-1, 0, 1}}")
        return PiGradedRational(self.coefficient * other.coefficient, power)

    def __neg__(self) -> "PiGradedRational":
        return PiGradedRational(-self.coefficient, self.pi_power)

    def scale(self, q) -> "PiGradedRational":
        """Multiply by a plain rational (grade unchanged)."""
        return PiGradedRational(self.coefficient * Fraction(q), self.pi_power)

    def times_two_pi(self) -> "PiGradedRational":
        """Unit conversion helper: multiply by 2*pi (grade goes up by one)."""
        return self * PiGradedRational(Fraction(2), 1)

    def is_zero(self) -> bool:
        return self.coefficient == 0

    def to_float(self) -> float:
        return float(self.coefficient) * math.pi ** self.pi_power

    def __str__(self) -> str:
        return format_exact(self)


def harmonic_odd(n: int) -> Fraction:
    """Partial sum of odd reciprocals: 1 + 1/3 + ... + 1/(2n-1), exact.

    harmonic_odd(n) - harmonic_odd(n-1) = 1/(2n-1) by construction.
    """
    if n < 1:
        raise ValueError(f"harmonic_odd requires n >= 1, got {n}")
    return sum((Fraction(1, 2 * m - 1) for m in range(1, n + 1)), Fraction(0))


_EXACT_RE = re.compile(r"^(-?\d+)/(\d+)(?:\*pi\^(-?\d+))?$")


def format_exact(value: PiGradedRational) -> str:
    """Serialize as ``p/q`` in lowest terms, with ``*pi^k`` for nonzero grade."""
    base = f"{value.coefficient.numerator}/{value.coefficient.denominator}"
    if value.pi_power != 0:
        base += f"*pi^{value.pi_power}"
    return base


def parse_exact(text: str) -> PiGradedRational:
    """Inverse of :func:`format_exact`; also accepts a bare integer string."""
    text = text.strip()
    if re.fullmatch(r"-?\d+", text):
        return PiGradedRational(Fraction(int(text)), 0)
    match = _EXACT_RE.match(text)
    if match is None or int(match[2]) == 0:
        raise ValueError(f"not an exact value: {text!r}")
    num, den, power = match.groups()
    return PiGradedRational(Fraction(int(num), int(den)), int(power) if power else 0)
