"""Exact scalar arithmetic and the records every layer shares.

Everything downstream that claims to be "exact" bottoms out here.  Two
ingredients are needed:

* arbitrary-precision rationals (:class:`fractions.Fraction`, which already
  guarantees lowest terms and a positive denominator),
* pi-graded rationals ``q * pi**k`` with k in {-1, 0, +1}, so that unit
  conversions between the <hbar*kappa/P>, <2*pi*hbar*kappa/P> and <1/P>
  normalizations are grade bookkeeping instead of floating arithmetic.

pi is never expanded numerically inside exact computation.  A value becomes
a float only through ``_pair_float`` and text only through ``_pair_text``,
one rule each.

This module imports only the standard library, so the exact layer never
loads numpy.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GradeError",
    "PiGradedRational",
    "harmonic_odd",
    "digamma_quarter_diff",
    "format_exact",
    "parse_exact",
    "QuantumState",
    "ExpectationResult",
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
        if type(self.coefficient) is not Fraction:  # a Fraction is immutable and already canonical
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
        return PiGradedRational(2 * self.coefficient, self.pi_power + 1)

    def is_zero(self) -> bool:
        return self.coefficient == 0

    def to_float(self) -> float:
        return _pair_float(self.coefficient.numerator, self.coefficient.denominator, self.pi_power)

    def __str__(self) -> str:
        return format_exact(self)


def harmonic_odd(n: int) -> Fraction:
    """Partial sum of odd reciprocals: 1 + 1/3 + ... + 1/(2n-1), exact; n is
    checked as the principal quantum number of its S-wave state (n, 0)."""
    n = QuantumState(n, 0).n
    num, den = _reciprocal_sum(1, 2, n)
    return Fraction(num, 2 * den)


def _reciprocal_sum(p: int, q: int, m: int) -> tuple[int, int]:
    """sum_{i < m} q/(p + q i) for positive integers p, q as an unreduced
    integer pair (num, den), summed on one numerator and one denominator."""
    num, den = 0, 1
    for t in range(p, p + q * m, q):
        num, den = num * t + q * den, den * t
    return num, den


def digamma_quarter_diff(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Exact psi(a) - psi(b) for positive quarter-integer a, b.

    Returns ``(q, c)`` meaning the difference equals ``q + c*pi``.  Works
    whenever the transcendental constants cancel: both fractional parts equal,
    or one from {1/4} and the other from {3/4} (where the reflection
    psi(3/4) - psi(1/4) = pi enters).  Mixing e.g. a half-integer with a
    quarter-integer leaves log-2 terms behind and is rejected.
    """
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise ValueError("arguments must be positive")
    if a.denominator not in (1, 2, 4) or b.denominator not in (1, 2, 4):
        raise ValueError("arguments must be quarter-integers")

    def split(v: Fraction) -> tuple[Fraction, Fraction]:
        # v = f + m with 0 < f <= 1, and psi(v) - psi(f) = sum_{i < m} q/(p + q i)
        # for f = p/q.
        m = math.ceil(v) - 1
        f = v - m
        return f, Fraction(*_reciprocal_sum(f.numerator, f.denominator, m))

    (fa, sa), (fb, sb) = split(a), split(b)
    rational = sa - sb
    if fa == fb:
        return rational, Fraction(0)
    pair = {fa, fb}
    if pair == {Fraction(1, 4), Fraction(3, 4)}:
        pi_coeff = Fraction(1) if fa == Fraction(3, 4) else Fraction(-1)
        return rational, pi_coeff
    raise ValueError(f"difference psi({a}) - psi({b}) is not rational-plus-pi")


_EXACT_RE = re.compile(r"^(-?\d+)/(\d+)(?:\*pi\^(-?\d+))?$")


def format_exact(value: PiGradedRational) -> str:
    """Serialize as ``p/q`` in lowest terms, with ``*pi^k`` for nonzero grade."""
    return _pair_text(value.coefficient.numerator, value.coefficient.denominator, value.pi_power)


def _pair_text(num: int, den: int, pi_power: int) -> str:
    """The text of (num/den) pi^pi_power for a lowest-terms pair with den > 0."""
    return f"{num}/{den}*pi^{pi_power}" if pi_power else f"{num}/{den}"


def _pair_float(num: int, den: int, pi_power: int) -> float:
    """(num/den) pi^pi_power as a float.  The int true division is correctly
    rounded, as ``float(Fraction(num, den))`` is."""
    return num / den * math.pi**pi_power


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


def _require_integer(name: str, value) -> int:
    """``value`` as an ``int``; ValueError unless it is an integer (bool
    excluded).

    Any other ``numbers.Integral``, numpy's fixed-width integers included,
    converts by ``operator.index``, so the exact layer never multiplies in
    fixed width.
    """
    if type(value) is int:  # the common case, before the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class QuantumState:
    """Quantum numbers (n, l, m) with n >= 1, 0 <= l <= n-1, |m| <= l,
    stored as ``int`` whatever integer type they came in as."""

    n: int
    l: int
    m: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "l", "m"):
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, _require_integer(f"quantum number {name}", value))
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got n={self.n}")
        if not 0 <= self.l <= self.n - 1:
            raise ValueError(f"orbital quantum number must obey 0 <= l <= n-1, got (n={self.n}, l={self.l})")
        if abs(self.m) > self.l:
            raise ValueError(f"magnetic quantum number must obey |m| <= l, got (l={self.l}, m={self.m})")


def _norm_ratio(state: QuantumState) -> tuple[int, int]:
    """The state's normalisation constant
    N = n (n-l-1)! (2^l l!)^2 / (n+l)! as the exact integer pair (num, den).

    Every amplitude, weight and norm check in the package takes N from here;
    only the exact series of ``invp``, independent witnesses, keep their own
    factorials.  Int true division is correctly rounded and never overflows,
    but the float N underflows at middle l past n of about 740, so no float
    route divides the pair: each takes sqrt(N) from ``_sqrt_norm`` and
    squares its normalised amplitude.
    """
    n, l = state.n, state.l
    return n * math.factorial(n - l - 1) * (2**l * math.factorial(l)) ** 2, math.factorial(n + l)


def _sqrt_norm(state: QuantumState) -> float:
    """sqrt(N) from the pair of ``_norm_ratio``.  Past n of about 740
    the float N underflows at middle l while sqrt(N) is normal, so num is
    scaled by 4^s (s from the bit lengths) before the division and 2^s taken
    off after sqrt: bit-identical to sqrt(num / den) wherever N is normal.
    From (1481, 655) on, at middle l, sqrt(N) itself is below the smallest
    normal double; ``OverflowError`` is raised there rather than return a
    value with fewer than 53 significant bits."""
    num, den = _norm_ratio(state)
    s = max(den.bit_length() - num.bit_length(), 0) // 2
    root = math.ldexp(math.sqrt((num << 2 * s) / den), -s)
    if root < sys.float_info.min:
        raise OverflowError(f"sqrt(N) at (n, l) = ({state.n}, {state.l}) leaves the float range: {root!r} is not normal")
    return root


def _gegenbauer_numerators(n: int, p: int, q: int, a: int, d: int):
    """Yield the integers N_0, ..., N_n with C_k^lam(x) = N_k / (d^k q^k k!)
    for lam = p/q and x = a/d (q, d > 0; neither ratio need be reduced).

    Multiplying the ultraspherical recurrence
    k C_k = 2(k+lam-1) x C_{k-1} - (k+2lam-2) C_{k-2} by d^k q^k (k-1)! gives
    N_k = 2(qk+p-q) a N_{k-1} - (qk+2p-2q)(k-1) q d^2 N_{k-2},
    with N_0 = 1 and N_1 = 2pa: no division, so no gcd, at any step.
    """
    yield 1
    if n == 0:
        return
    n_prev, n_curr = 1, 2 * p * a
    yield n_curr
    qdd = q * d * d
    for k in range(2, n + 1):
        n_prev, n_curr = n_curr, (
            2 * (q * k + p - q) * a * n_curr - (q * k + 2 * p - 2 * q) * (k - 1) * qdd * n_prev
        )
        yield n_curr


METHODS = frozenset({"series-compact", "quadrature", "double_integral"})


@dataclass(frozen=True)
class ExpectationResult:
    """A computed expectation value with its provenance and error estimate.

    When the exact value is attached, the float must sit within the error
    estimate of it (checked at construction).
    """

    value: float
    method: str
    err_estimate: float
    exact: PiGradedRational | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.err_estimate < 0:
            raise ValueError("error estimate must be nonnegative")
        if self.exact is not None and abs(self.value - self.exact.to_float()) > self.err_estimate:
            raise ValueError("float value inconsistent with attached exact value")
