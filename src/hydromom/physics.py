"""Physical-units layer: <1/P>, reciprocity energy shifts, potential maximum.

The dimensionless <hbar*kappa/P> converts to <1/P> through the state's
inverse length kappa = 1/(n a):  <1/P> = (n a / hbar) <hbar kappa/P>.  A
reciprocity perturbation -alpha b / P (b a tiny momentum-per-length scale)
then shifts each level at first order by -alpha b <1/P>, which grows
logarithmically with n at fixed low l: the perturbation disrupts high-n,
low-l states the most.  The companion b^2 R^2 term is O(b^2) and ignored.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .exact import QuantumState
from .invp import inv_p_exact

__all__ = ["PhysicalScales", "inv_p_physical", "energy_shift", "effective_potential_max"]


@dataclass(frozen=True)
class PhysicalScales:
    """Physical constants of the problem: Bohr radius, hbar, couplings.

    kappa(n) = 1/(n*a) is the state's inverse length.  ``b`` is the
    reciprocity momentum/length scale of the 1/P perturbation and may be
    zero; everything else must be positive.
    """

    a: float = 1.0
    hbar: float = 1.0
    alpha: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "hbar", "alpha"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite, got {name}={value!r}")
        if not 0 <= self.b < math.inf:
            raise ValueError(f"b must be nonnegative and finite, got b={self.b!r}")

    def kappa(self, n: int) -> float:
        return 1.0 / (n * self.a)


def _finite(value: float, what: str) -> float:
    """``value`` if it is a normal double; OverflowError past the top of the
    range, FloatingPointError below its smallest normal (0.0 or subnormal)."""
    if not math.isfinite(value):
        raise OverflowError(f"{what} overflows the double range with these scales ({value!r})")
    if abs(value) < sys.float_info.min:
        raise FloatingPointError(f"{what} underflows the double range with these scales ({value!r})")
    return value


def inv_p_physical(state: QuantumState, scales: PhysicalScales) -> float:
    """<1/P> for a state, in units of 1/momentum; OverflowError or
    FloatingPointError when the scales put it outside the double range."""
    exact, _ = inv_p_exact(state.n, state.l)
    return _finite(state.n * scales.a / scales.hbar * exact.to_float(), "<1/P>")


def energy_shift(state: QuantumState, scales: PhysicalScales) -> float:
    """First-order level shift of the -alpha*b/P perturbation (units: energy);
    OverflowError or FloatingPointError when the scales put it outside the
    double range.  At b = 0 the shift is exactly zero (-0.0), not an underflow."""
    shift = -scales.alpha * scales.b * inv_p_physical(state, scales)
    return shift if scales.b == 0 else _finite(shift, "the energy shift")


def effective_potential_max(angular_momentum: float, alpha: float, b: float) -> float:
    """Maximum of the reciprocity-corrected effective potential, below zero
    whenever b*L < 4 alpha^2:  E0 = b L - 2 alpha sqrt(b L).  ValueError
    unless every argument is positive and finite."""
    for name, value in (("angular momentum", angular_momentum), ("alpha", alpha), ("b", b)):
        if not 0 < value < math.inf:  # also rejects NaN
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    bl = b * angular_momentum
    return bl - 2.0 * alpha * math.sqrt(bl)
