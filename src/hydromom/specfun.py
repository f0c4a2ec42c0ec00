"""Orthogonal polynomials and gamma-family special functions.

All polynomial families are evaluated by their forward three-term
recurrences, never by expanded coefficients.  That keeps them stable for
degrees in the hundreds and, just as important here, makes them exact when
called with ``fractions.Fraction`` arguments: the ultraspherical recurrence
only ever divides by the degree, so rational in, rational out.

At negative degree ``gegenbauer`` returns 0 (C_{-1} = 0 keeps contiguity
identities such as C_n - C_{n-2} valid down to n = 0), while
``laguerre_assoc`` rejects it with ``ValueError``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .exact import _gegenbauer_numerators, _require_integer

__all__ = [
    "ConvergenceError",
    "gegenbauer",
    "laguerre_assoc",
    "gauss_legendre",
    "gauss_legendre_panels",
    "digamma_quarter_diff",
]


def gegenbauer(n: int, lam, x):
    """Ultraspherical polynomial C_n^lam(x) by forward recurrence
    k C_k = 2(k+lam-1) x C_{k-1} - (k+2lam-2) C_{k-2}.

    Accepts float, Fraction or numpy array ``x``; the result is exact for
    Fraction ``x`` and rational ``lam``.  ``lam`` must be nonzero (the family
    degenerates there); negative ``n`` returns 0.  ``lam = 1/2`` gives the
    Legendre polynomial P_n: the recurrence then reduces to Bonnet's,
    operation for operation.  The exact branch runs it on the integers of
    ``exact._gegenbauer_numerators`` and forms one lowest-terms ``Fraction``,
    C_n = N_n / (d^n q^n n!) for lam = p/q and x = a/d.
    """
    if lam == 0:
        raise ValueError("gegenbauer parameter must be nonzero")
    if isinstance(x, (Fraction, int)):
        if isinstance(lam, (Fraction, int)):
            if n < 0:
                return Fraction(0)
            (p, q), (a, d) = Fraction(lam).as_integer_ratio(), Fraction(x).as_integer_ratio()
            *_, num = _gegenbauer_numerators(n, p, q, a, d)
            return Fraction(num, (d * q) ** n * math.factorial(n))
        x = float(x)
    lam = float(lam)
    one = np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else 1.0
    if n <= 0:
        return one if n == 0 else 0 * one
    c_prev = one
    c_curr = 2 * lam * x * one if isinstance(x, np.ndarray) else 2 * lam * x
    for k in range(2, n + 1):
        c_prev, c_curr = c_curr, (2 * (k + lam - 1) * x * c_curr - (k + 2 * lam - 2) * c_prev) / k
    return c_curr


def laguerre_assoc(n: int, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x), n >= 0."""
    if n < 0:
        raise ValueError(f"laguerre_assoc requires n >= 0, got {n}")
    if n == 0:
        return np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else 1.0
    l_prev = np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else 1.0
    l_curr = 1 + alpha - x
    for k in range(2, n + 1):
        l_prev, l_curr = l_curr, ((2 * k - 1 + alpha - x) * l_curr - (k - 1 + alpha) * l_prev) / k
    return l_curr


# typed=True keeps True from hitting the cached rule of size 1.
@functools.lru_cache(maxsize=256, typed=True)
def gauss_legendre(num: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``num``-point Gauss-Legendre rule on [-1, 1] as (nodes, weights).

    Each size is built once by numpy's ``leggauss`` and shared by every later
    caller, so both arrays are read-only; copy them before writing.
    """
    _require_integer("num", num)
    if num < 1:
        raise ValueError(f"Gauss-Legendre rule needs num >= 1, got {num}")
    nodes, weights = np.polynomial.legendre.leggauss(num)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# Nodes of each panel of the composite rule, and the panel doublings the
# adaptive engine runs before it gives up.
_NODES_PER_PANEL = 24
_MAX_DOUBLINGS = 10


class ConvergenceError(RuntimeError):
    """Adaptive refinement failed to meet the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved estimate {achieved:.3e})")
        self.achieved = achieved


def gauss_legendre_panels(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [a, b]: ``panels`` equal panels of the
    ``_NODES_PER_PANEL``-point Gauss-Legendre rule, returned as flat
    (nodes, weights) arrays."""
    nodes, weights = gauss_legendre(_NODES_PER_PANEL)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return t, w


def _adaptive_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float,
    initial_panels: int = 8,
    abs_tol: float = 0.0,
) -> tuple[float, float]:
    """Composite Gauss-Legendre with panel doubling; returns (value, err),
    where err is the change on the last doubling.

    Every adaptive integral of the package runs this one loop.  ``abs_tol``
    matters when the integral itself vanishes or is small against its
    integrand's magnitude, where relative accuracy is unreachable:
    orthogonality integrals, and the Bessel oracle at the zeros of the
    amplitude, which passes 1e-14 of its integral of |integrand|.  Raises
    ``ConvergenceError`` at the first non-finite pass, or with the last
    doubling's change when ``_MAX_DOUBLINGS`` doublings never agree.
    """
    panels = initial_panels

    def once(num: int) -> float:
        t, w = gauss_legendre_panels(a, b, num)
        value = float(np.dot(w, f(t)))
        if not math.isfinite(value):
            # No doubling can mend a non-finite integrand; stop at the first such pass.
            raise ConvergenceError(f"the pass on {num} panels is not finite ({value})", math.inf)
        return value

    prev = once(panels)
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        curr = once(panels)
        err = abs(curr - prev)
        if err <= max(rel_tol * abs(curr), abs_tol):
            return curr, err
        prev = curr
    raise ConvergenceError("panel refinement stalled", err)


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

    def split(v: Fraction) -> tuple[Fraction, int]:
        frac = v - math.floor(v)
        if frac == 0:  # reduce psi(m) to the psi(1) base via m-1 recurrence steps
            frac = Fraction(1)
            return frac, int(v) - 1
        return frac, int(math.floor(v))

    fa, ma = split(a)
    fb, mb = split(b)
    rational = sum((Fraction(1) / (fa + i) for i in range(ma)), Fraction(0)) - sum(
        (Fraction(1) / (fb + i) for i in range(mb)), Fraction(0)
    )
    if fa == fb:
        return rational, Fraction(0)
    pair = {fa, fb}
    if pair == {Fraction(1, 4), Fraction(3, 4)}:
        pi_coeff = Fraction(1) if fa == Fraction(3, 4) else Fraction(-1)
        return rational, pi_coeff
    raise ValueError(f"difference psi({a}) - psi({b}) is not rational-plus-pi")
