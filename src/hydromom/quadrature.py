"""Numerical expectation values <f(P)> and the integral cross-checks.

Every exact result in this package is shadowed by at least one quadrature
here, and each route runs one fixed rule:

* ``power_moment``: <p^s> in x = (k^2-kappa^2)/(k^2+kappa^2) on (-1, 1).
  The power folds into the Jacobi weight exponents (l + 3/2 - s/2 at x -> 1,
  l + 1/2 + s/2 at x -> -1), which leaves the polynomial
  [C_{n-l-1}^{l+1}(x)]^2.  Gauss-Jacobi at n - l + 8 nodes is exact for it,
  so ``err_estimate`` is 0.0.  The moment exists iff both exponents exceed
  -1, i.e. -2l - 3 < s < 2l + 5; requests outside are rejected.
* ``expectation_f``: any f in theta, k = kappa tan(theta), folded about
  theta = pi/4 (the mirror swaps k for kappa^2/k), by Gauss-Legendre
  panels on (0, pi/4) doubled until two passes agree within ``_REL_TOL``;
  ``err_estimate`` is the change on the last doubling.
* ``inv_p_numeric``: both routes at s = -1; ``err_estimate`` is their gap.
* ``double_integral_rep``: a tensor Gauss-Legendre rule at n + 4 points,
  exact for its polynomial, so ``err_estimate`` is 0.0.
* ``swave_kernel_integral``: panel doubling as in theta; the value alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exact import PiGradedRational
from .specfun import _require_integer, gauss_legendre, gauss_legendre_panels, gegenbauer
from .wavefun import QuantumState, _norm_ratio, momentum_radial

__all__ = [
    "ExpectationResult",
    "DivergentMomentError",
    "ConvergenceError",
    "CrossCheckError",
    "expectation_f",
    "power_moment",
    "inv_p_numeric",
    "inv_p_numeric_x",
    "inv_p_numeric_theta",
    "swave_kernel_integral",
    "double_integral_rep",
    "METHODS",
]

METHODS = frozenset(
    {"recurrence", "series-connection", "series-compact", "quadrature", "double_integral"}
)


class DivergentMomentError(ValueError):
    """A requested momentum power falls outside the convergent window."""


class ConvergenceError(RuntimeError):
    """Adaptive refinement failed to meet the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved estimate {achieved:.3e})")
        self.achieved = achieved


class CrossCheckError(RuntimeError):
    """Two independent integration routes disagree beyond tolerance."""


# Agreement of two successive panel doublings in the theta form and the
# kernel integrals; ``inv_p_numeric`` allows the two forms 10x this.
_REL_TOL = 1e-12


@dataclass(frozen=True)
class ExpectationResult:
    """A computed expectation value with its provenance and error estimate.

    When the exact value is attached, the float must sit within the error
    estimate of it (checked at construction).
    """

    value: float
    method: str
    err_estimate: float
    exact: Optional[PiGradedRational] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.err_estimate < 0:
            raise ValueError("error estimate must be nonnegative")
        if self.exact is not None and abs(self.value - self.exact.to_float()) > self.err_estimate:
            raise ValueError("float value inconsistent with attached exact value")


def _prefactor(state: QuantumState) -> float:
    """2N/pi, the x-form weight of every moment."""
    num, den = _norm_ratio(state)
    return 2.0 * (num / den) / math.pi


def moment_window(l: int) -> tuple[float, float]:
    """Open interval of momentum powers s with a convergent <p^s>."""
    return (-2.0 * l - 3.0, 2.0 * l + 5.0)


def _check_moment(l: int, s: float) -> None:
    if math.isnan(s):
        raise ValueError(f"momentum power must be a number, got s={s}")
    # Endpoint exponents of the x-integrand; divergent exactly when <= -1.
    at_plus = l + 1.5 - 0.5 * s
    at_minus = l + 0.5 + 0.5 * s
    if at_plus <= -1 or at_minus <= -1:
        lo, hi = moment_window(l)
        raise DivergentMomentError(
            f"<p^{s}> diverges for l={l}: endpoint exponents ({at_plus}, {at_minus}) "
            f"reach -1; the convergent window is {lo} < s < {hi}"
        )


_NODES_PER_PANEL = 24
_MAX_DOUBLINGS = 10


def _adaptive_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float,
    initial_panels: int = 8,
    abs_tol: float = 0.0,
) -> tuple[float, float]:
    """Composite Gauss-Legendre with panel doubling; returns (value, err).

    ``abs_tol`` matters when the integral itself vanishes (orthogonality
    integrals): relative accuracy of zero is unreachable.  Raises
    ``ConvergenceError`` at the first non-finite pass, or with the last
    doubling's change when ``_MAX_DOUBLINGS`` doublings never agree.
    """
    panels = initial_panels

    def once(num: int) -> float:
        t, w = gauss_legendre_panels(a, b, num, _NODES_PER_PANEL)
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


def expectation_f(state: QuantumState, f: Callable[[np.ndarray], np.ndarray]) -> ExpectationResult:
    """Numeric <f(P)>_{nl} by the theta form, with momenta supplied to ``f``
    in units of hbar*kappa.

    ``f`` must accept numpy arrays.  For a power law, ``power_moment`` is
    exact and guards the convergent window.  ``err_estimate`` is the change
    on the last panel doubling.

    On (0, pi/2) the integrand is sin^(2l+2)(2 theta) (1 + cos 2 theta)
    C_{n-l-1}^{l+1}(cos 2 theta)^2 f(tan theta).  theta -> pi/2 - theta keeps
    sin 2 theta and C^2 (it is even), flips cos 2 theta and swaps tan theta
    for cot theta (Fock's reflection, k -> kappa^2/k), so the form is folded
    onto (0, pi/4) as 2 sin^(2l+2)(2 theta) C^2 [cos^2 theta f(tan theta) +
    sin^2 theta f(cot theta)].  The polynomial is then swept over half the
    nodes at the same node density, and the weights cos^2 and sin^2 carry
    no cancellation where 1 -+ cos 2 theta would.
    """
    n, l = state.n, state.l

    def integrand(theta: np.ndarray) -> np.ndarray:
        poly = gegenbauer(n - l - 1, l + 1, np.cos(2.0 * theta))
        t = np.tan(theta)
        mirrored = np.cos(theta) ** 2 * f(t) + np.sin(theta) ** 2 * f(1.0 / t)
        return np.sin(2.0 * theta) ** (2 * l + 2) * poly * poly * mirrored

    initial = max(4, (n + 1) // 2)
    value, err = _adaptive_panels(integrand, 0.0, 0.25 * math.pi, _REL_TOL, initial_panels=initial)
    scale = 4.0 * _prefactor(state)
    return ExpectationResult(scale * value, "quadrature", scale * err)


def power_moment(state: QuantumState, s: float) -> ExpectationResult:
    """<p^s> in units of (hbar*kappa)^s; rejects s outside (-2l-3, 2l+5).

    The residual integrand is the squared polynomial of degree n-l-1, so the
    Gauss-Jacobi rule is exact at n-l nodes; it runs at n-l+8.  Past the
    exactness point more nodes only feed in node-generation roundoff
    (visible at the 1e-11 level by ~200 nodes), so no rerun can measure
    anything: ``err_estimate`` is 0.0, and only roundoff is left.

    At large n (e.g. (500, 250)) the float C^2 overflows before the weight
    scales it down; that raises ``OverflowError`` rather than returning inf.
    """
    _check_moment(state.l, s)
    from scipy.special import roots_jacobi  # only the x-form needs scipy; keep it off the import path

    n, l = state.n, state.l
    x, w = roots_jacobi(n - l + 8, l + 1.5 - 0.5 * s, l + 0.5 + 0.5 * s)
    with np.errstate(over="ignore", invalid="ignore"):
        c = gegenbauer(n - l - 1, l + 1, x)
        value = _prefactor(state) * float(np.dot(w, c * c))
    if not math.isfinite(value):
        raise OverflowError(f"<p^{s:g}> at (n, l) = ({n}, {l}): the float C_{n - l - 1}^{l + 1} squared overflows")
    return ExpectationResult(value, "quadrature", 0.0)


def _k_form(state: QuantumState, f: Callable, rel_tol: float) -> tuple[float, float]:
    # (value, err) straight from the amplitude: |P(k)|^2 f k^2/(8 pi^3) on
    # k in (0, inf), compactified by k = kappa tan(theta).  The weight forms
    # above never evaluate the amplitude; this reference ties them to it.
    kappa = 1.0

    def integrand(theta: np.ndarray) -> np.ndarray:
        k = kappa * np.tan(theta)
        amp = momentum_radial(state, kappa, k)
        jac = kappa / np.cos(theta) ** 2
        return amp * amp * f(k / kappa) * k * k * jac / (8.0 * math.pi**3)

    return _adaptive_panels(integrand, 0.0, 0.5 * math.pi * (1.0 - 1e-13), rel_tol, initial_panels=max(8, state.n))


def inv_p_numeric_x(state: QuantumState) -> ExpectationResult:
    """<hbar kappa / P> by the folded Gauss-Jacobi rule in x.

    With s = -1 the weight exponents are (l + 2, l), the residual integrand
    is the squared ultraspherical polynomial, and the rule is exact once the
    node count clears the polynomial degree.
    """
    return power_moment(state, -1.0)


def inv_p_numeric_theta(state: QuantumState) -> ExpectationResult:
    """<hbar kappa / P> by the adaptive theta-variable form."""
    return expectation_f(state, lambda p: 1.0 / p)


def inv_p_numeric(state: QuantumState) -> ExpectationResult:
    """<hbar kappa / P> with both variable forms evaluated and cross-checked.

    The x-form value is returned (it is exact up to roundoff); the error
    estimate is the disagreement with the theta form, and a disagreement
    beyond 10x the theta form's tolerance raises CrossCheckError, since it
    can only mean an internal fault.
    """
    res_x = inv_p_numeric_x(state)
    res_t = inv_p_numeric_theta(state)
    gap = abs(res_x.value - res_t.value)
    if gap > 10.0 * _REL_TOL * max(abs(res_x.value), 1.0):
        raise CrossCheckError(
            f"x-form and theta-form disagree by {gap:.3e} for {state}; "
            f"tolerance budget {10.0 * _REL_TOL:.1e}"
        )
    return ExpectationResult(res_x.value, "quadrature", gap)


def swave_kernel_integral(nu: int, n: int) -> float:
    """The S-wave helper integral over (0, pi/2) of
    sin^2(2 n theta) cos^(2 nu + 1)(theta) / sin(theta).

    The integrand is bounded (it vanishes linearly at theta -> 0), but
    oscillates n times, so panels scale with n.  nu in {0, 1} is all the
    recursion ever needs.
    """
    _require_integer("nu", nu)
    _require_integer("n", n)
    if nu not in (0, 1):
        raise ValueError(f"kernel integral defined for nu in {{0, 1}}, got {nu}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    def integrand(theta: np.ndarray) -> np.ndarray:
        s = np.sin(2.0 * n * theta)
        return s * s * np.cos(theta) ** (2 * nu + 1) / np.sin(theta)

    value, _ = _adaptive_panels(integrand, 0.0, 0.5 * math.pi, _REL_TOL, initial_panels=max(8, 4 * n))
    return value


def _half_rule(num: int) -> tuple[np.ndarray, np.ndarray]:
    """The x >= 0 half of the ``num``-point Gauss-Legendre rule for an even
    integrand: the cached rule is symmetric, so each mirrored node gets
    weight 2w, and the x = 0 node of an odd rule keeps its own weight."""
    x, w = gauss_legendre(num)
    half = num // 2
    weights = 2.0 * w[half:]
    if num % 2:
        weights[0] = w[half]
    return x[half:], weights


def _u_kernel(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """U_{n-1}(x^2 + (1-x^2) y) with x down the rows and y along the columns,
    from U_{n-1}(cos t) = sin(n t) / sin t.

    1 - arg and 1 + arg are formed as products and sums of nonnegative
    factors, never as differences with arg, so t = 2 atan2(sqrt(1-arg),
    sqrt(1+arg)) and sin t = sqrt(1-arg) sqrt(1+arg) carry no cancellation
    near arg = +-1.  Gauss-Legendre nodes are interior, so sin t > 0; near
    arg = -1 the rounding of t ~ pi is divided by sin t, which on an N-point
    rule stays above about 1/N.
    """
    x = x[:, None]
    one_minus_y = 1.0 - y
    rm = np.sqrt(((1.0 - x) * (1.0 + x)) * one_minus_y)
    rp = np.sqrt((1.0 + y) + (x * x) * one_minus_y)
    return np.sin((2.0 * n) * np.arctan2(rm, rp)) / (rm * rp)


def double_integral_rep(state: QuantumState) -> ExpectationResult:
    """<hbar kappa / P> as the double integral
    (n/pi) * int dx (1+x^2) int dy P_l(y) U_{n-1}(x^2 + (1-x^2) y).

    The integrand is polynomial in both variables, so a tensor
    Gauss-Legendre grid of n + 4 points on both axes integrates it
    exactly.  The kernel U_{n-1} is evaluated in
    closed form by ``_u_kernel`` (sin(n t) / sin t, with 1 - arg and
    1 + arg built without cancellation) rather than by its n-step
    recurrence.  The integrand depends on x only through x^2, so only the
    x >= 0 rows of the grid are built (``_half_rule``); the y axis keeps
    the full rule.

    The rule is exact, so, as in ``power_moment``, only roundoff is left
    and ``err_estimate`` is 0.0: a second, larger exact rule would measure
    roundoff alone, not the error.
    """
    n, l = state.n, state.l
    # The 1-D factors (1+x^2) and P_l(y) ride on the weights.
    x, wx = _half_rule(n + 4)
    y, wy = gauss_legendre(n + 4)
    value = n / math.pi * float((wx * (1.0 + x * x)) @ _u_kernel(n, x, y) @ (wy * gegenbauer(l, 0.5, y)))
    return ExpectationResult(value, "double_integral", 0.0)
