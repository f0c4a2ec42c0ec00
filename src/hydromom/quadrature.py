"""Numerical expectation values <f(P)> and the integral cross-checks.

Every exact result in this package is shadowed by at least one quadrature
here.  The general expectation value over a bound state (n, l) reduces to a
one-dimensional integral in either of two variables:

* the compact variable x = (k^2-kappa^2)/(k^2+kappa^2) on (-1, 1), where the
  integrand is (1-x^2)^(l+1/2) (1-x) [C_{n-l-1}^{l+1}(x)]^2 f(...), handled
  by Gauss-Jacobi rules;
* the angle theta with k = kappa tan(theta) on (0, pi/2), handled by
  panel-adaptive Gauss-Legendre.

For a power law f(p) = p^s the full endpoint behavior folds into the Jacobi
weight exponents (l + 3/2 - s/2 at x -> 1 and l + 1/2 + s/2 at x -> -1),
leaving a polynomial integrand that the rule integrates to machine accuracy.
The same exponents give the validity window: the moment exists iff both
exceed -1, i.e. -2l - 3 < s < 2l + 5, and requests outside it are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .exact import PiGradedRational
from .specfun import _require_integer, gauss_legendre, gauss_legendre_panels, gegenbauer
from .wavefun import QuantumState, _norm_ratio, momentum_radial

__all__ = [
    "QuadratureSpec",
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget, tolerance and variable substitution.

    The rule follows from the substitution: Gauss-Jacobi in x, adaptive
    Gauss-Legendre panels in theta and k.
    """

    nodes: int = 96
    rel_tol: float = 1e-12
    substitution: str = "x_variable"

    def __post_init__(self) -> None:
        if self.substitution not in {"x_variable", "theta_variable", "k_variable"}:
            raise ValueError(f"unknown substitution {self.substitution!r}")
        _require_integer("nodes", self.nodes)
        if self.nodes < 2:
            raise ValueError("need at least 2 nodes")
        if not 1e-14 <= self.rel_tol < math.inf:  # also rejects NaN
            raise ValueError(f"rel_tol must be finite and at least 1e-14 (double precision), got {self.rel_tol!r}")


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


def default_spec(state: QuantumState, substitution: str = "x_variable") -> QuadratureSpec:
    """Node budget 64 + 8n keeps the folded-weight rules exact with margin."""
    return QuadratureSpec(nodes=64 + 8 * state.n, substitution=substitution)


def _prefactor(state: QuantumState) -> float:
    """2N/pi, the x-form weight of every moment."""
    num, den = _norm_ratio(state)
    return 2.0 * (num / den) / math.pi


def _gegenbauer_sq(state: QuantumState, x: np.ndarray) -> np.ndarray:
    c = gegenbauer(state.n - state.l - 1, state.l + 1, x)
    return c * c


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


def _power_moment_x(state: QuantumState, s: float, nodes: int) -> float:
    from scipy.special import roots_jacobi  # only the x-form needs scipy; keep it off the import path

    l = state.l
    alpha = l + 1.5 - 0.5 * s
    beta = l + 0.5 + 0.5 * s
    x, w = roots_jacobi(nodes, alpha, beta)
    return _prefactor(state) * float(np.dot(w, _gegenbauer_sq(state, x)))


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
    integrals): relative accuracy of zero is unreachable.
    """
    panels = initial_panels

    def once(num: int) -> float:
        t, w = gauss_legendre_panels(a, b, num, _NODES_PER_PANEL)
        return float(np.dot(w, f(t)))

    prev = once(panels)
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        curr = once(panels)
        err = abs(curr - prev)
        if err <= max(rel_tol * abs(curr), abs_tol):
            return curr, err
        prev = curr
    raise ConvergenceError("panel refinement stalled", abs(curr - prev))


def _theta_form(state: QuantumState, f: Callable, rel_tol: float) -> tuple[float, float]:
    n, l = state.n, state.l

    def integrand(theta: np.ndarray) -> np.ndarray:
        s2 = np.sin(2.0 * theta)
        c2 = np.cos(2.0 * theta)
        poly = gegenbauer(n - l - 1, l + 1, c2)
        return s2 ** (2 * l + 2) * (1.0 + c2) * poly * poly * f(np.tan(theta))

    value, err = _adaptive_panels(integrand, 0.0, 0.5 * math.pi, rel_tol, initial_panels=max(8, n))
    return 2.0 * _prefactor(state) * value, 2.0 * _prefactor(state) * err


def _k_form(state: QuantumState, f: Callable, rel_tol: float) -> tuple[float, float]:
    # Direct route through the wavefunction itself: |P(k)|^2 f k^2/(8 pi^3)
    # on k in (0, inf), compactified by k = kappa tan(theta).  Distinct from
    # the weight forms above, which never evaluate the amplitude.
    kappa = 1.0

    def integrand(theta: np.ndarray) -> np.ndarray:
        k = kappa * np.tan(theta)
        amp = momentum_radial(state, kappa, k)
        jac = kappa / np.cos(theta) ** 2
        return amp * amp * f(k / kappa) * k * k * jac / (8.0 * math.pi**3)

    value, err = _adaptive_panels(
        integrand, 0.0, 0.5 * math.pi * (1.0 - 1e-13), rel_tol, initial_panels=max(8, state.n)
    )
    return value, err


def expectation_f(
    state: QuantumState,
    f: Callable[[np.ndarray], np.ndarray],
    spec: Optional[QuadratureSpec] = None,
    *,
    power: Optional[float] = None,
) -> ExpectationResult:
    """Numeric <f(P)>_{nl} with momenta supplied to ``f`` in units of
    hbar*kappa.

    ``f`` must accept numpy arrays.  If ``f`` is a pure power law, pass
    ``power=s`` instead of relying on the callable: the power is folded into
    the Jacobi weight of the x form, which makes the rule exact for
    polynomial-weight integrands and enables the divergence guard.  The x
    form takes power laws only, so a callable alone goes to the theta form
    by default and an explicit x-variable spec with it is a ValueError.  The
    error estimate is the difference against a rerun with 1.5x the nodes (or
    the last panel refinement step for the theta and k forms); for a power
    law whose node count already reaches the exactness cap the rerun is the
    same sum, so the estimate is 0.0 and the rerun is skipped.
    """
    if f is None and power is None:
        raise ValueError("need a callable or a power")
    spec = spec or default_spec(state, "x_variable" if power is not None else "theta_variable")
    if power is not None:
        _check_moment(state.l, power)
    if spec.substitution in ("theta_variable", "k_variable"):
        func = (lambda p: p**power) if f is None else f
        form = _theta_form if spec.substitution == "theta_variable" else _k_form
        value, err = form(state, func, spec.rel_tol)
        return ExpectationResult(value, "quadrature", err)
    if power is None:
        raise ValueError("the x form takes power laws only: pass power=s, or a theta_variable or k_variable spec")
    # The residual integrand is the squared polynomial of degree n-l-1, so
    # the rule is exact at n-l nodes; past that, extra nodes only feed in
    # node-generation roundoff (visible at the 1e-11 level by ~200 nodes).
    # Once both counts reach the cap the rerun would repeat the same sum.
    cap = state.n - state.l + 8
    nodes, more = min(spec.nodes, cap), min(math.ceil(1.5 * spec.nodes), cap)
    value = _power_moment_x(state, power, nodes)
    refined = value if more == nodes else _power_moment_x(state, power, more)
    return ExpectationResult(refined, "quadrature", abs(refined - value))


def power_moment(state: QuantumState, s: float, spec: Optional[QuadratureSpec] = None) -> ExpectationResult:
    """<p^s> in units of (hbar*kappa)^s; rejects s outside (-2l-3, 2l+5)."""
    return expectation_f(state, None, spec, power=s)


def inv_p_numeric_x(state: QuantumState, spec: Optional[QuadratureSpec] = None) -> ExpectationResult:
    """<hbar kappa / P> by the folded Gauss-Jacobi rule in x.

    With s = -1 the weight exponents are (l + 2, l), the residual integrand
    is the squared ultraspherical polynomial, and the rule is exact once the
    node count clears the polynomial degree.
    """
    return power_moment(state, -1.0, spec)


def inv_p_numeric_theta(state: QuantumState, spec: Optional[QuadratureSpec] = None) -> ExpectationResult:
    """<hbar kappa / P> by the adaptive theta-variable form."""
    spec = spec or default_spec(state, substitution="theta_variable")
    if spec.substitution != "theta_variable":
        spec = replace(spec, substitution="theta_variable")
    return expectation_f(state, lambda p: 1.0 / p, spec)


def inv_p_numeric(state: QuantumState, spec: Optional[QuadratureSpec] = None) -> ExpectationResult:
    """<hbar kappa / P> with both variable forms evaluated and cross-checked.

    The x-form value is returned (it is exact up to roundoff); the error
    estimate includes the disagreement with the theta form, and a
    disagreement beyond 10x the requested tolerance raises CrossCheckError,
    since it can only mean an internal fault.
    """
    spec = spec or default_spec(state)
    res_x = inv_p_numeric_x(state, spec)
    res_t = inv_p_numeric_theta(state, spec)
    gap = abs(res_x.value - res_t.value)
    if gap > 10.0 * spec.rel_tol * max(abs(res_x.value), 1.0):
        raise CrossCheckError(
            f"x-form and theta-form disagree by {gap:.3e} for {state}; "
            f"tolerance budget {10.0 * spec.rel_tol:.1e}"
        )
    return ExpectationResult(res_x.value, "quadrature", max(res_x.err_estimate, gap))


def swave_kernel_integral(nu: int, n: int, spec: Optional[QuadratureSpec] = None) -> float:
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
    rel_tol = spec.rel_tol if spec else 1e-12

    def integrand(theta: np.ndarray) -> np.ndarray:
        s = np.sin(2.0 * n * theta)
        return s * s * np.cos(theta) ** (2 * nu + 1) / np.sin(theta)

    value, _ = _adaptive_panels(integrand, 0.0, 0.5 * math.pi, rel_tol, initial_panels=max(8, 4 * n))
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


def double_integral_rep(state: QuantumState, spec: Optional[QuadratureSpec] = None) -> ExpectationResult:
    """<hbar kappa / P> as the double integral
    (n/pi) * int dx (1+x^2) int dy P_l(y) U_{n-1}(x^2 + (1-x^2) y).

    The integrand is polynomial in both variables, so a tensor
    Gauss-Legendre grid of n + 4 points (or ``spec.nodes``, if larger) on
    both axes integrates it exactly.  The kernel U_{n-1} is evaluated in
    closed form by ``_u_kernel`` (sin(n t) / sin t, with 1 - arg and
    1 + arg built without cancellation) rather than by its n-step
    recurrence.  The integrand depends on x only through x^2, so only the
    x >= 0 rows of the grid are built (``_half_rule``); the y axis keeps
    the full rule.

    ``err_estimate`` is the gap between this rule and one with three more
    points.  Both are exact for the polynomial, so the gap measures only
    roundoff and is not a bound: at (500, 250) it is 1.05e-10 of the value,
    while the value is 7.1e-10 of itself off the exact one.
    """
    n, l = state.n, state.l
    num = max((spec.nodes if spec else 0), n + 4)

    def tensor(npts: int) -> float:
        # The 1-D factors (1+x^2) and P_l(y) ride on the weights.
        x, wx = _half_rule(npts)
        y, wy = gauss_legendre(npts)
        return n / math.pi * float((wx * (1.0 + x * x)) @ _u_kernel(n, x, y) @ (wy * gegenbauer(l, 0.5, y)))

    value = tensor(num)
    refined = tensor(num + 3)
    return ExpectationResult(refined, "double_integral", abs(refined - value))
