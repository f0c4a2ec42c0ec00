"""Numerical expectation values <f(P)> and the integral cross-checks.

Every exact result in this package is shadowed by at least one quadrature
here.  Every route that squares the amplitude takes sqrt(N) from
``exact._sqrt_norm`` and multiplies it in before squaring, so N never
exists as a float.  The panel engine raises ``specfun.ConvergenceError``,
which is also importable from here, where its callers meet it.

What each float route for <hbar kappa / P> shares with the others:

    route            Fock  Gegenbauer  sqrt N  Gauss rule                         panels
    x form           yes   yes         yes     Jacobi at the exponent remainders  no
    theta form       yes   yes         yes     Legendre panels                    yes
    double integral  no    P_l only    no      Jacobi (0, -1/2) in u, Legendre    no
    Bessel oracle    no    no          yes     Legendre panels                    yes
    k_form           yes   yes         yes     Legendre panels                    yes

The routes are ``power_moment``, ``expectation_f``, ``double_integral_rep``,
``wavefun.momentum_radial_numeric`` and ``tests/oracles.k_form``.  Fock is
Fock's momentum amplitude (V. Fock, Z. Phys. 98, 145 (1935)),
C_{n-l-1}^{l+1} in x or in cos 2 theta (``k_form`` calls
``wavefun.momentum_radial``; the oracle starts from the position
wavefunction and ``laguerre_assoc``).  Gegenbauer is the float
recurrence ``specfun.gegenbauer``: the double integral runs it for P_l
alone and takes U_{n-1} in closed form.  sqrt N is ``exact._sqrt_norm``,
and panels is the engine ``specfun._adaptive_panels``.  Three overlaps sit
inside the float layer: at integer s other than 2l + 4 and -2l - 2,
<p^s> and <p^{2-s}> are one sum read in opposite order, on one symmetric
rule with C^2 even; the theta form builds Fock's reflection into its fold,
so it cannot witness it; and ``sumrules.legendre_projection`` is
``double_integral_rep`` under another name.  No route is retired for them.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .exact import ExpectationResult, QuantumState, _require_integer, _sqrt_norm
from .specfun import (  # noqa: F401
    ConvergenceError,
    _adaptive_panels,
    _gegenbauer_rows,
    gauss_jacobi,
    gegenbauer,
)

__all__ = [
    "DivergentMomentError",
    "CrossCheckError",
    "expectation_f",
    "power_moment",
    "inv_p_numeric",
    "swave_kernel_integral",
    "double_integral_rep",
]


class DivergentMomentError(ValueError):
    """A requested momentum power falls outside the convergent window."""


class CrossCheckError(RuntimeError):
    """Two independent integration routes disagree beyond tolerance."""


# Agreement of two successive panel doublings in the theta form and the
# kernel integrals; ``inv_p_numeric`` allows the two forms 10x this.
_REL_TOL = 1e-12


def _rows(n: int, ls, x: np.ndarray, legendre: bool = False) -> np.ndarray:
    """Fock's C_{n-l-1}^{l+1}(x), or with ``legendre`` the P_l(x), one fresh
    row per l in ``ls``, for the caller to write in place.  ``ls`` is one l
    or the whole l-family 0 .. n-1, whose rows are bit for bit those of one
    l; any other set raises ``ValueError``."""
    if len(ls) == 1:
        (l,) = ls
        return (gegenbauer(l, 0.5, x) if legendre else gegenbauer(n - l - 1, l + 1, x))[None]
    if list(ls) != list(range(n)):
        raise ValueError(f"several states run as the whole l-family of n = {n}, got l = {list(ls)}")
    return _gegenbauer_rows(np.full(n, 0.5), x)[::-1] if legendre else _gegenbauer_rows(np.arange(1.0, n + 1.0), x)


def expectation_f(state: QuantumState, f: Callable[[np.ndarray], np.ndarray]) -> ExpectationResult:
    """Numeric <f(P)>_{nl} by the theta form, with momenta supplied to ``f``
    in units of hbar*kappa.

    ``f`` must accept numpy arrays.  For a power law, ``power_moment`` is
    exact and guards the convergent window.  ``err_estimate`` is the change
    on the last panel doubling; a non-finite pass raises
    ``ConvergenceError``.
    """
    return _theta_form((state,), f)[0]


def _theta_form(states, f: Callable[[np.ndarray], np.ndarray]) -> list[ExpectationResult]:
    """``expectation_f`` for each of ``states``, one state or the whole
    l-family of one n, from one engine run with one integrand row per state;
    each row stops at its own first agreeing doubling.

    On (0, pi/2) the integrand is sin^(2l+2)(2 theta) (1 + cos 2 theta)
    C_{n-l-1}^{l+1}(cos 2 theta)^2 f(tan theta).  theta -> pi/2 - theta keeps
    sin 2 theta and C^2 (it is even), flips cos 2 theta and swaps tan theta
    for cot theta (Fock's reflection, k -> kappa^2/k), so the form is folded
    onto (0, pi/4) as 2 sin^(2l+2)(2 theta) C^2 [cos^2 theta f(tan theta) +
    sin^2 theta f(cot theta)].  The weights cos^2 and sin^2 carry no
    cancellation where 1 -+ cos 2 theta would.  The folded form's constant,
    4 (2N/pi), rides on C as 2 sqrt(2N/pi) before squaring.
    """
    n, ls = states[0].n, [st.l for st in states]
    norms = [2.0 * math.sqrt(2.0 / math.pi) * _sqrt_norm(st) for st in states]

    def integrand(theta: np.ndarray) -> np.ndarray:
        t = np.tan(theta)
        mirrored = np.cos(theta) ** 2 * f(t) + np.sin(theta) ** 2 * f(1.0 / t)
        sin_2theta = np.sin(2.0 * theta)
        rows = _rows(n, ls, np.cos(2.0 * theta))
        for l, norm, poly in zip(ls, norms, rows):
            poly *= norm
            np.multiply(sin_2theta ** (2 * l + 2) * poly * poly, mirrored, out=poly)
        return rows

    passes = _adaptive_panels(integrand, 0.0, 0.25 * math.pi, _REL_TOL, initial_panels=max(2, (n + 3) // 4))
    return [ExpectationResult(value, "quadrature", err) for value, err in passes]


def power_moment(state: QuantumState, s: float) -> ExpectationResult:
    """<p^s> in units of (hbar*kappa)^s; rejects s outside (-2l-3, 2l+5).

    The x form of ``_x_moments`` on this one state: its rule is exact, so
    ``err_estimate`` is 0.0.  Over n <= 85 the value is within 1e-12 of
    exact at s = -2, -1 and 4, and 2e-14 at s = 0 and 2.  Taking the
    envelope's and the norm's square roots into C before squaring keeps the
    integrand in range where C^2 alone would overflow, as at (500, 250),
    (600, 100) and (700, 350).  Where the float C itself overflows, at
    middle l and large n, it raises ``OverflowError`` rather than return
    inf, NaN or a subnormal or silent 0.0.
    """
    if math.isnan(s):
        raise ValueError(f"momentum power must be a number, got s={s}")
    return _x_moments((state,), s)[0]


def _x_moments(states, s: float) -> list[ExpectationResult]:
    """``power_moment`` for each of ``states``, one state or the whole
    l-family of one n, all on the Gauss rule of the first state, whose
    convergent window, the narrowest, is checked.

    With m = n-l-1 and the endpoint exponents a = l + 3/2 - s/2 and
    b = l + 1/2 + s/2, take p = max(floor(a), 0) and q = max(floor(b), 0).
    The rule runs on the remainders (a - p, b - q), both in (-1, 1), and
    h = sqrt(2N/pi) (1-x)^(p/2) (1+x)^(q/2) C_m^{l+1}(x) carries the integer
    parts.  h^2 is a polynomial of degree p + q + 2m, so m + (p + q + 2) // 2
    nodes integrate it exactly; more would only add roundoff.  Each later l moves one into a, b, p and
    q and takes one from m, so every row keeps the first state's rule with
    p and q shifted by its l, to the bit of its per-state call wherever
    l + 3/2 - s/2 is exact in floats, as at integer and half-integer s.
    The shift fails where an exponent of the first state is negative, and
    several states are then refused with ``ValueError``.  At integer s with
    both exponents nonnegative the rule is Gauss-Legendre at n + 1 nodes for
    odd s and the (1/2, 1/2) rule at n nodes for even s.  A row that leaves
    the normal float range, NaN included, raises ``OverflowError``.
    """
    n, l0 = states[0].n, states[0].l
    a, b = l0 + 1.5 - 0.5 * s, l0 + 0.5 + 0.5 * s
    if a <= -1 or b <= -1:
        raise DivergentMomentError(
            f"<p^{s}> diverges for l={l0}: endpoint exponents ({a}, {b}) "
            f"reach -1; the convergent window is {-2.0 * l0 - 3.0} < s < {2.0 * l0 + 5.0}"
        )
    if len(states) > 1 and min(a, b) < 0:
        raise ValueError(f"one x-form rule serves every l only where both exponents are nonnegative, got s={s}")
    p, q = max(math.floor(a), 0), max(math.floor(b), 0)
    x, w = gauss_jacobi(n - l0 - 1 + (p + q + 2) // 2, a - p, b - q)
    results = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for st, c in zip(states, _rows(n, [st.l for st in states], x)):
            shift = st.l - l0
            envelope = (1.0 - x) ** (0.5 * (p + shift)) * (1.0 + x) ** (0.5 * (q + shift))
            h = c * envelope * (math.sqrt(2.0 / math.pi) * _sqrt_norm(st))
            value = float(np.dot(w, h * h))
            if not sys.float_info.min <= value < math.inf:  # also rejects NaN
                raise OverflowError(f"<p^{s:g}> at (n, l) = ({n}, {st.l}): the float C_{n - st.l - 1}^{st.l + 1} overflows")
            results.append(ExpectationResult(value, "quadrature", 0.0))
    return results


def inv_p_numeric(state: QuantumState) -> ExpectationResult:
    """<hbar kappa / P> with both variable forms evaluated and cross-checked.

    The x-form value is returned (it is exact up to roundoff); the error
    estimate is the disagreement with the theta form, and a disagreement
    beyond 10x the theta form's tolerance raises CrossCheckError.  Up to
    n of about 1400 at l = 0 that means an internal fault.  Past it the
    rounding of the x form's nodes alone can exceed the budget: the gap is
    1.09e-10 at (1400, 0), just inside its budget of 1.11e-10, and
    1.86e-10 at (1500, 0), against 1.12e-10, so the check raises on working
    routes there.
    """
    res_x = power_moment(state, -1.0)
    res_t = expectation_f(state, lambda p: 1.0 / p)
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


def _u_kernel(n: int, u: np.ndarray, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """U_{n-1}(u + v y) with u down the rows and y along the columns, from
    U_{n-1}(cos t) = sin(n t) / sin t; v = 1 - u, formed by the caller
    without rounding against u.

    1 - arg = v (1 - y) and 1 + arg = (1 + y) + u (1 - y) are formed as
    products and sums of nonnegative factors, never as differences with arg,
    so t = 2 atan2(sqrt(1-arg), sqrt(1+arg)) and sin t = sqrt(1-arg)
    sqrt(1+arg) carry no cancellation near arg = +-1.  Gauss nodes are
    interior, so sin t > 0; near arg = -1 the rounding of t ~ pi is divided
    by sin t, which on an N-point rule stays above about 1/N.
    """
    one_minus_y = 1.0 - y
    rm = np.sqrt(v[:, None] * one_minus_y)
    rp = np.sqrt((1.0 + y) + u[:, None] * one_minus_y)
    return np.sin((2.0 * n) * np.arctan2(rm, rp)) / (rm * rp)


def double_integral_rep(state: QuantumState) -> ExpectationResult:
    """<hbar kappa / P> as the double integral
    (n/pi) * int dx (1+x^2) int dy P_l(y) U_{n-1}(x^2 + (1-x^2) y).

    The rule is exact, so, as in ``power_moment``, only roundoff is left
    and ``err_estimate`` is 0.0: a second, larger exact rule would measure
    roundoff alone, not the error.
    """
    return _double_integral(state.n, (state.l,))[0]


def _double_integral(n: int, ls) -> list[ExpectationResult]:
    """``double_integral_rep`` at (n, l) for each l in ``ls``, one l or the
    whole l-family, with the x integral formed once.

    The integrand depends on x only through u = x^2, and
    int_{-1}^{1} g(x^2) dx = 2^(-1/2) int_{-1}^{1} g((1+t)/2) (1+t)^(-1/2) dt,
    so x runs as u = (1+t)/2 on the Gauss-Jacobi rule for (0, -1/2) at
    n // 2 + 1 nodes, exact for (1+u) U_{n-1}, of degree n in u; 1 - u is
    formed as (1-t)/2.  y runs on Gauss-Legendre at n + 4 nodes, exact for
    P_l U_{n-1}.
    """
    # The 1-D factors (1+u) and P_l(y) ride on the weights.
    t, wt = gauss_jacobi(n // 2 + 1, 0.0, -0.5)
    u, v = 0.5 * (1.0 + t), 0.5 * (1.0 - t)
    y, wy = gauss_jacobi(n + 4, 0.0, 0.0)
    wu = wt * (1.0 + u) / math.sqrt(2.0)
    x_part = wu @ _u_kernel(n, u, v, y)
    return [
        ExpectationResult(n / math.pi * float(x_part @ (wy * p_l)), "double_integral", 0.0)
        for p_l in _rows(n, ls, y, legendre=True)
    ]
