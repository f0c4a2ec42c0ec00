"""Plain reference implementations that the tests check the package against.

None of these has a caller in the package; each is the simplest form of its
formula, kept here as an oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hydromom.specfun import _adaptive_panels
from hydromom.wavefun import momentum_radial


def chebyshev_u(n: int, x):
    """Chebyshev polynomial of the second kind, U_n(x); U_{-1} = 0."""
    if n < 0:
        return 0 * x if isinstance(x, np.ndarray) else 0.0
    if n == 0:
        return np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else 1.0
    u_prev = np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else 1.0
    u_curr = 2 * x
    for _ in range(2, n + 1):
        u_prev, u_curr = u_curr, 2 * x * u_curr - u_prev
    return u_curr


def k_form(state, f, rel_tol: float) -> tuple[float, float]:
    """(value, err) of <f(P)> straight from the momentum amplitude:
    |P(k)|^2 f k^2/(8 pi^3) on k in (0, inf), compactified by
    k = kappa tan(theta).  The package's weight forms never evaluate the
    amplitude; this reference ties them to it."""
    kappa = 1.0

    def integrand(theta: np.ndarray) -> np.ndarray:
        k = kappa * np.tan(theta)
        amp = momentum_radial(state, kappa, k)
        jac = kappa / np.cos(theta) ** 2
        return amp * amp * f(k / kappa) * k * k * jac / (8.0 * math.pi**3)

    return _adaptive_panels(integrand, 0.0, 0.5 * math.pi * (1.0 - 1e-13), rel_tol, initial_panels=max(8, state.n))


def gamma_half_over_sqrt_pi(m: int) -> Fraction:
    """Gamma(m + 1/2) / sqrt(pi) = (2m)! / (4^m m!) for integer m >= 0."""
    return Fraction(math.factorial(2 * m), 4**m * math.factorial(m))


def pochhammer_neg_half(j: int) -> Fraction:
    """Rising factorial (-1/2)_j = Gamma(j - 1/2) / Gamma(-1/2), exactly.

    Finite product (-1/2)(1/2)(3/2)...(j - 3/2); equals 1 at j = 0 and is
    rational for every j >= 0, which sidesteps the gamma pole at -1/2.
    """
    if j < 0:
        raise ValueError(f"pochhammer_neg_half requires j >= 0, got {j}")
    out = Fraction(1)
    for i in range(j):
        out *= Fraction(2 * i - 1, 2)
    return out


def harmonic_odd_fractions(n: int) -> Fraction:
    """1 + 1/3 + ... + 1/(2n-1), one ``Fraction`` added per term."""
    return sum((Fraction(1, 2 * m - 1) for m in range(1, n + 1)), Fraction(0))


def gegenbauer_fractions(n: int, lam, x) -> list[Fraction]:
    """C_0^lam(x), ..., C_n^lam(x) by the textbook recurrence in ``Fraction``
    arithmetic: k C_k = 2(k+lam-1) x C_{k-1} - (k+2lam-2) C_{k-2}."""
    lam, x = Fraction(lam), Fraction(x)
    out = [Fraction(1), 2 * lam * x]
    for k in range(2, n + 1):
        out.append((2 * (k + lam - 1) * x * out[-1] - (k + 2 * lam - 2) * out[-2]) / k)
    return out[: n + 1]


def gegenbauer_forward(m: int, lam, x):
    """C_m^lam(x) by the textbook forward recurrence
    k C_k = 2(k+lam-1) x C_{k-1} - (k+2lam-2) C_{k-2}, in whatever arithmetic
    ``lam`` and ``x`` carry (mpmath numbers in the tests; mpmath's own
    gegenbauer fails near zeros)."""
    c_prev, c = 1, 2 * lam * x
    if m == 0:
        return c_prev
    for k in range(2, m + 1):
        c_prev, c = c, (2 * (k + lam - 1) * x * c - (k + 2 * lam - 2) * c_prev) / k
    return c


def laguerre_forward(m: int, alpha, x):
    """L_m^alpha(x) by the textbook forward recurrence
    k L_k = (2k-1+alpha-x) L_{k-1} - (k-1+alpha) L_{k-2}, in whatever
    arithmetic ``alpha`` and ``x`` carry."""
    l_prev, l_cur = 1, 1 + alpha - x
    if m == 0:
        return l_prev
    for k in range(2, m + 1):
        l_prev, l_cur = l_cur, ((2 * k - 1 + alpha - x) * l_cur - (k - 1 + alpha) * l_prev) / k
    return l_cur


def worst_against_mpmath(got, reference, grid) -> float:
    """Largest error of ``got`` against ``reference(mp, mp.mpf(g))`` at 50
    digits over the grid, relative to the reference's peak; the calling
    test is skipped when mpmath is missing."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        want = np.array([float(reference(mp, mp.mpf(float(g)))) for g in grid])
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def inv_p_family_fractions(n: int) -> list[Fraction]:
    """pi <hbar kappa/P> for l = 0 .. n-1 by the l-recurrence with every step
    a ``Fraction``: the circular closed form seeds it, a zero stands for the
    absent v_n (C_{n-2} = 0), and v_l = -(B v_{l+1} + C v_{l+2}) / A."""
    from hydromom.invp import _recurrence_coefficients, inv_p_circular

    downward = [0, inv_p_circular(n).coefficient]  # v_n, v_{n-1}, ..., v_0
    for l in range(n - 2, -1, -1):
        a, b, c = _recurrence_coefficients(n, l)
        downward.append(-(b * downward[-1] + c * downward[-2]) / a)
    return downward[:0:-1]


def inv_p_family_fraction_loop(n: int) -> list[Fraction]:
    """pi <hbar kappa/P> for l = 0 .. n-1 by the one-denominator integer run
    with a ``Fraction`` per l, as the family ran before it became integer
    pairs: v_l = Fraction(p1, d), and the content gcd(p1, p2, d) is p2's gcd
    with the one that Fraction took."""
    from hydromom.invp import _recurrence_coefficients, inv_p_circular

    downward = [inv_p_circular(n).coefficient]  # v_{n-1}, v_{n-2}, ..., v_0
    p1, p2, d = downward[0].numerator, 0, downward[0].denominator
    for l in range(n - 2, -1, -1):
        a, b, c = _recurrence_coefficients(n, l)
        p1, p2, d = -(b * p1 + c * p2), a * p1, a * d
        v = Fraction(p1, d)
        g = math.gcd(d // v.denominator, p2)
        p1, p2, d = p1 // g, p2 // g, d // g
        downward.append(v)
    return downward[::-1]


def ratio_sum_fractions(first: Fraction, terms: int, ratio, weight=lambda j: (1, 1)) -> Fraction:
    """first * sum_{j < terms} (prod_{i < j} p_i/q_i) * u_j/v_j by Horner's rule
    from the tail, the running numerator and denominator never reduced."""
    num, den = weight(terms - 1)
    for j in range(terms - 2, -1, -1):
        p, q = ratio(j)
        u, v = weight(j)
        num, den = u * q * den + v * p * num, v * q * den
    return first * Fraction(num, den)


def inv_p_series_compact_fractions(n: int, l: int) -> Fraction:
    """pi <hbar kappa/P> by the compact series, its j = 0 term a ``Fraction``
    quotient of factorials and of G(l+3/2) G(l+5/2)/pi."""

    def ratio(j):
        p = -4 * (l + j + 3) * (n + l + j + 1) * (l + j + 1) ** 2 * (n - l - j - 1)
        return p, (l + j + 2) * (2 * l + j + 2) * (j + 1) * (2 * l + 2 * j + 3) * (2 * l + 2 * j + 5)

    gg = Fraction(
        math.comb(2 * l + 2, l + 1) * math.factorial(l + 1) * math.comb(2 * l + 4, l + 2) * math.factorial(l + 2),
        4 ** (2 * l + 3),
    )
    first = Fraction(
        n * (l + 2) * math.factorial(n + l) * math.factorial(l) ** 2,
        math.factorial(n - l - 1) * math.factorial(2 * l + 1),
    ) / gg
    return ratio_sum_fractions(first, n - l, ratio)


def inv_p_series_connection_fractions(n: int, l: int) -> Fraction:
    """pi <hbar kappa/P> by the reduced connection series, its j = 0 term
    2n/(n+l) R_0^2 built from ``Fraction``s."""

    def ratio(j):
        p = (2 * j + 1) ** 2 * (2 * n - 2 * j - 1) ** 2 * (n - l - 2 * j - 1) * (n - l - 2 * j - 2)
        return p, 16 * (j + 1) ** 2 * (n - j - 1) ** 2 * (n + l - 2 * j - 1) * (n + l - 2 * j - 2)

    def bracket(j):
        sq = (2 * j - 1) ** 2 * (2 * n - 2 * j + 1) ** 2
        tail = (n + l - 2 * j) * (n + l + 1 - 2 * j) * (2 * n + 1 - 4 * j)
        return 2 * (2 * n - 1 - 4 * j) * sq - tail, 2 * sq

    r0 = Fraction(4**n, n * math.comb(2 * n, n))
    return ratio_sum_fractions(Fraction(2 * n, n + l) * r0 * r0, (n - l - 1) // 2 + 1, ratio, bracket)


def digamma_quarter_diff_fractions(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """psi(a) - psi(b) = q + c pi for quarter-integers a, b > 0 whose constants
    cancel, each recurrence step a ``Fraction`` 1/(f + i); ValueError otherwise."""

    def split(v: Fraction) -> tuple[Fraction, int]:
        frac = v - math.floor(v)
        if frac == 0:
            return Fraction(1), int(v) - 1
        return frac, int(math.floor(v))

    fa, ma = split(Fraction(a))
    fb, mb = split(Fraction(b))
    rational = sum((Fraction(1) / (fa + i) for i in range(ma)), Fraction(0)) - sum(
        (Fraction(1) / (fb + i) for i in range(mb)), Fraction(0)
    )
    if fa == fb:
        return rational, Fraction(0)
    if {fa, fb} == {Fraction(1, 4), Fraction(3, 4)}:
        return rational, Fraction(1) if fa == Fraction(3, 4) else Fraction(-1)
    raise ValueError(f"psi({a}) - psi({b}) is not rational-plus-pi")


def legendre_rule_mpmath(num: int) -> tuple[list, list]:
    """The ``num``-point Gauss-Legendre rule as 40-digit mpmath numbers,
    nodes ascending.

    Newton's method on P_num by Bonnet's recurrence from the usual cosine
    guesses, until a step drops below 1e-38; w = 2 / ((1 - x^2) P'_num(x)^2).
    """
    import mpmath as mp

    def legendre_and_derivative(x):
        p_prev, p = mp.mpf(1), x
        for j in range(2, num + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, num * (x * p - p_prev) / (x * x - 1)

    nodes, weights = [], []
    with mp.workdps(40):
        for k in range(num, 0, -1):
            x = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (num + mp.mpf(1) / 2))
            for _ in range(100):
                p, dp = legendre_and_derivative(x)
                step = p / dp
                x -= step
                if abs(step) < mp.mpf(10) ** -38:
                    break
            _, dp = legendre_and_derivative(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def power_moment_mpmath(n: int, l: int, s: float) -> float:
    """<p^s> for the state (n, l) from Jacobi moments, at 60 digits.

    C_{n-l-1}^{l+1}(y - 1)^2 is expanded exactly in powers of y = 1 + x by
    the recurrence on ``Fraction`` coefficients, and each power is
    integrated against the weight in closed form,
    int (1-x)^a (1+x)^(b+j) dx = 2^(a+b+j+1) B(a+1, b+j+1), with
    a = l + 3/2 - s/2 and b = l + 1/2 + s/2; N is the usual normalisation.
    """
    import mpmath as mp

    lam = l + 1
    prev, cur = [Fraction(1)], [Fraction(-2 * lam), Fraction(2 * lam)]
    if n - l - 1 == 0:
        cur = prev
    for k in range(2, n - l):
        nxt = [Fraction(0)] * (k + 1)
        for i, c in enumerate(cur):
            nxt[i] -= Fraction(2 * (k + lam - 1), k) * c
            nxt[i + 1] += Fraction(2 * (k + lam - 1), k) * c
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k + 2 * lam - 2, k) * c
        prev, cur = cur, nxt
    square = [Fraction(0)] * (2 * len(cur) - 1)
    for i, ci in enumerate(cur):
        for j, cj in enumerate(cur):
            square[i + j] += ci * cj
    norm = Fraction(n * math.factorial(n - l - 1) * (2**l * math.factorial(l)) ** 2, math.factorial(n + l))
    with mp.workdps(60):
        a = l + mp.mpf(3) / 2 - mp.mpf(s) / 2
        b = l + mp.mpf(1) / 2 + mp.mpf(s) / 2
        total = mp.fsum(
            mp.mpf(c.numerator) / c.denominator * 2 ** (a + b + j + 1) * mp.beta(a + 1, b + j + 1)
            for j, c in enumerate(square)
        )
        return float(2 * mp.mpf(norm.numerator) / norm.denominator / mp.pi * total)
