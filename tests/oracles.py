"""Plain reference implementations that the tests check the package against.

None of these has a caller in the package; each is the simplest form of its
formula, kept here as an oracle.
"""

import math
from fractions import Fraction

import numpy as np


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


def gegenbauer_fractions(n: int, lam, x) -> list[Fraction]:
    """C_0^lam(x), ..., C_n^lam(x) by the textbook recurrence in ``Fraction``
    arithmetic: k C_k = 2(k+lam-1) x C_{k-1} - (k+2lam-2) C_{k-2}."""
    lam, x = Fraction(lam), Fraction(x)
    out = [Fraction(1), 2 * lam * x]
    for k in range(2, n + 1):
        out.append((2 * (k + lam - 1) * x * out[-1] - (k + 2 * lam - 2) * out[-2]) / k)
    return out[: n + 1]


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
