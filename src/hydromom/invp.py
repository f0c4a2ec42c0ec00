"""Exact closed forms and series for <hbar*kappa/P> over every bound state.

The inverse-momentum expectation value of the state (n, l) is rational
divided by pi, and this module produces that rational exactly along several
independent routes:

* S-wave (l = 0):       (8/pi) [K(n) - n^2/(4n^2-1)], K(n) = sum 1/(2m-1);
* circular (l = n-1):   Gamma(n) Gamma(n+2) / (Gamma(n+1/2) Gamma(n+3/2));
* near-circular (l = n-2):
                        (n+2) Gamma(n-1) Gamma(n+1) / (Gamma(n-1/2) Gamma(n+3/2));
* a single sum over j built from connection coefficients that re-expand the
  ultraspherical weight a half-step down and up ("series-connection");
* a shorter alternating single sum with n - l terms ("series-compact");
* the whole l-family at fixed n from a three-term recurrence in l, run
  downward from the circular closed form as its one seed ("recurrence").

Both series agree exactly on every state and specialize exactly to the
three closed forms.

A note on the S-wave form: the transcendental variant
(4/pi)[psi(n+1/2) - 2n^2/(4n^2-1) + gamma + ln 4] collapses to the rational
one via psi(n+1/2) + gamma + ln 4 = 2 K(n), and the contiguity step between
the two kernel integrals is K_1(n) - K_0(n) = -n^2/(4n^2-1).  (The same
quantity occasionally circulates with a spurious 4n^2 numerator and positive
sign; the defining integral, evaluated directly, rules that variant out.)
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact import (
    ExpectationResult,
    PiGradedRational,
    QuantumState,
    _gegenbauer_numerators,
    _require_integer,
    harmonic_odd,
)

__all__ = [
    "connection_coeffs",
    "reconstruction_residual",
    "inv_p_swave",
    "inv_p_circular",
    "inv_p_near_circular",
    "inv_p_series_connection",
    "inv_p_series_compact",
    "inv_p_exact",
    "inv_p",
]


def inv_p_swave(n: int) -> PiGradedRational:
    """<hbar kappa/P> for the S-wave state (n, 0), exactly rational over pi."""
    n = QuantumState(n, 0).n
    coeff = 8 * (harmonic_odd(n) - Fraction(n * n, 4 * n * n - 1))
    return PiGradedRational(coeff, -1)


def inv_p_circular(n: int) -> PiGradedRational:
    """<hbar kappa/P> for the circular state (n, n-1).

    The ultraspherical factor degenerates to a constant and the whole value
    is a ratio of four gammas; the two half-integer ones contribute the pi.
    With G(m+1/2) = sqrt(pi) (2m)!/(4^m m!) the rational part is
    4^(2n+1) / (n C(2n, n) C(2n+2, n+1)).
    """
    n = QuantumState(n, 0).n
    den = n * math.comb(2 * n, n) * math.comb(2 * n + 2, n + 1)
    return PiGradedRational(Fraction(4 ** (2 * n + 1), den), -1)


def inv_p_near_circular(n: int) -> PiGradedRational:
    """<hbar kappa/P> for the near-circular state (n, n-2), n >= 2.

    The rational part is (n+2) 4^(2n) / ((n-1)(n+1) C(2n-2, n-1) C(2n+2, n+1)).
    """
    n = _require_integer("n", n)
    QuantumState(n, n - 2)
    den = (n - 1) * (n + 1) * math.comb(2 * n - 2, n - 1) * math.comb(2 * n + 2, n + 1)
    return PiGradedRational(Fraction((n + 2) * 4 ** (2 * n), den), -1)


def connection_coeffs(n: int, l: int) -> tuple[list[int], list[int], int]:
    """The coefficients re-expanding C_{n-l-1}^{l+1} in neighboring weights,
    as integer numerators over one shared denominator: ``(betas, gammas, den)``
    with beta_j = betas[j]/den and gamma_j = gammas[j]/den, j = 0 .. floor((n-l-1)/2).

    beta_j multiplies C_{n-l-1-2j}^{l+1/2} and gamma_j multiplies
    C_{n-l-1-2j}^{l+3/2}; both are plain rationals once the sqrt(pi) pairs cancel:

    beta_j = (n-2j-1/2)/j! * [G(l+1/2)/G(l+1)] * [G(j+1/2) G(n-j) / (G(1/2) G(n-j+1/2))]
    gamma_j = (n-2j+1/2)/j! * [G(l+3/2)/G(l+1)] * [(-1/2)_j G(n-j) / G(n-j+3/2)]

    where the rising factorial (-1/2)_j stands in for G(j-1/2)/G(-1/2),
    finite for every j and equal to the limit value at the pole.  Without
    their (n-2j-/+1/2) factors, term j over term j-1 is
    (2j-1)(2n-2j+1) / (4j(n-j)) for beta and (2j-3)(2n-2j+3) / (4j(n-j)) for
    gamma, and gamma_0 = beta_0 (2l+1)/(2n+1).  The ratios share their
    denominator, so one forward product per side times the suffix product of
    4i(n-i) past j gives every numerator.
    """
    state = QuantumState(n, l)
    n, l = state.n, state.l
    # G(l+1/2) G(n) / (G(l+1) G(n+1/2)) = C(2l, l) 4^(n-l) / (n C(2n, n)) is
    # beta_0 without its factor; gamma_0's is that times (2l+1)/(2n+1).
    last = (n - l - 1) // 2
    top = math.comb(2 * l, l) * 4 ** (n - l)
    suffix = [1] * (last + 1)
    for j in range(last, 0, -1):
        suffix[j - 1] = suffix[j] * 4 * j * (n - j)
    beta, gamma_c = top * (2 * n + 1), top * (2 * l + 1)
    betas, gammas = [], []
    for j in range(last + 1):
        if j:
            beta *= (2 * j - 1) * (2 * n - 2 * j + 1)
            gamma_c *= (2 * j - 3) * (2 * n - 2 * j + 3)
        betas.append(beta * suffix[j] * (2 * n - 4 * j - 1))
        gammas.append(gamma_c * suffix[j] * (2 * n - 4 * j + 1))
    return betas, gammas, 2 * n * math.comb(2 * n, n) * (2 * n + 1) * suffix[0]


def _series_connection_unreduced(n: int, l: int) -> PiGradedRational:
    """The connection-coefficient sum before algebraic reduction.

    Kept as an internal regression witness: it must coincide exactly with
    the reduced series for every state.  Term j is
        (n+l-2j-1)!/(n-l-2j-1)! * [2 beta_j^2 / (n-2j-1/2)
            - (n+l-2j)(n+l+1-2j)/(2l+1)^2 * gamma_j^2 / (n-2j+1/2)],
    summed on the integer numerators of ``connection_coeffs`` with their
    shared den^2 (2l+1)^2 taken out, as one integer numerator and
    denominator and a single ``Fraction``.
    """
    state = QuantumState(n, l)
    n, l = state.n, state.l
    betas, gammas, den = connection_coeffs(n, l)
    sq = (2 * l + 1) ** 2
    num, bottom = 0, 1
    for j, (b, g) in enumerate(zip(betas, gammas)):
        low, high = 2 * n - 4 * j - 1, 2 * n - 4 * j + 1
        pair = (n + l - 2 * j) * (n + l + 1 - 2 * j)
        # den^2 (2l+1)^2 times the bracket is 2 (2 b^2 (2l+1)^2 high - pair g^2 low) / (low high).
        term = 2 * math.perm(n + l - 2 * j - 1, 2 * l) * (2 * b * b * sq * high - pair * g * g * low)
        num, bottom = num * low * high + term * bottom, bottom * low * high
    # (2n (n-l-1)!/(n+l)!) (G(l+1)/G(l+1/2))^2 / pi with G(l+1)/G(l+1/2) = 4^l / C(2l, l)
    top = 2 * n * math.factorial(n - l - 1) * 16**l
    below = math.factorial(n + l) * math.comb(2 * l, l) ** 2 * den * den * sq
    return PiGradedRational(Fraction(top * num, below * bottom), -1)


_GCD_EVERY = 32  # Horner steps between gcd reductions of the running pair


def _ratio_sum(top: int, bottom: int, terms: int, ratio, weight=lambda j: (1, 1)) -> Fraction:
    """(top/bottom) * sum_{j < terms} (prod_{i < j} p_i/q_i) * u_j/v_j for
    integer (p_j, q_j) = ratio(j) and (u_j, v_j) = weight(j), by Horner's rule
    from the tail in one integer numerator and denominator, with one
    ``Fraction`` product at the end.

    Left alone, the pair grows by every step's full p, q, u and v, many
    times the bits of the reduced value; dividing out their gcd every
    ``_GCD_EVERY`` steps keeps the products near the reduced size while the
    gcds stay rare.  The prefactor is reduced on its own and cancelled
    against the Horner pair by the product's cross gcds: at near-circular l
    it is far longer than the sum, and one gcd of the full products costs
    more.
    """
    num, den = weight(terms - 1)
    for step, j in enumerate(range(terms - 2, -1, -1), 1):
        p, q = ratio(j)
        u, v = weight(j)
        num, den = u * q * den + v * p * num, v * q * den
        if step % _GCD_EVERY == 0:
            g = math.gcd(num, den)
            num, den = num // g, den // g
    return Fraction(top, bottom) * Fraction(num, den)


def inv_p_series_connection(n: int, l: int) -> PiGradedRational:
    """<hbar kappa/P> as the reduced connection-coefficient single sum.

    (2n (n-l-1)!/(pi (n+l)!)) * sum_j R_j^2 * G(n+l-2j)/G(n-l-2j) *
        [(2n-1-4j) - (n+l-2j)(n+1/2-2j)(n+l+1-2j) / ((2j-1)^2 (2n-2j+1)^2)]

    with R_j = G(j+1/2) G(n-j) / (G(j+1) G(n-j+1/2)), a plain rational.
    Without the bracket, term j+1 over term j is
        (2j+1)^2 (2n-2j-1)^2 (n-l-2j-1)(n-l-2j-2) /
            (16 (j+1)^2 (n-j-1)^2 (n+l-2j-1)(n+l-2j-2)).
    """
    state = QuantumState(n, l)
    n, l = state.n, state.l

    def ratio(j):
        p = (2 * j + 1) ** 2 * (2 * n - 2 * j - 1) ** 2 * (n - l - 2 * j - 1) * (n - l - 2 * j - 2)
        return p, 16 * (j + 1) ** 2 * (n - j - 1) ** 2 * (n + l - 2 * j - 1) * (n + l - 2 * j - 2)

    def bracket(j):
        sq = (2 * j - 1) ** 2 * (2 * n - 2 * j + 1) ** 2
        tail = (n + l - 2 * j) * (n + l + 1 - 2 * j) * (2 * n + 1 - 4 * j)
        return 2 * (2 * n - 1 - 4 * j) * sq - tail, 2 * sq

    # 2n/(n+l) R_0^2 with R_0 = G(1/2) G(n) / G(n+1/2) = 4^n / (n C(2n, n))
    top, bottom = 2 * n * 4 ** (2 * n), (n + l) * (n * math.comb(2 * n, n)) ** 2
    return PiGradedRational(_ratio_sum(top, bottom, (n - l - 1) // 2 + 1, ratio, bracket), -1)


def inv_p_series_compact(n: int, l: int) -> PiGradedRational:
    """<hbar kappa/P> as the alternating single sum with n - l terms.

    sum_j (-1)^j n (l+j+2) (n+l+j)! [(l+j)!]^2 /
          ((n-l-j-1)! (2l+j+1)! j! G(l+j+3/2) G(l+j+5/2))

    The product of the two half-integer gammas carries exactly one pi.
    Term j+1 over term j is
        -4 (l+j+3)(n+l+j+1)(l+j+1)^2 (n-l-j-1) /
            ((l+j+2)(2l+j+2)(j+1)(2l+2j+3)(2l+2j+5)).
    """
    state = QuantumState(n, l)
    n, l = state.n, state.l

    def ratio(j):
        p = -4 * (l + j + 3) * (n + l + j + 1) * (l + j + 1) ** 2 * (n - l - j - 1)
        return p, (l + j + 2) * (2 * l + j + 2) * (j + 1) * (2 * l + 2 * j + 3) * (2 * l + 2 * j + 5)

    # The j = 0 term over pi, with (n+l)!/(n-l-1)! = perm(n+l, 2l+1),
    # (l!)^2/(2l+1)! = 1/((2l+1) C(2l, l)) and
    # G(l+3/2) G(l+5/2)/pi = perm(2l+2, l+1) perm(2l+4, l+2) / 4^(2l+3).
    top = n * (l + 2) * math.perm(n + l, 2 * l + 1) * 4 ** (2 * l + 3)
    bottom = (2 * l + 1) * math.comb(2 * l, l) * math.perm(2 * l + 2, l + 1) * math.perm(2 * l + 4, l + 2)
    return PiGradedRational(_ratio_sum(top, bottom, n - l, ratio), -1)


def _recurrence_coefficients(n: int, l: int) -> tuple[int, int, int]:
    """(A_l, B_l, C_l) with A_l v_l + B_l v_{l+1} + C_l v_{l+2} = 0, where
    v_l = pi <hbar kappa/P>_{n,l}.

    Zeilberger's algorithm (Petkovsek-Wilf-Zeilberger, A=B, ch. 6) proves it
    for the compact sum through a rational certificate R(l, j): with F(l, j)
    the compact term, A F(l,j) + B F(l+1,j) + C F(l+2,j) = G(l,j+1) - G(l,j)
    for G = R F, and G vanishes at j = 0 and j = n - l, so the sum over j
    telescopes to zero.  The tests check that identity exactly.
    """
    nn = n * n
    a = 2 * (l - n + 1) * (l + 1) * (l + n + 1) * (3 * l * l + 12 * l - 4 * nn + 13)
    b = -(2 * l + 3) * (
        6 * l**4 + 36 * l**3 + (83 - 14 * nn) * l * l + (87 - 42 * nn) * l + 8 * nn * nn - 38 * nn + 36
    )
    c = 2 * (l - n + 2) * (l + 2) * (l + n + 2) * (3 * l * l + 6 * l - 4 * nn + 4)
    return a, b, c


_FAMILY_MEMO_MAX_N = 200


def _family_pairs(n: int) -> list[tuple[int, int]]:
    """pi <hbar kappa/P> for every state (n, l), l = 0 .. n-1, as integer
    pairs (p, q) in lowest terms with q > 0, in a new list on every call.

    Families with n <= 200 are built once per process and kept in
    ``_family_memo``; larger ones are run afresh by ``_family_run`` and never
    kept.  The bound follows the family's size, whose integers grow as n^2:
    all 200 small families together stay under 5.5 MB (tracemalloc,
    10^6-byte MB).  The table, ``verify`` and the sum rules ask for the same
    small n again and again within one process.
    """
    n = QuantumState(n, 0).n
    if n <= _FAMILY_MEMO_MAX_N:
        return list(_family_memo(n))
    return list(_family_run(n))


def _family_run(n: int) -> tuple[tuple[int, int], ...]:
    """The family's pairs, l = 0 .. n-1, from one run of the recurrence.

    Seeded with the circular (l = n-1) closed form alone, the recurrence of
    ``_recurrence_coefficients`` runs downward to l = 0, one exact rational
    step per l instead of one n - l term series.  Its first step, at l = n-2,
    weights the absent v_n by C_{n-2} = 0, so a placeholder stands there and
    the near-circular closed form stays an independent witness.  A_l has no
    zero for 0 <= l <= n-2: its linear factors cannot vanish there, and its
    quadratic factor 3(l+2)^2 + 1 - 4n^2 vanishes only where
    (l+2)^2 = (4n^2-1)/3 > n^2 (n >= 2).

    The run is on integers: v_{l+1} = p1/d and v_{l+2} = p2/d share one
    denominator, a step is (p1, p2, d) -> (-(B p1 + C p2), A p1, A d), and the
    content gcd(p1, p2, d) is p2's gcd with the gcd g = gcd(p1, d) that puts
    v_l = p1/d in lowest terms.
    """
    seed = inv_p_circular(n).coefficient
    p1, p2, d = seed.numerator, 0, seed.denominator  # v_{n-1} and the placeholder v_n
    downward = [(p1, d)]  # v_{n-1}, v_{n-2}, ..., v_0
    for l in range(n - 2, -1, -1):
        a, b, c = _recurrence_coefficients(n, l)
        if a == 0:
            raise ArithmeticError(f"recurrence leading coefficient vanishes at (n={n}, l={l})")
        p1, p2, d = -(b * p1 + c * p2), a * p1, a * d
        g = math.gcd(p1, d)
        downward.append((p1 // g, d // g) if d > 0 else (-p1 // g, -d // g))
        g = math.gcd(g, p2)
        p1, p2, d = p1 // g, p2 // g, d // g
    return tuple(downward[::-1])


_family_memo = functools.lru_cache(maxsize=None)(_family_run)


def reconstruction_residual(n: int, l: int) -> float:
    """Max residual of the two weight-shift reconstructions.

    Checks that sum_j beta_j C_{m-2j}^{l+1/2}(x) and
    sum_j gamma_j C_{m-2j}^{l+3/2}(x) both rebuild C_m^{l+1}(x), m = n-l-1.
    Both sides are polynomials of degree m, so m + 1 evenly spaced points
    x = a/d on [-1, 1] (d = max(m, 1), a = -d, 2-d, ..., d) decide the
    identity exactly: the residual vanishes exactly when it holds.

    The identity is decided on integers.  With C_k^lam(a/d) = N_k/(d^k q^k k!)
    for lam = p/q, where N_k = 2(qk+p-q) a N_{k-1} - (qk+2p-2q)(k-1) q d^2 N_{k-2}
    (``exact._gegenbauer_numerators``), a side times D d^m 2^m m! is
        sum_j c_j (4 d^2)^j m!/(m-2j)! N_{m-2j} - D 2^m T_m,
    with c_j/D its coefficients from ``connection_coeffs``, N the numerators
    at lam = l+1/2 (or l+3/2, so q = 2) and T those at lam = l+1 (q = 1).
    Only the worst gap becomes a ``Fraction``.
    """
    state = QuantumState(n, l)
    n, l = state.n, state.l
    betas, gammas, den = connection_coeffs(n, l)
    m = n - l - 1
    d = max(m, 1)
    scales = [(4 * d * d) ** j * math.perm(m, 2 * j) for j in range(len(betas))]
    sides = [(p, [c * s for c, s in zip(coeffs, scales)]) for p, coeffs in ((2 * l + 1, betas), (2 * l + 3, gammas))]
    worst = 0
    for a in range(-d, d + 1, 2):
        *_, target = _gegenbauer_numerators(m, l + 1, 1, a, d)
        target = den * target << m
        for p, weights in sides:
            sweep = list(_gegenbauer_numerators(m, p, 2, a, d))
            worst = max(worst, abs(sum(w * sweep[m - 2 * j] for j, w in enumerate(weights)) - target))
    return float(Fraction(worst, den * d**m * 2**m * math.factorial(m)))


def inv_p_exact(n: int, l: int) -> tuple[PiGradedRational, str]:
    """One state through the compact series; returns (value, method tag)."""
    return inv_p_series_compact(n, l), "series-compact"


def inv_p(state: QuantumState) -> ExpectationResult:
    """<hbar kappa/P> for a state, with exact and float fields both filled.

    ``err_estimate`` is 4 * 2^-52 * |value|, a bound on the rounding of the
    float from the exact value.  The same relative bound holds for the
    float in every unit (times 2 pi, or times n a/hbar).
    """
    exact, method = inv_p_exact(state.n, state.l)
    value = exact.to_float()
    return ExpectationResult(value, method, 4.0 * abs(value) * 2.0**-52, exact)
