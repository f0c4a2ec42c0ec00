"""Orthogonal polynomials and gamma-family special functions.

All polynomial families are evaluated by their forward three-term
recurrences, never by expanded coefficients.  That keeps them stable for
degrees in the hundreds and, just as important here, makes them exact when
called with ``fractions.Fraction`` arguments: the ultraspherical recurrence
only ever divides by the degree, so rational in, rational out.  The float
branches divide each step through by the degree in its Python-float
coefficients, so that a step is an in-place multiply and subtract over the
points with no division pass.

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
    "gauss_jacobi",
    "gauss_legendre_panels",
]


def gegenbauer(n: int, lam, x):
    """Ultraspherical polynomial C_n^lam(x) by forward recurrence
    k C_k = 2(k+lam-1) x C_{k-1} - (k+2lam-2) C_{k-2}.

    Accepts float, Fraction or numpy array ``x``; the result is an exact
    ``Fraction`` for Fraction ``x`` and rational ``lam``.  ``lam`` must be
    nonzero (the family degenerates there); negative ``n`` returns 0.
    ``lam = 1/2`` gives the Legendre polynomial P_n: the recurrence then
    reduces to Bonnet's, divided through by k.  The float branch runs each
    step in place as C_k = a_k x C_{k-1} - b_k C_{k-2}, with
    a_k = 2(k+lam-1)/k and b_k = (k+2lam-2)/k formed as Python floats: four
    passes over the points, none of them a division.  An input array is
    never written and the result is a fresh array.
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
    if isinstance(x, np.ndarray):
        x = x.astype(float, copy=False)  # the in-place steps keep the dtype of their first factor
    one = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if n <= 0:
        return one if n == 0 else 0 * one
    c_prev, c_curr = one, 2 * lam * x
    for k in range(2, n + 1):
        # (2(k+lam-1)/k) x C_{k-1} - ((k+2lam-2)/k) C_{k-2}, in place
        c_next = 2 * (k + lam - 1) / k * x
        c_next *= c_curr
        c_prev *= (k + 2 * lam - 2) / k
        c_next -= c_prev
        c_prev, c_curr = c_curr, c_next
    return c_curr


def _gegenbauer_rows(lams, x) -> np.ndarray:
    """Row i is ``gegenbauer(r - 1 - i, lams[i], x)`` for r = len(lams), to
    the bit, from one sweep of the float recurrence; shape (r,) + shape(x).

    lams = l + 1 for l = 0 .. n-1 gives Fock's l-family C_{n-l-1}^{l+1} at
    one n, and r copies of 1/2 the Legendre P_{r-1}, ..., P_0.  Every row
    runs ``gegenbauer``'s step in place, with a_k and b_k formed from its
    own lam in the same operations, so elementwise it rounds alike.
    """
    lams = np.asarray(lams, dtype=float)
    x = np.asarray(x, dtype=float)
    r = lams.size
    lams = lams.reshape((r,) + (1,) * x.ndim)
    out = np.empty((r,) + x.shape)
    out[r - 1] = 1.0
    if r == 1:
        return out
    c_prev, c_curr = np.ones((r - 1,) + x.shape), 2 * lams[: r - 1] * x
    out[r - 2] = c_curr[r - 2]
    for k in range(2, r):
        live = r - k  # rows 0 .. live-1 reach degree k; row live-1 ends there
        lam = lams[:live]
        c_next = 2 * (k + lam - 1) / k * x
        c_next *= c_curr[:live]
        c_prev = c_prev[:live]
        c_prev *= (k + 2 * lam - 2) / k
        c_next -= c_prev
        c_prev, c_curr = c_curr, c_next
        out[live - 1] = c_curr[live - 1]
    return out


def laguerre_assoc(n: int, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x), n >= 0, as floats at
    every degree, integer ``x`` included, by forward recurrence
    k L_k = (2k-1+alpha-x) L_{k-1} - (k-1+alpha) L_{k-2}.

    Like ``gegenbauer``'s float branch, each step is divided through by k
    in its Python-float coefficients and runs in place, on a float copy of
    an integer array, as
    L_k = (x (-1/k) + (2k-1+alpha)/k) L_{k-1} - ((k-1+alpha)/k) L_{k-2}:
    five passes over the points, none of them a division.  An input array
    is never written and the result is a fresh array.
    """
    if n < 0:
        raise ValueError(f"laguerre_assoc requires n >= 0, got {n}")
    if isinstance(x, np.ndarray):
        x = x.astype(float, copy=False)  # the in-place steps keep the dtype of their first factor
    l_prev = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if n == 0:
        return l_prev
    l_curr = 1.0 + alpha - x
    for k in range(2, n + 1):
        # ((2k-1+alpha)/k - x/k) L_{k-1} - ((k-1+alpha)/k) L_{k-2}, in place
        l_next = x * (-1.0 / k)
        l_next += (2 * k - 1 + alpha) / k
        l_next *= l_curr
        l_prev *= (k - 1 + alpha) / k
        l_next -= l_prev
        l_prev, l_curr = l_curr, l_next
    return l_curr


def _spherical_jn(l: int, z: np.ndarray) -> np.ndarray:
    """Spherical Bessel function j_l(z) for l >= 0 on an array of z > 0.

    Where z >= l it runs the recurrence j_{k+1} = (2k+1)/z j_k - j_{k-1}
    upward from j_0 = sin z/z and j_1 = (j_0 - cos z)/z.  Below, where j_k
    falls off with k and the upward run would amplify its own rounding, it
    runs the ratios r_k = j_k/j_{k-1} = z/(2k+1 - z r_{k+1}) downward from
    r = 0 about sqrt(40 l) + 10 orders above l, and multiplies them onto
    whichever of j_0 and j_1 is larger in magnitude at each z.  The two never
    vanish together, and the larger one is free of the cancellation that
    j_1's formula meets at small z.
    """
    j0 = np.sin(z) / z
    if l == 0:
        return j0
    j1 = (j0 - np.cos(z)) / z
    out = np.empty_like(z)
    up = z >= l
    zu, prev, curr = z[up], j0[up], j1[up]
    for k in range(1, l):
        prev, curr = curr, (2 * k + 1) / zu * curr - prev
    out[up] = curr

    down = ~up
    zd, ratio, below_1 = z[down], np.zeros(np.count_nonzero(down)), 1.0
    for k in range(l + int(math.sqrt(40 * l)) + 10, 1, -1):
        ratio = zd / (2 * k + 1 - zd * ratio)
        if k <= l:
            below_1 = below_1 * ratio  # j_l / j_1 once k reaches 2
    # j_l = j_1 (j_l/j_1), or j_0 r_1 (j_l/j_1) with r_1 = z/(3 - z r_2) formed
    # only where |j_0| >= |j_1|, so that |r_1| <= 1 there.
    anchor = j1[down]
    at_j0 = np.abs(j0[down]) >= np.abs(anchor)
    anchor[at_j0] = j0[down][at_j0] * zd[at_j0] / (3.0 - zd[at_j0] * ratio[at_j0])
    out[down] = anchor * below_1
    return out


def gauss_jacobi(num: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``num``-point Gauss-Jacobi rule for the weight (1-x)^a (1+x)^b
    on [-1, 1] as (nodes, weights), nodes ascending; a, b > -1.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch,
    Math. Comp. 23, 221 (1969)), polished by one Newton step.  The weights
    follow the derivative formula, w proportional to (1-x^2) / P_{m-1}(x)^2
    with m = ``num``, scaled so that they sum to the weight's mass
    mu_0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2), which a Gauss
    rule integrates exactly.  Past ``math.gamma``'s range, a + b + 2 above
    about 171.6, the rule is refused with ``OverflowError``, as it is when
    a weight leaves the float range, rather than return 0 or inf.

    Each rule is built once and shared by every later caller, so both
    arrays are read-only.  At a == b the rule is symmetric to the bit,
    x == -x[::-1] and w == w[::-1], with a middle node of exactly 0.0 when
    ``num`` is odd; (0, 0) is the Gauss-Legendre rule.

    The nodes agree with scipy's ``roots_jacobi`` to 1e-14, and at (0, 0)
    the weights are within 5e-14 of a 40-digit reference to 120 nodes.  As
    a or b nears -1 the recurrence loses digits at that end.
    """
    num = _require_integer("num", num)
    if num < 1:
        raise ValueError(f"Gauss-Jacobi rule needs num >= 1, got {num}")
    a, b = float(a), float(b)
    if not (-1.0 < a < math.inf and -1.0 < b < math.inf):  # also false for NaN
        raise ValueError(f"Gauss-Jacobi exponents must be finite and exceed -1, got a={a}, b={b}")
    return _gauss_jacobi(num, a, b)


# The one rule cache, Gauss-Legendre included.  The x form runs one rule per
# n for each parity of an integer power, and the double integral two per n.
# Counted as ``cache_info().currsize`` in a fresh process, one verify at
# nmax 22 builds 43 rules (20 at (1/2, 1/2), 16 Gauss-Legendre, the panels'
# 24-point rule among them, 7 at (0, -1/2)), round 0 of the bench's grid
# workload at seed 1 43, and 40 rounds of its shadow workload at seed 1
# 216; the rest of the 1024 is room for non-integer powers.
@functools.lru_cache(maxsize=1024)
def _gauss_jacobi(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    # The weight's mass 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2); for
    # a, b > -1, Gamma(a+b+2) is the first to leave the float range.
    try:
        mass = 2.0 ** (a + b + 1.0) * (math.gamma(a + 1.0) / math.gamma(a + b + 2.0)) * math.gamma(b + 1.0)
    except OverflowError:
        raise OverflowError(
            f"the Gauss-Jacobi rule for (a, b) = ({a}, {b}) is refused: the Gamma({a + b + 2.0}) "
            "of its weight's mass is past the float range"
        ) from None

    # Golub-Welsch: the recurrence coefficients of the orthonormal Jacobi
    # polynomials.  The k = 0 diagonal and k = 1 off-diagonal entries are
    # taken in their cancelled forms, finite at a + b = 0 and a + b = -1.
    k = np.arange(1, m, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(m)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    off_sq = np.empty(m - 1)
    off_sq[:1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    k, s = k[1:], s[1:]
    off_sq[1:] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    jacobi = np.diag(diag)
    jacobi.flat[m :: m + 1] = np.sqrt(off_sq)  # the subdiagonal, all that eigvalsh reads
    x = np.linalg.eigvalsh(jacobi)

    # Past the float range the sweep yields inf or nan, and the check below
    # raises; numpy need not warn on the way.
    with np.errstate(all="ignore"):
        x, weights = _jacobi_newton_weights(m, a, b, mass, x)
    if a == b:
        # The symmetric weight's rule, made symmetric to the bit: an odd
        # rule's middle node becomes exactly 0.0.
        x = 0.5 * (x - x[::-1])
        weights = 0.5 * (weights + weights[::-1])
    if not np.all(np.isfinite(weights) & (weights > 0.0)):
        raise OverflowError(
            f"the {m}-point Gauss-Jacobi rule for (a, b) = ({a}, {b}) overflows: a weight leaves the float range"
        )
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


def _jacobi_newton_weights(m: int, a: float, b: float, mass: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues ``x`` after one Newton step, and their weights.

    One sweep of the three-term recurrence gives P_{m-2}, P_{m-1} and P_m at
    ``x``; P_{m-1} follows the node to first order, and the weights are
    (1-x^2) / P_{m-1}(x)^2 there, scaled to sum to ``mass``.
    """
    # 2j(j+a+b)(c-2) P_j = (c-1)(c(c-2) x + a^2-b^2) P_{j-1} - 2(j+a-1)(j+b-1) c P_{j-2}
    # with c = 2j+a+b, all coefficients formed at once, one row per j.
    j = np.arange(2.0, m + 1.0)
    c = 2.0 * j + a + b
    den = 2.0 * j * (j + a + b) * (c - 2.0)
    rows = ((c - 1.0) * c * (c - 2.0) / den)[:, None] * x + ((c - 1.0) * (a * a - b * b) / den)[:, None]
    back = 2.0 * (j + a - 1.0) * (j + b - 1.0) * c / den
    p_prev2, p_prev, p = np.zeros(m), np.ones(m), 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for row, coef in zip(rows, back.tolist()):
        p_prev2, p_prev, p = p_prev, p, row * p - coef * p_prev
    one_minus_sq = (1.0 - x) * (1.0 + x)

    def derivative(j, p_j, p_j_minus_1):
        # (2j+a+b)(1-x^2) P'_j = j((a-b) - (2j+a+b) x) P_j + 2(j+a)(j+b) P_{j-1}
        c = 2.0 * j + a + b
        return (j * ((a - b) - c * x) * p_j + 2.0 * (j + a) * (j + b) * p_j_minus_1) / (c * one_minus_sq)

    step = -p / derivative(m, p, p_prev)
    if m > 1:
        p_prev = p_prev + step * derivative(m - 1, p_prev, p_prev2)
    # 1 - x^2 at the unrounded corrected node: near x = +-1 the rounding of
    # x + step alone would move a weight by up to 1e-12.
    one_minus_sq = one_minus_sq - 2.0 * x * step
    x = x + step
    weights = one_minus_sq / (p_prev * p_prev)
    return x, weights * (mass / math.fsum(weights))


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
    ``_NODES_PER_PANEL``-point Gauss-Legendre rule, ``gauss_jacobi`` at
    (0, 0), returned as flat (nodes, weights) arrays."""
    nodes, weights = gauss_jacobi(_NODES_PER_PANEL, 0.0, 0.0)
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
) -> tuple[float, float] | list[tuple[float, float]]:
    """Composite Gauss-Legendre with panel doubling; returns (value, err),
    where err is the change on the last doubling.

    Its first two passes, on ``initial_panels`` and twice as many, are one
    call of ``f`` on both node sets; each later doubling is one call.
    ``abs_tol`` matters when the integral itself vanishes or is small
    against its integrand's magnitude, where relative accuracy is
    unreachable.  Raises ``ConvergenceError`` at the first non-finite pass,
    or with the last doubling's change when ``_MAX_DOUBLINGS`` doublings
    never agree.

    ``f`` may instead return one row per integrand, shape (rows, len(t)):
    the result is then a list of (value, err), one per row.  Each row stops
    at its own first agreeing doubling, and every value, err and error is
    that of a lone run of the row, pass by pass in the same operations;
    ``f`` still evaluates every row at each later doubling.
    """
    def checked(w: np.ndarray, y: np.ndarray, num: int) -> float:
        value = float(np.dot(w, y))
        if not math.isfinite(value):
            # No doubling can mend a non-finite integrand; stop at the first such pass.
            raise ConvergenceError(f"the pass on {num} panels is not finite ({value})", math.inf)
        return value

    panels = 2 * initial_panels
    t1, w1 = gauss_legendre_panels(a, b, initial_panels)
    t, w = gauss_legendre_panels(a, b, panels)
    y = f(np.concatenate((t1, t)))
    rows = y.reshape(-1, y.shape[-1])
    prev = [checked(w1, row[: w1.size], initial_panels) for row in rows]
    rows = rows[:, w1.size :]
    out, pending = [None] * len(prev), range(len(prev))
    for doubling in range(_MAX_DOUBLINGS):
        if doubling:
            panels *= 2
            t, w = gauss_legendre_panels(a, b, panels)
            rows = f(t).reshape(len(prev), -1)
        for i in pending:
            curr = checked(w, rows[i], panels)
            out[i], prev[i] = (curr, abs(curr - prev[i])), curr
        pending = [i for i in pending if not out[i][1] <= max(rel_tol * abs(out[i][0]), abs_tol)]
        if not pending:
            return out if y.ndim > 1 else out[0]
    raise ConvergenceError("panel refinement stalled", out[pending[0]][1])
