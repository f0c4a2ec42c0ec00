"""Large-n behavior of <hbar*kappa/P> in its three regimes.

At fixed small l the value grows like (4/pi) log n, with an l-dependent
constant: (pi/4) <hk/P> = ln 4n + gamma - 1/2 - H_l - (2 + 3l(l+1))/(24 n^2)
+ O(n^-4), H_l the l-th harmonic number; near the circular ladder
l = n-1-delta it tends to 1 from above like 1 + 3(2 delta + 1)/(4n); and
along rays l = lam*(n-1) with 0 < lam < 1 it tends to a finite lam-dependent
constant.  That constant has the closed form (2/pi) [2 K(e) - E(e)], with K and
E the complete elliptic integrals of modulus e, e^2 = 1 - lam^2; the closed
form is not implemented yet, so the constant is obtained here by Richardson
extrapolation of the exact series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import QuantumState, _require_integer
from .invp import inv_p_exact

EULER_GAMMA = 0.5772156649015328606

__all__ = [
    "swave_asymptotic",
    "small_ell_asymptotic",
    "near_circular_asymptotic",
    "lambda_limit",
]


def swave_asymptotic(n: int) -> float:
    """Large-n S-wave estimate (4/pi)[log(4n) + gamma - 1/2 - 1/(12 n^2)].

    The l = 0 member of :func:`small_ell_asymptotic`.  Worst at n = 1 (about
    3.5% high); the relative error falls roughly like 1/(n^4 log n) thereafter.
    """
    return small_ell_asymptotic(n, 0)


def small_ell_asymptotic(n: int, l: int = 0) -> float:
    """Fixed-l estimate (4/pi)[log 4n + gamma - 1/2 - H_l - (2 + 3l(l+1))/(24 n^2)].

    H_l = 1 + 1/2 + ... + 1/l is the l-th harmonic number, so neighbouring
    l differ by 4/(pi l) at large n.  The n^-2 coefficient was found
    numerically from the exact series (the paper does not state it) and
    leaves an O(n^-4) error, which grows with l at each n.  At l = 0 this is
    :func:`swave_asymptotic`.
    """
    state = QuantumState(n, l)
    n, l = state.n, state.l
    harmonic = math.fsum(1.0 / k for k in range(1, l + 1))
    tail = (2 + 3 * l * (l + 1)) / (24.0 * n * n)
    return 4.0 / math.pi * (math.log(4.0 * n) + EULER_GAMMA - 0.5 - harmonic - tail)


def near_circular_asymptotic(n: int, delta: int = 0) -> float:
    """Estimate 1 + 3(2 delta + 1)/(4n) for the state l = n - 1 - delta.

    delta = 0 gives 1 + 3/(4n) and delta = 1 gives 1 + 9/(4n), matching the
    expansions of the circular and near-circular closed forms; the error is
    O(1/n^2).  Note the estimate is for the dimensionless <hbar kappa/P>;
    the physical <1/P> carries an extra factor n a/hbar.
    """
    n = _require_integer("n", n)
    delta = _require_integer("delta", delta)
    QuantumState(n, n - 1 - delta)
    return 1.0 + 3.0 * (2 * delta + 1) / (4.0 * n)


def _snap_lambda(lam) -> Fraction:
    """The ray slope ``lambda_limit`` samples: lam snapped to the nearest
    fraction with denominator <= 64, with 0 < lam < 1 checked before and
    after the snap."""
    if not 0 < lam < 1:  # also rejects NaN and inf, which Fraction cannot take
        raise ValueError(f"need 0 < lambda < 1, got {lam}")
    snapped = Fraction(lam).limit_denominator(64)
    if not 0 < snapped < 1:
        raise ValueError(f"need 0 < lambda < 1, got {snapped} after snapping to a denominator <= 64")
    return snapped


def lambda_limit(lam, n_max: int = 400, tol: float = 0.05) -> tuple[float, float]:
    """Large-n limit of <hk/P> along the ray l = lam (n - 1), 0 < lam < 1.

    Snaps lam to a denominator <= 64 (``_snap_lambda``), samples the exact
    series at three geometrically spaced n values up to about ``n_max``
    (snapped so lam (n-1) is an integer) and extrapolates in 1/n with a
    Neville table.  Returns (limit, err) where err is the last
    extrapolation increment; raises RuntimeError with the final iterates
    if they still move more than ``tol``.
    """
    lam = _snap_lambda(lam)
    q = lam.denominator
    samples: list[tuple[int, float]] = []
    for k in (2, 1, 0):
        m = max(1, round((n_max - 1) / q / 2**k))
        n = q * m + 1
        if samples and n <= samples[-1][0]:
            continue
        samples.append((n, inv_p_exact(n, round(lam * (n - 1)))[0].to_float()))
    if len(samples) < 2:
        raise ValueError("n_max too small to build an extrapolation ladder")
    hs = [1.0 / n for n, _ in samples]
    row = [value for _, value in samples]
    increment = math.inf
    for k in range(1, len(samples)):
        new = [
            row[i + 1] + (row[i + 1] - row[i]) * hs[i + k] / (hs[i] - hs[i + k])
            for i in range(len(row) - 1)
        ]
        increment = abs(new[-1] - row[-1])
        row = new
    limit = row[-1]
    if increment > tol:
        raise RuntimeError(
            f"ray extrapolation for lambda={lam} not settled: "
            f"last iterates differ by {increment:.3g} (> {tol})"
        )
    return limit, increment
