"""Hydrogenic radial wavefunctions in position and momentum space.

The momentum-space radial amplitude for the bound state (n, l) with inverse
length scale kappa = 1/(n*a) is a weighted ultraspherical polynomial in the
compact variable x = (k^2 - kappa^2)/(k^2 + kappa^2):

    P_nl(k) = 16 pi kappa^(5/2) sqrt(n (n-l-1)!/(n+l)!)
              * (4 k kappa)^l l! / (k^2 + kappa^2)^(l+2)
              * C_{n-l-1}^{l+1}(x)
            = 16 pi kappa^(5/2) sqrt(N) (2 k kappa/(k^2 + kappa^2))^l
              * C_{n-l-1}^{l+1}(x) / (k^2 + kappa^2)^2,

with N = n (n-l-1)! (2^l l!)^2/(n+l)! (the integer pair of
``exact._norm_ratio``), normalized so that
integral |P_nl|^2 k^2 dk / (8 pi^3) = 1.  Angular factors
are never evaluated; every quantity in this package is radial and assumes
orthonormal spherical harmonics.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exact import QuantumState, _norm_ratio, _sqrt_norm
from .specfun import _adaptive_panels, _spherical_jn, gauss_legendre_panels, gegenbauer, laguerre_assoc

__all__ = [
    "momentum_radial",
    "position_radial",
    "momentum_radial_numeric",
    "momentum_norm_exact",
    "generating_closed",
    "generating_partial",
]


def _require_domain(kappa: float, name: str, values) -> None:
    """ValueError unless kappa is finite and > 0 and every k or r in
    ``values`` (scalar or array) is finite and >= 0; outside, the amplitudes
    would return NaN, complex numbers or a silent 0.0."""
    if not 0 < kappa < math.inf:  # also rejects NaN
        raise ValueError(f"kappa must be finite and > 0, got kappa={kappa!r}")
    ok = (values >= 0) & (values < math.inf)  # NaN fails both
    if not np.all(ok):
        bad = values if np.ndim(values) == 0 else values[~ok][0]
        raise ValueError(f"{name} must be finite and >= 0, got {name}={bad!r}")


def momentum_radial(state: QuantumState, kappa: float, k):
    """Momentum-space radial amplitude P_nl(k); k >= 0, scalar or array.

    k = 0 is regular: the compact variable sits at x = -1 and the amplitude
    vanishes for l > 0, stays finite for l = 0.  ValueError unless kappa is
    finite and > 0 and every k is finite and >= 0.
    """
    n, l = state.n, state.l
    k = np.asarray(k, dtype=float) if not np.isscalar(k) else float(k)
    _require_domain(kappa, "k", k)
    k2 = k * k
    kap2 = kappa * kappa
    x = (k2 - kap2) / (k2 + kap2)
    poly = gegenbauer(n - l - 1, l + 1, x)
    # The base 2 k kappa/(k^2+kappa^2) is at most 1, so the power cannot
    # underflow where (4 k kappa)^l alone would, nor overflow.  power * C is
    # formed first: it cannot exceed |C|, and it stays normal where the small
    # prefactor times the power alone underflows, as at (800, 300).
    power = (2.0 * k * kappa / (k2 + kap2)) ** l if l > 0 else 1.0
    return 16.0 * math.pi * kappa**2.5 * _sqrt_norm(state) * (power * poly) / (k2 + kap2) ** 2


def position_radial(state: QuantumState, kappa: float, r):
    """Position-space radial wavefunction R_nl(r) (angular part excluded).

    R_nl(r) = 2 kappa^(3/2) sqrt((n-l-1)!/(n (n+l)!)) e^{-kappa r}
              (2 kappa r)^l L_{n-l-1}^{2l+1}(2 kappa r)
            = 2 kappa^(3/2) sqrt(N)/n * e^{-t/2} (t/2)^l / l! * L(t),  t = 2 kappa r.

    ValueError unless kappa is finite and > 0 and every r is finite and >= 0.
    """
    n, l = state.n, state.l
    r = np.asarray(r, dtype=float) if not np.isscalar(r) else float(r)
    _require_domain(kappa, "r", r)
    t = 2.0 * kappa * r
    # e^{-t/2} (t/2)^l / l! in log space: each factor alone overflows or
    # underflows at large l where their product is normal.
    log_envelope = -0.5 * t - math.lgamma(l + 1)
    if l > 0:
        with np.errstate(divide="ignore"):  # t = 0 gives log 0 = -inf, so the envelope 0
            log_envelope = log_envelope + l * np.log(0.5 * t)
    norm = 2.0 * kappa**1.5 * _sqrt_norm(state) / n
    return norm * np.exp(log_envelope) * laguerre_assoc(n - l - 1, 2 * l + 1, t)


def _tail_cutoff(state: QuantumState, kappa: float, floor: float, t_max: float) -> float:
    """The cutoff t = 2 kappa r of ``momentum_radial_numeric``: a point of
    [4n + 4, t_max] where its tail bound B(t) is at most ``floor``, or t_max
    when B(t_max) is not.

    B holds because |j_l| <= 1; because every zero of L = L_m^{2l+1}
    (m = n-l-1) lies below 4m + 4l - 1 = 4n - 5 (Gershgorin's theorem on its
    Jacobi matrix), so |L(t)| <= t^m/m! from there on; and because
    Gamma(a, x) <= x^(a-1) e^-x / (1 - (a-1)/x) for x > a - 1.
    B(t) <= floor exactly when t >= h(t) = 2 log(B(t)/floor) + t.  h increases
    for t > 2n + 4, so t <- max(4n + 4, h(t)) started at t_max descends
    through points that satisfy the bound towards the smallest one.
    """
    n, l = state.n, state.l
    if not floor > 0:
        return t_max
    log_const = math.log(2.0 * math.pi / floor) - 1.5 * math.log(kappa) - 0.5 * (
        math.log(n) + math.lgamma(n + l + 1) + math.lgamma(n - l)
    )

    def h(t: float) -> float:
        return 2.0 * ((n + 2) * math.log(t) - math.log(t - 2 * n - 2) + log_const)

    if h(t_max) > t_max:
        return t_max
    t, t_min = t_max, 4.0 * n + 4.0
    while True:
        t_next = max(t_min, h(t))
        if t - t_next < 1.0:
            return t_next
        t = t_next


_ORACLE_REL_TOL = 1e-10


def momentum_radial_numeric(state: QuantumState, kappa: float, k: float) -> float:
    """P_nl(k) by direct radial Bessel transform of the position wavefunction.

    Evaluates 4 pi * integral_0^inf j_l(k r) R_nl(r) r^2 dr on [0, R_max],
    with j_l from ``specfun._spherical_jn``, by ``specfun._adaptive_panels``
    from panels no wider than half a Bessel oscillation or one decay length.
    The engine doubles them until two passes agree within ``_ORACLE_REL_TOL``
    of the integral or 1e-14 of M below, and raises ``ConvergenceError`` at a
    non-finite pass or when 10 doublings never agree.  The amplitude has
    genuine zeros in k, where only the second, absolute test can hold.

    R_max is sized to the wavefunction's support.  A first panel pass up to
    t = 2 kappa r = 4n + 4, past every node of R_nl, measures the magnitude
    M = 4 pi integral |j_l(k r) R_nl(r)| r^2 dr there.  R_max = t/(2 kappa) is
    then a radius where the tail bound

        integral_R^inf 4 pi |j_l(k r) R_nl(r)| r^2 dr
            <= 2 pi t^(n+2) e^(-t/2) / (kappa^(3/2) sqrt(n (n+l)! (n-l-1)!) (t-2n-2)),

    valid for t >= 4n + 4, is at most 1e-15 M, and never more than the
    fixed n (40 + 10 l)/kappa.  When M is not finite and positive (the
    wavefunction underflowed or turned non-finite), ArithmeticError is
    raised at once instead.
    """
    if not 0 < k < math.inf:  # also rejects NaN
        raise ValueError(f"momentum_radial_numeric requires a finite k > 0, got k={k!r}")
    if not 0 < kappa < math.inf:
        raise ValueError(f"momentum_radial_numeric requires a finite kappa > 0, got kappa={kappa!r}")
    n, l = state.n, state.l

    def integrand(r: np.ndarray) -> np.ndarray:
        return _spherical_jn(l, k * r) * position_radial(state, kappa, r) * r * r

    def panel_count(t_cut: float) -> int:
        # Panels no wider than half a Bessel oscillation or one decay length.
        r_max = t_cut / (2.0 * kappa)
        return max(16, int(math.ceil(r_max / min(math.pi / k, 1.0 / kappa, r_max / 8.0))))

    t_cut = 4.0 * n + 4.0
    r, w = gauss_legendre_panels(0.0, t_cut / (2.0 * kappa), panel_count(t_cut))
    magnitude = 4.0 * math.pi * float(np.dot(w, np.abs(integrand(r))))
    if not 0 < magnitude < math.inf:  # also rejects NaN
        # No tail bound can be sized against it; refining would only grow the
        # grid towards the fixed cutoff.
        raise ArithmeticError(
            f"Bessel-transform oracle for {state} at k={k}: the wavefunction's "
            f"magnitude {magnitude!r} is not finite and positive"
        )
    t_cut = _tail_cutoff(state, kappa, 1e-15 * magnitude, 2.0 * n * (40.0 + 10.0 * l))
    # The engine integrates without the 4 pi, so its floor, 1e-14 M, drops it too.
    floor = 1e-14 * magnitude / (4.0 * math.pi)
    value, _ = _adaptive_panels(integrand, 0.0, t_cut / (2.0 * kappa), _ORACLE_REL_TOL, panel_count(t_cut), floor)
    return 4.0 * math.pi * value


def momentum_norm_exact(state: QuantumState) -> Fraction:
    """The momentum-space normalization integral, assembled exactly.

    After switching to x = (k^2-kappa^2)/(k^2+kappa^2) and dropping the odd
    part, the norm reduces to an ultraspherical orthogonality integral whose
    closed form is rational times pi; every factor is tracked exactly and the
    result must be the rational 1 for all states.
    """
    n, l = state.n, state.l
    m = n - l - 1
    lam = l + 1
    # integral (1-x^2)^(lam-1/2) [C_m^lam]^2 dx = 2^(1-2 lam) pi Gamma(m+2 lam)
    #                                             / ((lam+m) m! Gamma(lam)^2)
    ortho = Fraction(
        math.factorial(m + 2 * lam - 1),
        math.factorial(lam - 1) ** 2 * (lam + m) * math.factorial(m) * 2 ** (2 * lam - 1),
    )
    # The amplitude's square carries 2N/pi; against ortho*pi the pi cancels
    # structurally.
    return 2 * Fraction(*_norm_ratio(state)) * ortho


def generating_closed(l: int, kappa: float, k: float, z: float) -> float:
    """Closed form of the momentum-space generating function over n at fixed l.

    16 pi kappa (4 k kappa)^l (1 - z^2) (l+1)! /
        (kappa^2 (1+z)^2 + k^2 (1-z)^2)^(l+2),  |z| < 1.

    The overall constant is pinned by the n = l+1 term of the series it
    generates; a halved-prefactor variant of this formula that circulates in
    derivations reproduces exactly half the series limit and fails the
    partial-sum convergence check.  ValueError unless kappa is finite and
    > 0, k finite and >= 0, and z finite with |z| < 1.
    """
    if not abs(z) < 1:  # also rejects NaN
        raise ValueError(f"generating variable must satisfy |z| < 1, got {z}")
    _require_domain(kappa, "k", k)
    denom = kappa**2 * (1 + z) ** 2 + k**2 * (1 - z) ** 2
    return (
        16.0
        * math.pi
        * kappa
        * (4.0 * k * kappa) ** l
        * (1.0 - z * z)
        * math.factorial(l + 1)
        / denom ** (l + 2)
    )


def generating_partial(l: int, kappa: float, k: float, z: float, terms: int) -> float:
    """Partial sum of the generating series using momentum_radial values.

    Sums sqrt(n (n+l)! / ((n-l-1)! kappa^3)) = n 2^l l! / sqrt(N kappa^3)
    times P_nl(k) z^(n-l-1) over n = l+1 .. l+terms.  Converges
    geometrically to generating_closed for |z| < 1.
    """
    if not abs(z) < 1:  # also rejects NaN
        raise ValueError(f"generating variable must satisfy |z| < 1, got {z}")
    if terms < 1:
        raise ValueError("need at least one term")
    total = 0.0
    for nu in range(terms):
        state = QuantumState(nu + l + 1, l)
        coeff = state.n * 2.0**l * math.factorial(l) / (_sqrt_norm(state) * math.sqrt(kappa**3))
        total += coeff * momentum_radial(state, kappa, k) * z**nu
    return total
