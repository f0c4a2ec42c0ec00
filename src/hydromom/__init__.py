"""Momentum-space expectation values for hydrogenic bound states.

Exact rational arithmetic (pi-graded) for the inverse-momentum expectation
values of every bound state, cross-validated by quadrature oracles, sum
rules, and asymptotic estimates.

The exact layer (``exact``, ``invp``, ``asympt``, ``physics``, and the exact
sum rules of ``sumrules``) needs only the standard library; the float layer
(``specfun``, ``wavefun``, ``quadrature``, and the numeric routes of
``sumrules``) needs numpy.  Each public name below is imported from its home
module on first use (PEP 562), so ``import hydromom`` loads no numpy, and an
exact-only caller never does.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "exact": (
        "GradeError",
        "PiGradedRational",
        "QuantumState",
        "ExpectationResult",
        "format_exact",
        "harmonic_odd",
        "parse_exact",
    ),
    "specfun": ("ConvergenceError",),
    "wavefun": ("momentum_radial", "position_radial"),
    "quadrature": (
        "CrossCheckError",
        "DivergentMomentError",
        "double_integral_rep",
        "expectation_f",
        "inv_p_numeric",
        "power_moment",
    ),
    "invp": (
        "inv_p",
        "inv_p_circular",
        "inv_p_exact",
        "inv_p_near_circular",
        "inv_p_series_compact",
        "inv_p_series_connection",
        "inv_p_swave",
    ),
    "sumrules": ("sum_rule_alternating", "sum_rule_even"),
    "asympt": ("lambda_limit", "near_circular_asymptotic", "small_ell_asymptotic", "swave_asymptotic"),
    "physics": ("PhysicalScales", "effective_potential_max", "energy_shift", "inv_p_physical"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
