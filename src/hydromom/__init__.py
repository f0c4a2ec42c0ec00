"""Momentum-space expectation values for hydrogenic bound states.

Exact rational arithmetic (pi-graded) for the inverse-momentum expectation
values of every bound state, cross-validated by quadrature oracles, sum
rules, and asymptotic estimates.
"""

from .exact import GradeError, PiGradedRational, format_exact, harmonic_odd, parse_exact
from .wavefun import PhysicalScales, QuantumState, momentum_radial, position_radial
from .quadrature import (
    ConvergenceError,
    CrossCheckError,
    DivergentMomentError,
    ExpectationResult,
    double_integral_rep,
    expectation_f,
    inv_p_numeric,
    power_moment,
)
from .invp import (
    inv_p,
    inv_p_circular,
    inv_p_exact,
    inv_p_family,
    inv_p_near_circular,
    inv_p_series_compact,
    inv_p_series_connection,
    inv_p_swave,
)
from .sumrules import sum_rule_alternating, sum_rule_even
from .asympt import lambda_limit, near_circular_asymptotic, small_ell_asymptotic, swave_asymptotic
from .physics import effective_potential_max, energy_shift, inv_p_physical

__version__ = "0.1.0"

__all__ = [
    "GradeError",
    "PiGradedRational",
    "format_exact",
    "harmonic_odd",
    "parse_exact",
    "PhysicalScales",
    "QuantumState",
    "momentum_radial",
    "position_radial",
    "ConvergenceError",
    "CrossCheckError",
    "DivergentMomentError",
    "ExpectationResult",
    "double_integral_rep",
    "expectation_f",
    "inv_p_numeric",
    "power_moment",
    "inv_p",
    "inv_p_circular",
    "inv_p_exact",
    "inv_p_family",
    "inv_p_near_circular",
    "inv_p_series_compact",
    "inv_p_series_connection",
    "inv_p_swave",
    "sum_rule_alternating",
    "sum_rule_even",
    "lambda_limit",
    "near_circular_asymptotic",
    "small_ell_asymptotic",
    "swave_asymptotic",
    "effective_potential_max",
    "energy_shift",
    "inv_p_physical",
    "__version__",
]
