"""Fourier series on half-integer harmonics.

A small numerical toolkit around the expansion

    AS f(x) = gamma + sum_n (alpha_n cos((2n+1) pi x / 2L)
                             + beta_n sin((2n+1) pi x / 2L)),

with gamma = (f(-L) + f(L)) / 2, which matches f at both interval endpoints
and suppresses the endpoint Gibbs phenomenon even when f(-L) != f(L).  The
package also computes the classical series for comparison, quantifies
overshoot and coefficient decay, and solves the heat equation with
mean-value boundary conditions in the same eigenbasis.
"""

from .antiperiodic import (
    AntiperiodicCoefficients,
    antiperiodic_coefficients,
    antiperiodic_partial_sum,
    coefficients_via_periodic_split,
    half_basis,
    jordan_midpoint,
    shift_gamma,
)
from .catalog import (
    NAMED_FUNCTIONS,
    FunctionSpec,
    Named,
    NamedFunction,
    Polynomial,
    Sampled,
    antiperiodic_defect,
    evaluate,
    load_samples,
    parse_function_spec,
    render_function_spec,
)
from .classical import (
    ClassicalCoefficients,
    classical_coefficients,
    classical_partial_sum,
)
from .diagnostics import (
    DEFAULT_ORDERS,
    REPORT_COLUMNS,
    DiagnosticsReport,
    ErrorProfile,
    compare_orders,
    decay_exponent,
    error_profile,
    gibbs_overshoot,
    partial_sum,
)
from .errors import (
    AntifourierError,
    IncompatibleData,
    InsufficientData,
    InvalidInterval,
    NegativeTime,
    NonConvergence,
    OrderExceedsTruncation,
    OutOfDomain,
    ParseError,
    ValidationError,
)
from .heat import (
    COMPATIBILITY_TOL,
    HeatProblem,
    HeatSolution,
    ResidualReport,
    eigenpair,
    heat_eval,
    heat_eval_dx,
    solve_heat,
    verify_solution,
)
from .quadrature import (
    DEFAULT_TOL,
    QuadratureResult,
    integrate,
    integrate_result,
)

__version__ = "0.1.0"

__all__ = [
    "AntifourierError",
    "AntiperiodicCoefficients",
    "COMPATIBILITY_TOL",
    "ClassicalCoefficients",
    "DEFAULT_ORDERS",
    "DEFAULT_TOL",
    "DiagnosticsReport",
    "ErrorProfile",
    "FunctionSpec",
    "HeatProblem",
    "HeatSolution",
    "IncompatibleData",
    "InsufficientData",
    "InvalidInterval",
    "NAMED_FUNCTIONS",
    "Named",
    "NamedFunction",
    "NegativeTime",
    "NonConvergence",
    "OrderExceedsTruncation",
    "OutOfDomain",
    "ParseError",
    "Polynomial",
    "QuadratureResult",
    "REPORT_COLUMNS",
    "ResidualReport",
    "Sampled",
    "ValidationError",
    "antiperiodic_coefficients",
    "antiperiodic_defect",
    "antiperiodic_partial_sum",
    "classical_coefficients",
    "classical_partial_sum",
    "coefficients_via_periodic_split",
    "compare_orders",
    "decay_exponent",
    "eigenpair",
    "error_profile",
    "evaluate",
    "gibbs_overshoot",
    "half_basis",
    "heat_eval",
    "heat_eval_dx",
    "integrate",
    "integrate_result",
    "jordan_midpoint",
    "load_samples",
    "parse_function_spec",
    "partial_sum",
    "render_function_spec",
    "shift_gamma",
    "solve_heat",
    "verify_solution",
]
