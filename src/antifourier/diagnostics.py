"""Quantitative comparison of the classical and half-integer series.

Measures the three observable claims: endpoint agreement with f, Gibbs
overshoot near the interval ends, and the decay rate of the coefficient
magnitudes (a log-log least-squares slope).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Optional, Union

import numpy as np

from .antiperiodic import AntiperiodicCoefficients, antiperiodic_partial_sum
from .catalog import FunctionSpec, evaluate
from .classical import ClassicalCoefficients, classical_partial_sum
from .errors import InsufficientData

SeriesCoefficients = Union[ClassicalCoefficients, AntiperiodicCoefficients]

# Smaller magnitudes are treated as numerically zero and excluded from fits.
_DECAY_FLOOR = 1e-13

DEFAULT_ORDERS = (10, 25, 50, 100, 200, 400)

# Fewest overshoot-window points that resolve the Gibbs spike.
MIN_SUBGRID_POINTS = 2000


@dataclass(frozen=True)
class ErrorProfile:
    """Absolute errors |partial sum - f| on a uniform grid over [-L, L]."""

    endpoint_error_left: float
    endpoint_error_right: float
    sup_error: float
    grid_size: int


@dataclass(frozen=True)
class DiagnosticsReport:
    """One diagnostics row for a (series kind, truncation order) pair."""

    series_kind: str
    order: int
    endpoint_error_left: float
    endpoint_error_right: float
    sup_error: float
    overshoot: float
    decay_exponent_classical: float
    decay_exponent_antiperiodic: float
    grid_size: int
    window_fraction: float


# Fixed column order of CSV diagnostic reports (documented in the CLI help).
REPORT_COLUMNS = tuple(field.name for field in fields(DiagnosticsReport))


def report_rows(reports):
    """Value rows of diagnostics reports in REPORT_COLUMNS order."""
    return [astuple(report) for report in reports]


def partial_sum(series: SeriesCoefficients, x, M: Optional[int] = None):
    """Evaluate either kind of coefficient object at ``x``."""
    if isinstance(series, ClassicalCoefficients):
        return classical_partial_sum(series, x, M)
    if isinstance(series, AntiperiodicCoefficients):
        return antiperiodic_partial_sum(series, x, M)
    raise TypeError(f"unsupported series type {type(series).__name__}")


def error_profile(
    f: FunctionSpec, series: SeriesCoefficients, M: int, grid_size: int
) -> ErrorProfile:
    """Sup and endpoint errors of the order-M partial sum on a uniform grid.

    ``grid_size`` must be odd and >= 3 so that 0 and +-L are grid points.
    """
    if grid_size < 3 or grid_size % 2 == 0:
        raise ValueError("grid_size must be odd and at least 3")
    xs = np.linspace(-f.L, f.L, grid_size)
    err = np.abs(partial_sum(series, xs, M) - evaluate(f, xs))
    return ErrorProfile(float(err[0]), float(err[-1]), float(err.max()), grid_size)


def gibbs_overshoot(
    f: FunctionSpec,
    series: SeriesCoefficients,
    M: int,
    window_fraction: float,
    subgrid_points: int = 4001,
) -> float:
    """Peak excursion of the partial sum beyond f's range near the endpoints.

    On the right window [L (1 - w), L] this is max(S) - max(f); on the left
    window it is min(f) - min(S), the mirror excursion below the function.
    The larger of the two is returned.  It may be nonpositive when the sum
    stays inside the function's range (no overshoot).
    """
    if not 0.0 < window_fraction < 0.5:
        raise ValueError("window_fraction must lie strictly between 0 and 0.5")
    if subgrid_points < MIN_SUBGRID_POINTS:
        raise ValueError(
            f"subgrid_points must be at least {MIN_SUBGRID_POINTS} to resolve the spike"
        )
    L = f.L
    right = np.linspace(L * (1.0 - window_fraction), L, subgrid_points)
    left = np.linspace(-L, -L * (1.0 - window_fraction), subgrid_points)
    right_excess = float(
        partial_sum(series, right, M).max() - evaluate(f, right).max()
    )
    left_excess = float(
        evaluate(f, left).min() - partial_sum(series, left, M).min()
    )
    return max(right_excess, left_excess)


def decay_exponent(series: SeriesCoefficients, order: Optional[int] = None) -> float:
    """Fitted decay rate p of the coefficients, assuming magnitude ~ n^(-p).

    Least-squares slope of log|c_n| against log(n + 1) over harmonics
    n in [max(2, N // 4), N], excluding magnitudes below 1e-13 (numerical
    zeros).  Raises InsufficientData with fewer than 4 usable entries.
    """
    N = series.N if order is None else min(order, series.N)
    _, mults, cos_w, sin_w = series.terms()
    n = np.floor(mults)  # harmonic n of multiplier n or n + 1/2
    mags = np.maximum(np.abs(cos_w), np.abs(sin_w))
    lo = max(2, N // 4)
    window = (n >= lo) & (n <= N)
    n, mags = n[window], mags[window]
    usable = mags > _DECAY_FLOOR
    n, mags = n[usable], mags[usable]
    if n.size < 4:
        raise InsufficientData(
            f"decay fit needs at least 4 coefficients above {_DECAY_FLOOR:g}, got {n.size}"
        )
    slope = np.polyfit(np.log(n + 1.0), np.log(mags), 1)[0]
    return float(-slope)


def _decay_or_nan(series, order):
    try:
        return decay_exponent(series, order=order)
    except InsufficientData:
        return math.nan


def compare_orders(
    f: FunctionSpec,
    classical: ClassicalCoefficients,
    antiperiodic: AntiperiodicCoefficients,
    orders=DEFAULT_ORDERS,
    grid_size: int = 2001,
    window_fraction: float = 0.1,
    subgrid_points: int = 4001,
):
    """Diagnostics ladder: one report row per (series kind, order)."""
    rows = []
    for M in orders:
        dec_c = _decay_or_nan(classical, M)
        dec_a = _decay_or_nan(antiperiodic, M)
        for kind, series in (("classical", classical), ("antiperiodic", antiperiodic)):
            profile = error_profile(f, series, M, grid_size)
            over = gibbs_overshoot(f, series, M, window_fraction, subgrid_points)
            rows.append(
                DiagnosticsReport(
                    series_kind=kind,
                    order=M,
                    endpoint_error_left=profile.endpoint_error_left,
                    endpoint_error_right=profile.endpoint_error_right,
                    sup_error=profile.sup_error,
                    overshoot=over,
                    decay_exponent_classical=dec_c,
                    decay_exponent_antiperiodic=dec_a,
                    grid_size=grid_size,
                    window_fraction=window_fraction,
                )
            )
    return rows
