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

from ._kernels import check_order, trig_sum
from .antiperiodic import AntiperiodicCoefficients, antiperiodic_partial_sum
from .catalog import FunctionSpec, evaluate
from .classical import ClassicalCoefficients, classical_partial_sum
from .errors import InsufficientData
from .quadrature import _integer

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


def _grid(L, grid_size):
    """Uniform grid over [-L, L]; ``grid_size`` odd and >= 3 puts 0 and +-L on it."""
    grid_size = _integer(grid_size, "grid_size")
    if grid_size < 3 or grid_size % 2 == 0:
        raise ValueError("grid_size must be odd and at least 3")
    return np.linspace(-L, L, grid_size)


def _windows(L, window_fraction, subgrid_points):
    """The right overshoot window [L (1 - w), L] and its exact mirror on the
    left, -right[::-1]: for L above 1e-300, within 2 ulps of linspace(-L,
    -L (1 - w), n)."""
    if not 0.0 < window_fraction < 0.5:
        raise ValueError("window_fraction must lie strictly between 0 and 0.5")
    subgrid_points = _integer(subgrid_points, "subgrid_points")
    if subgrid_points < MIN_SUBGRID_POINTS:
        raise ValueError(
            f"subgrid_points must be at least {MIN_SUBGRID_POINTS} to resolve the spike"
        )
    right = np.linspace(L * (1.0 - window_fraction), L, subgrid_points)
    return right, -right[::-1]


def _mirrored(terms):
    """The series of ``terms``, then their mirrors: cospi is even and sinpi
    odd, so the sum at -x is the sum at x with the sine weights negated."""
    return [*terms, *((shift, mults, cos, -sin) for shift, mults, cos, sin in terms)]


def _same_half_width(f: FunctionSpec, *series) -> None:
    """TypeError for a series of neither kind, ValueError for one not on f's L."""
    for s in series:
        if not isinstance(s, (ClassicalCoefficients, AntiperiodicCoefficients)):
            raise TypeError(f"unsupported series type {type(s).__name__}")
        if s.L != f.L:
            raise ValueError(f"series half-width L={float(s.L)!r} differs from "
                             f"the function's L={float(f.L)!r}")


def _profile(sums, values) -> ErrorProfile:
    err = np.abs(sums - values)
    return ErrorProfile(float(err[0]), float(err[-1]), float(err.max()), err.size)


def _overshoot(sums_right, values_right, sums_left, values_left) -> float:
    right_excess = float(sums_right.max() - values_right.max())
    left_excess = float(values_left.min() - sums_left.min())
    return max(right_excess, left_excess)


def error_profile(
    f: FunctionSpec, series: SeriesCoefficients, M: int, grid_size: int
) -> ErrorProfile:
    """Sup and endpoint errors of the order-M partial sum on a uniform grid.

    ``grid_size`` must be odd and >= 3 so that 0 and +-L are grid points.
    """
    xs = _grid(f.L, grid_size)
    _same_half_width(f, series)
    return _profile(partial_sum(series, xs, M), evaluate(f, xs))


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
    stays inside the function's range (no overshoot).  The left window is
    the exact mirror of the right one (within 2 ulps of a linspace over it),
    and its sums come from the right window's basis.
    """
    right, left = _windows(f.L, window_fraction, subgrid_points)
    _same_half_width(f, series)
    at_right, at_left = trig_sum(f.L, _mirrored([series.terms(M)]), right)
    return _overshoot(at_right, evaluate(f, right), at_left[::-1], evaluate(f, left))


def _ladder(series, orders, grid, window):
    """Partial sums of each of ``series`` (of one L) on ``grid``, on
    ``window`` and on its mirror -window[::-1]: one list per series, of a
    triple for each of ``orders``, each order checked as ``partial_sum``
    checks it, against each series in turn.

    ``grid`` is one :func:`trig_sum` call on the modes of every series up to
    the top order, with one count per distinct order, so the basis is taken
    once for every series and order.  The window is one more such call, over
    each series and its mirror (:func:`_mirrored`).
    """
    for s in series:
        orders = [check_order(M, s.N) for M in orders]
    distinct = {M: i for i, M in enumerate(sorted(set(orders)))}
    terms = [s.terms(max(orders, default=0)) for s in series]
    # the modes of each distinct order: n for mode n and for mode n + 1/2
    counts = [np.searchsorted(np.floor(t[1]), list(distinct), side="right") for t in terms]
    at_grid = trig_sum(series[0].L, terms, grid, counts)
    at_window = trig_sum(series[0].L, _mirrored(terms), window, counts * 2)
    n = len(terms)
    sums = zip(at_grid, at_window[:n], (left[..., ::-1] for left in at_window[n:]))
    return [[tuple(rows[distinct[M]] for rows in triple) for M in orders] for triple in sums]


def decay_exponent(series: SeriesCoefficients, order: Optional[int] = None) -> float:
    """Fitted decay rate p of the coefficients, assuming magnitude ~ n^(-p).

    Least-squares slope of log|c_n| against log(n + 1) over harmonics
    n in [max(2, N // 4), N], N = ``order`` (None: the stored N), excluding
    magnitudes below 1e-13 (numerical zeros).  ``order`` is checked by the
    partial-sum rule and named "order" in its errors.  Raises
    InsufficientData with fewer than 4 usable entries.
    """
    N = check_order(order, series.N, "order", "order")
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
    """Diagnostics ladder: one report row per (series kind, order).

    The grid arguments are checked first, then that both series have f's L
    (ValueError naming both), then each order as ``partial_sum`` checks it.
    Rows keep the given orders, duplicates included.  f is evaluated once on
    each grid, and the partial sums of both series come from one
    :func:`_ladder`: one evaluator call on the grid and one on the right
    window.  The left window is the exact mirror of the right one (within 2
    ulps of a linspace) and takes no trig values of its own.
    """
    grid = _grid(f.L, grid_size)
    right, left = _windows(f.L, window_fraction, subgrid_points)
    _same_half_width(f, classical, antiperiodic)
    orders = list(orders)
    ladders = _ladder((classical, antiperiodic), orders, grid, right)
    f_grid, f_right, f_left = (evaluate(f, x) for x in (grid, right, left))
    rows = []
    for i, M in enumerate(orders):
        decays = _decay_or_nan(classical, M), _decay_or_nan(antiperiodic, M)
        for kind, ladder in zip(("classical", "antiperiodic"), ladders):
            at_grid, at_right, at_left = ladder[i]
            profile = _profile(at_grid, f_grid)
            rows.append(DiagnosticsReport(  # in REPORT_COLUMNS order
                kind, M, profile.endpoint_error_left, profile.endpoint_error_right,
                profile.sup_error, _overshoot(at_right, f_right, at_left, f_left),
                *decays, grid_size, window_fraction))
    return rows
