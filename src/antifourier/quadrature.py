"""Quadrature with absolute error control.

One composite Gauss-Legendre rule (:func:`_gauss_legendre`) integrates m
integrands (``rows=m``), one *row* each, level by level on p equal panels.
With ``rows`` the integrand is a *panel rule* ``f(centres, half, idx)``
that returns, for the rows ``idx``, each panel's 32-point sum,
|32-point - 16-point sum| and 32-point sum of |f| over the abscissae
centre + half * t of :func:`_rules`: shape ``(3, len(idx), len(centres))``.
One integrand (``rows`` not given) is called as ``f(x)``, returns shape
``(len(x),)``, and goes through :func:`_panel_sums`, the panel rule of a
plain function.  Integrands must accept numpy arrays.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInterval, NonConvergence

_EPS = np.finfo(float).eps

# Default absolute error target of every integral.
DEFAULT_TOL = 1e-10

# Most abscissae of one row at one level of the Gauss-Legendre rule.  A row
# that would need more has an unattainable tolerance; that is reported as
# NonConvergence instead of letting the work grow without bound.
_MAX_ACTIVE_INTERVALS = 1 << 21

# Most row x panel sums one panel-rule call returns, past one row, and most
# abscissae one call of a plain integrand receives.
_MAX_CELLS = 1 << 14

# A row whose |32-point - 16-point| differences sum to within this many
# rounding floors (eps times its 32-point sum of |f|) sits at rounding level
# and cannot be improved by refining further.
_NOISE_FACTOR = 16.0

# Abscissae of one Gauss-Legendre panel: the 16-point rule's, then the 32-point rule's.
_PANEL_NODES = 48


def _integer(value, name):
    """``value`` as an int; ValueError naming ``name`` if it is not an integer or is a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_tol(abs_tol):
    """ValueError unless ``abs_tol`` is a positive finite real number and not a bool."""
    real = isinstance(abs_tol, numbers.Real) and not isinstance(abs_tol, bool)
    if not (real and np.isfinite(abs_tol) and abs_tol > 0.0):
        raise ValueError(f"abs_tol must be positive and finite, got {abs_tol!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, evaluation count and refinement depth (the
    number of panel doublings): scalars (float, float, int, int), or with
    ``rows=m`` arrays of length m of those types, one entry per row."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int | np.ndarray
    refinements: int | np.ndarray


def integrate(
    f: Callable, a: float, b: float, abs_tol: float = DEFAULT_TOL, rows: int | None = None,
    panels: int = 64,
):
    """Integrate ``f`` over [a, b] to within ``abs_tol``.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called as ``f(x)`` with a numpy array of
        abscissae, returning real values of shape ``(len(x),)``.  With
        ``rows``, a panel rule (see the module docstring): called as
        ``f(centres, half, idx)``, returning real sums of shape
        ``(3, len(idx), len(centres))``.  The ends a and b are not
        evaluated.
    a, b : float
        Integration bounds, a < b.
    abs_tol : float
        Absolute error target for the whole integral; positive and finite.
    rows : int, optional
        Number of integrands computed together, each to ``abs_tol``; an
        integer of at least 1.  Each row gets the bits of its one-row run,
        as long as the panel rule's sums for a row do not depend on the
        other rows of a call.
    panels : int
        Number of equal panels the refinement starts from; an even integer
        of at least 2.

    Returns
    -------
    float, or array of length ``rows``
        Approximation with estimated absolute error <= abs_tol.

    Raises
    ------
    InvalidInterval
        If a >= b.
    ValueError
        If an argument is out of range, or the integrand or panel rule
        returns complex values or values of the wrong shape.
    NonConvergence
        If the refinement budget is exhausted before the tolerance is met,
        or the tolerance is below what double precision can deliver.  With
        ``rows`` it names the lowest failing row as ``index``.
    """
    return integrate_result(f, a, b, abs_tol, rows, panels).value


def integrate_result(
    f: Callable, a: float, b: float, abs_tol: float = DEFAULT_TOL, rows: int | None = None,
    panels: int = 64,
) -> QuadratureResult:
    """Like :func:`integrate` but returns value, error estimate and counts."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidInterval(f"bounds must be finite, got a={a!r}, b={b!r}")
    if not a < b:
        raise InvalidInterval(f"need a < b, got a={a!r}, b={b!r}")
    check_tol(abs_tol)
    if rows is not None and _integer(rows, "rows") < 1:
        raise ValueError("rows must be at least 1")
    if _integer(panels, "panels") < 2 or panels % 2:
        raise ValueError("panels must be even and at least 2")
    rule = f if rows is not None else (
        lambda centres, half, idx: _panel_sums(f, centres, half)[:, None])
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows fails
        result = _gauss_legendre(rule, a, b, abs_tol, panels, rows)
    if rows is not None:
        return result
    return QuadratureResult(float(result.value[0]), float(result.error_estimate[0]),
                            int(result.evaluations[0]), int(result.refinements[0]))


@functools.cache
def _rules():
    """The 16 and 32 abscissae of a panel on [-1, 1], joined, and the two weight vectors."""
    t16, w16 = np.polynomial.legendre.leggauss(16)
    t32, w32 = np.polynomial.legendre.leggauss(32)
    return np.concatenate((t16, t32)), w16, w32


def _gauss_legendre(rule, a, b, abs_tol, panels, rows):
    """Rows 0..rows-1 of the panel rule ``rule`` by composite Gauss-Legendre
    from ``panels`` panels; with ``rows`` None, the one row 0, and a failure
    names no row.

    A row's estimate is the sum over the panels of |32-point - 16-point sum|,
    but never below a rounding floor of eps times the 32-point sum of |f|.
    A row that meets ``abs_tol`` keeps its 32-point value; the others go on
    with the panels doubled, until another level would pass
    ``_MAX_ACTIVE_INTERVALS`` abscissae a row.  A row fails at once when its
    sums overflow, or when its differences sum to within ``_NOISE_FACTOR``
    floors: ``abs_tol`` is below what double precision can deliver.  A row
    that fails stops the rows above it, and the lowest failed row is raised,
    so a run fails where a loop over its rows would.  A row with a jump
    inside a panel runs to the budget and fails.  A row's value, estimate and
    counts are bit for bit those of its one-row run on the same panels
    (:func:`_level`) whenever the rule gives it the same panel sums.
    """
    m = 1 if rows is None else rows
    value, error = np.zeros(m), np.zeros(m)
    levels, live, failure = np.zeros(m, dtype=int), np.arange(m), None
    for level in itertools.count():
        p = panels << level
        total, diff, size = _level(rule, a, b, p, live) * (b - a)
        levels[live] = level
        floor = _EPS * size
        estimate = np.maximum(diff, floor)  # not finite where a sum overflows
        done = estimate <= abs_tol
        value[live[done]], error[live[done]] = total[done], estimate[done]
        stuck = diff <= _NOISE_FACTOR * floor
        budget = 2 * _PANEL_NODES * p > _MAX_ACTIVE_INTERVALS
        failed = ~done & (~np.isfinite(estimate) | stuck | budget)
        keep = ~done
        if failed.any():
            i = int(np.argmax(failed))
            message, achieved = _gauss_failure(abs_tol, p, stuck[i], estimate[i])
            failure = NonConvergence(message, achieved=achieved, target=abs_tol,
                                     index=None if rows is None else int(live[i]))
            keep[i:] = False  # the failed row and every row above it stop here
        live = live[keep]
        if not live.size:
            if failure is not None:
                raise failure
            points = _PANEL_NODES * panels * (2 ** (levels + 1) - 1)
            return QuadratureResult(value, error, points, levels)


def _gauss_failure(abs_tol, p, stuck, worst):
    """(message, achieved) for a row that failed on ``p`` panels."""
    if not np.isfinite(worst):
        return f"the integrand's values overflow the Gauss-Legendre rule on {p} panels", None
    if stuck:
        return (f"abs_tol={abs_tol:g} is below the error attainable in double precision "
                f"for this integrand (estimate stuck at {worst:g})"), float(worst)
    return (f"Gauss-Legendre budget exhausted at {p} panels with error estimate "
            f"{worst:g} > abs_tol={abs_tol:g}"), float(worst)


def _level(rule, a, b, p, rows):
    """Sums over p equal panels of [a, b], divided by 2p, for each row of
    ``rows``: of each panel's 32-point sum, of |32-point - 16-point sum| and
    of the 32-point sum of |f|; shape (3, len(rows)).  ``rule`` is asked for
    the panel sums of at most ``_MAX_CELLS`` rows x panels at a time, and
    each row's panels are added by numpy's pairwise sum, so a row keeps the
    bits of its panel sums whatever other rows are in ``rows``.  A power of
    two scales the panel sums first: it changes no bit and keeps the sum
    finite where the integral is."""
    centres, half = a + (b - a) * (np.arange(p) + 0.5) / p, 0.5 * (b - a) / p
    scale = 0.5 ** (2 * p).bit_length()
    block = max(1, _MAX_CELLS // p)  # rows of one call
    out = np.empty((3, rows.size))
    for start in range(0, rows.size, block):
        idx = rows[start : start + block]
        sums = np.asarray(rule(centres, half, idx))
        if sums.shape != (3, idx.size, p) or np.iscomplexobj(sums):
            raise ValueError(
                "the integrand must return real values of shape (3, len(idx), len(centres)) = "
                f"{(3, idx.size, p)}, got {sums.dtype} values of shape {sums.shape}")
        out[:, start : start + block] = (sums * scale).sum(axis=-1)
    return out / (2 * p * scale)


def _panel_sums(f, centres, half):
    """The panel rule of one plain integrand ``f(x)``: on each panel, the
    32-point sum, |32-point - 16-point sum| and the 32-point sum of |f|,
    shape (3, len(centres)), each panel's nodes summed by numpy's pairwise
    sum.  ``f`` receives at most ``_MAX_CELLS`` abscissae a call."""
    nodes, w16, w32 = _rules()
    step = max(1, _MAX_CELLS // _PANEL_NODES)  # panels of one call
    sums = np.empty((3, centres.size))
    for k in range(0, centres.size, step):
        x = (centres[k : k + step, None] + half * nodes).reshape(-1)
        values = np.asarray(f(x))
        if values.shape != x.shape or np.iscomplexobj(values):
            raise ValueError("the integrand must return real values of shape (len(x),) = "
                             f"{x.shape}, got {values.dtype} values of shape {values.shape}")
        values = values.astype(float, copy=False).reshape(-1, _PANEL_NODES)
        g16 = (values[:, :16] * w16).sum(axis=-1)
        g32 = (values[:, 16:] * w32).sum(axis=-1)
        sums[:, k : k + step] = g32, np.abs(g32 - g16), (np.abs(values[:, 16:]) * w32).sum(axis=-1)
    return sums
