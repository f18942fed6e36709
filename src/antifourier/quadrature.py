"""Adaptive Simpson quadrature with absolute error control.

The rule starts from equal panels and subdivides every interval whose
Richardson error estimate is too large, all active intervals at once.  It
reuses every integrand evaluation (panel boundaries and midpoints are never
recomputed), so evaluation counts are deterministic for fixed inputs.
Integrands must accept numpy arrays.

One run can integrate m integrands over the same interval, one *row* each
(``rows=m``): the integrand is then called as ``f(x, idx)`` with an integer
array of row indices and returns those rows' values at ``x``, shape
``(len(idx), len(x))``.  Each row keeps its own intervals, accept test,
running sum and failure checks, and sums its accepted intervals in the order
a run of that row alone would, so its value, error estimate and counts are
bit for bit those of that one-row run.  The rows share one dyadic mesh: each
level evaluates, for the rows still refining, the union of the intervals
they keep; finished rows leave the arrays.  A scalar integrand is the one-row
case, so there is one engine.

Memory is bounded by ``_MAX_CELLS``, the most row x abscissa values one
integrand call of a several-row run receives.  A level that would pass it
defers the upper half of its rows, as often as needed.  Deferred rows keep
their intervals, values and sums, and go on where they stopped once the rows
below them are done; each deferred part holds about half the cap.  One row
is never deferred; ``_MAX_ACTIVE_INTERVALS`` bounds it.  A row whose
Simpson sums overflow fails at once, with no warning.  A row that fails
stops the rows above it, deferred ones included, and the lowest failed row
is raised, so a run fails where a loop over its rows would.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInterval, NonConvergence

_EPS = np.finfo(float).eps

# Default absolute error target of every integral.
DEFAULT_TOL = 1e-10

# Deepest subdivision level of a row; reaching it unresolved is a failure.
_MAX_SUBDIVISIONS = 30

# Cap on simultaneously active adaptive intervals of one row.  Reaching it
# means the tolerance is unattainable; that is reported as NonConvergence
# instead of letting the subdivision queue grow without bound.
_MAX_ACTIVE_INTERVALS = 1 << 21

# Most row x abscissa values one integrand call of a several-row run receives.
# It keeps the arrays of a level to a few megabytes: a larger cap buys little
# speed for more memory, a smaller one makes more, smaller calls.
_MAX_CELLS = 1 << 14

# An interval whose Richardson decrement sits at rounding level cannot be
# improved by splitting further.
_NOISE_FACTOR = 16.0


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
    """Value, error estimate, evaluation count and refinement depth: scalars
    (float, float, int, int), or with ``rows=m`` arrays of length m of those
    types, one entry per row."""

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
        Vectorized integrand; called with numpy arrays of abscissae, or with
        ``rows`` as ``f(x, idx)`` returning shape ``(len(idx), len(x))``.
    a, b : float
        Integration bounds, a < b.
    abs_tol : float
        Absolute error target for the whole integral; positive and finite.
    rows : int, optional
        Number of integrands computed together, each to ``abs_tol``; an
        integer of at least 1.
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
    scalar = rows is None  # the one-row case
    g = (lambda x, idx: np.asarray(f(x), dtype=float)[None]) if scalar else f
    with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows fails
        result, failure = _adaptive(g, a, b, abs_tol, panels, 1 if scalar else rows)
    if failure is not None:
        row, message, achieved = failure
        raise NonConvergence(
            message, achieved=achieved, target=abs_tol, index=None if scalar else row
        )
    if scalar:
        return QuadratureResult(*(entry[0].item() for entry in result))
    return QuadratureResult(*result)


def _halves(left, right, rows=None, cols=None):
    """Interleave per-interval values of the left and right halves (last axis),
    taking only ``rows`` of a 2-D array and ``cols`` of the intervals."""
    if rows is not None and left.ndim == 2:
        left, right = left.take(rows, axis=0), right.take(rows, axis=0)
    if cols is not None:
        left, right = left.take(cols, axis=-1), right.take(cols, axis=-1)
    out = np.empty(left.shape + (2,))
    out[..., 0], out[..., 1] = left, right
    return out.reshape(left.shape[:-1] + (-1,))


def _simpson_batch(lo, hi, flo, fmid, fhi):
    """(hi - lo) / 6 * (flo + 4 fmid + fhi), in place: a sum or product of two
    doubles does not depend on the order of its operands."""
    out = 4.0 * fmid
    out += flo
    out += fhi
    out *= (hi - lo) / 6.0
    return out


def _fit(active):
    """How many leading rows of ``active`` one level may take: halving the
    count while their 2 new abscissae per union interval pass the cap."""
    count, width = active.shape
    while count > 1 and 2 * count * width > _MAX_CELLS:
        count -= count // 2
        width = np.count_nonzero(active[:count].any(axis=0))
    return count


def _part(rows, grid, cells):
    """The intervals that ``rows`` (a slice) refine: (grid, cells) restricted
    to them, with ``cells[0]`` the active mask."""
    cols = np.flatnonzero(cells[0][rows].any(axis=0))
    return [arr.take(cols) for arr in grid], [arr[rows].take(cols, axis=1) for arr in cells]


def _adaptive(f, a, b, abs_tol, n0, m):
    """Run rows 0..m-1 from ``n0`` panels; return ((values, errors,
    evaluations, depths), failure).

    ``failure`` is None or (row, message, achieved) for the lowest failed row.
    """
    value, error = np.zeros(m), np.zeros(m)
    evals, depths = np.full(m, 2 * n0 + 1), np.zeros(m, dtype=int)
    failure = None
    edges = a + (b - a) * np.arange(n0 + 1) / n0
    edges[-1] = b
    base_mid = 0.5 * (edges[:-1] + edges[1:])
    base_tol = abs_tol * (edges[1:] - edges[:-1]) / (b - a)
    pending = np.arange(m)  # rows not started, as many at once as the first level fits
    start = max(1, _MAX_CELLS // (2 * n0))
    suspended = []  # (rows, depth, grid, cells) of deferred rows, the lowest rows last
    while suspended or pending.size:
        if suspended:  # go on where they stopped
            rows, first, (lo, hi, mid, tol), (active, flo, fmid, fhi, s) = suspended.pop()
        else:
            rows, pending = pending[:start], pending[start:]
            first, lo, hi, mid, tol = 0, edges[:-1], edges[1:], base_mid, base_tol
            fe = np.asarray(f(edges, rows), dtype=float)
            fmid = np.asarray(f(mid, rows), dtype=float)
            flo, fhi = fe[:, :-1], fe[:, 1:]
            active = np.ones(fmid.shape, dtype=bool)  # the intervals each row refines
            s = _simpson_batch(lo, hi, flo, fmid, fhi)
        for depth in range(first, _MAX_SUBDIVISIONS + 1):
            count = _fit(active)
            if count < rows.size:  # the upper rows wait until these are done
                grid, cells = (lo, hi, mid, tol), [active, flo, fmid, fhi, s]
                suspended.append((rows[count:], depth, *_part(slice(count, None), grid, cells)))
                (lo, hi, mid, tol), (active, flo, fmid, fhi, s) = _part(slice(count), grid, cells)
                rows = rows[:count]
            lm = 0.5 * (lo + mid)
            rm = 0.5 * (mid + hi)
            fnew = np.asarray(f(np.concatenate([lm, rm]), rows), dtype=float)
            flm, frm = fnew[:, : lo.size], fnew[:, lo.size :]
            sl = _simpson_batch(lo, mid, flo, flm, fmid)
            sr = _simpson_batch(mid, hi, fmid, frm, fhi)
            s2 = sl + sr
            delta = np.subtract(s2, s, out=s)  # s is not needed again
            accept = np.abs(delta) <= 15.0 * tol
            evals[rows] += 2 * active.sum(axis=1)
            taken, keep = active & accept, active > accept
            kept = keep.sum(axis=1)
            stuck = kept > 0  # at the last depth every row still refining fails
            if depth < _MAX_SUBDIVISIONS and stuck.any():
                noise = np.abs(sl)
                noise += np.abs(sr)
                noise *= _NOISE_FACTOR * _EPS
                stuck = (keep & ((np.abs(delta) <= noise) | ~np.isfinite(delta))).any(axis=1)
                del noise
            over = 2 * kept > _MAX_ACTIVE_INTERVALS
            if stuck.any() or over.any():
                last = int(np.argmax(stuck | over))
                missed = delta[last][keep[last]]
                failure = (int(rows[last]), *_failure(abs_tol, depth, stuck[last], missed))
                # the failed row and every row above it, waiting ones too, stop here
                pending, suspended = pending[:0], []
                taken[last:] = keep[last:] = False
                kept[last:] = 0
            # each row adds its accepted intervals in interval order, as alone
            parts = s2[taken] + delta[taken] / 15.0
            errs = np.abs(delta[taken])
            at = 0
            for row, size in zip(rows.tolist(), taken.sum(axis=1).tolist()):
                if size:
                    value[row] += float(parts[at : at + size].sum())
                    error[row] += float(errs[at : at + size].sum() / 15.0)
                    at += size
            depths[rows] = depth  # final for the rows that stop here
            live = np.flatnonzero(kept)
            if not live.size:
                break
            if live.size == rows.size:
                live = None
            else:
                rows, keep = rows[live], keep[live]
            cols = np.flatnonzero(keep.any(axis=0))
            if cols.size == lo.size:
                cols = None
            # each kept interval is replaced by its left and right half, in order
            lo, hi, mid = (_halves(left, right, None, cols)
                           for left, right in ((lo, mid), (mid, hi), (lm, rm)))
            flo = _halves(flo, fmid, live, cols)
            fhi = _halves(fmid, fhi, live, cols)
            fmid = _halves(flm, frm, live, cols)
            s = _halves(sl, sr, live, cols)
            active = np.repeat(keep if cols is None else keep.take(cols, axis=1), 2, axis=1)
            tol = np.repeat(0.5 * (tol if cols is None else tol.take(cols)), 2)
            # free this level's arrays before the next integrand call
            del fnew, flm, frm, sl, sr, s2, delta, accept, taken, keep, parts, errs
    return (value, error, evals, depths), failure


def _failure(abs_tol, depth, stuck, missed):
    """(message, achieved) for a row that failed at ``depth``; ``missed`` holds
    its rejected decrements, ``stuck`` is False for an interval-budget failure."""
    worst = float(np.abs(missed).max() / 15.0)
    if not np.isfinite(worst):
        return f"the integrand's values overflow the Simpson rule at depth {depth}", None
    if not stuck:
        return (f"adaptive Simpson interval budget exceeded at depth {depth}; "
                f"abs_tol={abs_tol:g} appears unattainable"), None
    if depth == _MAX_SUBDIVISIONS:
        return (f"adaptive Simpson exhausted max_subdivisions={_MAX_SUBDIVISIONS} "
                f"with error estimate {worst:g} > abs_tol={abs_tol:g}"), worst
    return (f"abs_tol={abs_tol:g} is below the error attainable in double precision "
            f"for this integrand (estimate stuck at {worst:g})"), worst
