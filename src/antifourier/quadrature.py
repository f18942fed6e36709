"""Adaptive Simpson quadrature with absolute error control.

The rule starts from equal panels and subdivides every interval whose
Richardson error estimate is too large, all active intervals at once.  It
reuses every integrand evaluation (panel boundaries and midpoints are never
recomputed), so evaluation counts are deterministic for fixed inputs.
Integrands must accept numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInterval, NonConvergence

_EPS = np.finfo(float).eps

# Cap on simultaneously active adaptive intervals.  Reaching it means the
# tolerance is unattainable; that is reported as NonConvergence instead of
# letting the subdivision queue grow without bound.
_MAX_ACTIVE_INTERVALS = 1 << 21

# An interval whose Richardson decrement sits at rounding level cannot be
# improved by splitting further.
_NOISE_FACTOR = 16.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Integrator settings.

    abs_tol: absolute error target for the whole integral.
    max_subdivisions: maximum subdivision depth.
    base_panels: initial panel count; must be even and at least 2.
    """

    abs_tol: float = 1e-10
    max_subdivisions: int = 30
    base_panels: int = 64

    def __post_init__(self):
        if not (np.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        if self.base_panels < 2 or self.base_panels % 2:
            raise ValueError("base_panels must be even and at least 2")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    refinements: int


def integrate(f: Callable, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integrate ``f`` over [a, b] to within ``cfg.abs_tol``.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with numpy arrays of abscissae.
    a, b : float
        Integration bounds, a < b.
    cfg : QuadratureConfig
        Tolerance and refinement settings.

    Returns
    -------
    float
        Approximation with estimated absolute error <= cfg.abs_tol.

    Raises
    ------
    InvalidInterval
        If a >= b.
    NonConvergence
        If the refinement budget is exhausted before the tolerance is met,
        or the tolerance is below what double precision can deliver.
    """
    return integrate_result(f, a, b, cfg).value


def integrate_result(
    f: Callable, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> QuadratureResult:
    """Like :func:`integrate` but returns value, error estimate and counts."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidInterval(f"bounds must be finite, got a={a!r}, b={b!r}")
    if not a < b:
        raise InvalidInterval(f"need a < b, got a={a!r}, b={b!r}")
    return _adaptive(f, a, b, cfg)


def _halves(left, right):
    """Interleave per-interval values of the left and right halves."""
    out = np.empty(2 * left.size)
    out[0::2], out[1::2] = left, right
    return out


def _simpson_batch(lo, hi, flo, fmid, fhi):
    return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)


def _adaptive(f, a, b, cfg):
    n0 = cfg.base_panels
    edges = a + (b - a) * np.arange(n0 + 1) / n0
    edges[-1] = b
    fe = np.asarray(f(edges), dtype=float)
    lo, hi = edges[:-1], edges[1:]
    flo, fhi = fe[:-1], fe[1:]
    mid = 0.5 * (lo + hi)
    fmid = np.asarray(f(mid), dtype=float)
    evals = 2 * n0 + 1
    s = _simpson_batch(lo, hi, flo, fmid, fhi)
    tol = cfg.abs_tol * (hi - lo) / (b - a)

    total = 0.0
    err_total = 0.0
    for depth in range(cfg.max_subdivisions + 1):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        fnew = np.asarray(f(np.concatenate([lm, rm])), dtype=float)
        evals += 2 * lo.size
        flm, frm = fnew[: lo.size], fnew[lo.size :]
        sl = _simpson_batch(lo, mid, flo, flm, fmid)
        sr = _simpson_batch(mid, hi, fmid, frm, fhi)
        s2 = sl + sr
        delta = s2 - s
        accept = np.abs(delta) <= 15.0 * tol
        if not accept.all():
            worst = float(np.abs(delta[~accept]).max() / 15.0)
            if depth == cfg.max_subdivisions:
                raise NonConvergence(
                    f"adaptive Simpson exhausted max_subdivisions={cfg.max_subdivisions} "
                    f"with error estimate {worst:g} > abs_tol={cfg.abs_tol:g}",
                    achieved=worst,
                    target=cfg.abs_tol,
                )
            noise = np.abs(delta) <= _NOISE_FACTOR * _EPS * (np.abs(sl) + np.abs(sr))
            if np.any(~accept & noise):
                raise NonConvergence(
                    f"abs_tol={cfg.abs_tol:g} is below the error attainable in double "
                    f"precision for this integrand (estimate stuck at {worst:g})",
                    achieved=worst,
                    target=cfg.abs_tol,
                )
        total += float((s2[accept] + delta[accept] / 15.0).sum())
        err_total += float(np.abs(delta[accept]).sum() / 15.0)
        keep = ~accept
        if not keep.any():
            return QuadratureResult(total, err_total, evals, depth)
        if 2 * int(keep.sum()) > _MAX_ACTIVE_INTERVALS:
            raise NonConvergence(
                f"adaptive Simpson interval budget exceeded at depth {depth}; "
                f"abs_tol={cfg.abs_tol:g} appears unattainable",
                target=cfg.abs_tol,
            )
        # each kept interval is replaced by its left and right half, in order
        lo, hi, mid, flo, fhi, fmid, s = [
            _halves(left[keep], right[keep])
            for left, right in (
                (lo, mid), (mid, hi), (lm, rm), (flo, fmid), (fmid, fhi), (flm, frm), (sl, sr)
            )
        ]
        tol = np.repeat(0.5 * tol[keep], 2)
    raise AssertionError("unreachable")  # loop exits via return or raise
