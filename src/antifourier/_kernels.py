"""Projection of a FunctionSpec onto families of trigonometric kernels.

Every coefficient in the package is one of a family (1/L) * int_{-L}^{L}
(f(x) - shift) * K_n(x) dx over harmonics n.  A family is described by one
trig kind, "cos" or "sin", and a tuple of (amplitude, offset) pairs: K_n is
the sum of amplitude * trig((n + offset) pi x / L) over the pairs, so every
kernel of a family has one parity.  The classical series uses ((1.0, 0.0),),
the half-integer series and the heat modes ((1.0, 0.5),), and the periodic
split two pairs at offsets -1/2 and +1/2.  :func:`project` computes a whole
family in one call and is the one place that re-raises a quadrature failure,
tagged with the family, n and kind.  Two integration paths are used:

* callable bodies: the symmetric integral is folded onto [0, L] with the
  parity-matched combination of f(x) and f(-x), then handed to the Simpson
  engine.  The fold makes the integral of an odd integrand exactly zero in
  floating point (the combination cancels pointwise before multiplication),
  and it removes the catalog sign-function jumps at the origin, where every
  odd kernel vanishes.  The harmonics that start on the same panels are one
  several-row ``integrate`` call, one row each: the engine refines them on
  shared abscissae, where f is folded once and the kernels of the rows still
  refining are taken as one block, and every coefficient keeps the bits of
  its own one-row integration.  A folded sample that is not finite (f
  overflows) is refused as a ValidationError.

* sampled bodies: each panel of the piecewise-linear interpolant is
  integrated against each pair's trig term in closed form, by parts, so no
  quadrature error is aliased with interpolation error.  One trig function
  is taken per node and harmonic.

Every series in the package is evaluated by one sum,

    shift + sum_m (c_m cos(mult_m pi x / L) + s_m sin(mult_m pi x / L)),

in :func:`trig_sum`: the classical series (shift a_0/2, mult n) and the
half-integer series (shift gamma, mult n + 1/2) from their containers'
``terms`` views, and the heat solution and its x-derivative (weights scaled
by e^(lambda_n k t)) in ``heat_eval`` and ``heat_eval_dx``.  It takes both
trig functions of each phase from one ``cossinpi`` split.  The containers
share :func:`freeze_fields` and :func:`check_order`.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np

from ._trig import cospi, cossinpi, sinpi
from .catalog import FunctionSpec, Sampled, evaluate
from .errors import NonConvergence, OrderExceedsTruncation, ValidationError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate


def _table_integral(xs, ys, slope, trig, amplitude, mult, L):
    """Exact integral of the piecewise-linear table against amplitude * trig(mult pi x / L).

    Each panel is integrated by parts.  The value terms telescope to the two
    table ends, so the kernel's antiderivative (sin for cos, cos for sin) is
    taken there only; the slope terms take ``trig`` itself at every node.
    """
    omega = mult * np.pi / L
    if omega == 0.0:  # the classical a_0 kernel, the one zero frequency
        return amplitude * float((0.5 * (ys[:-1] + ys[1:]) * np.diff(xs)).sum())
    left, right = omega * xs[0], omega * xs[-1]
    if trig == "cos":  # y sin / omega + slope cos / omega^2 on each panel
        ends = ys[-1] * np.sin(right) - ys[0] * np.sin(left)
        steps = np.diff(np.cos(omega * xs))
    else:  # -y cos / omega + slope sin / omega^2 on each panel
        ends = ys[0] * np.cos(left) - ys[-1] * np.cos(right)
        steps = np.diff(np.sin(omega * xs))
    return amplitude * float(ends / omega + (slope * steps).sum() / omega**2)


def _panels(ns, atoms, cfg):
    """Starting panel count of each harmonic in ``ns``.

    Keep the initial panel count above the largest frequency multiplier.
    With p panels and p > mult, no dyadic refinement grid can contain all
    zeros of trig(mult * pi * x / L) (that would need p * 2^d to divide
    mult), so an oscillation can never alias to an exact zero estimate.
    """
    max_mult = np.max(np.abs(np.add.outer(ns, [offset for _, offset in atoms])), axis=1)
    bumped = 2 * (max_mult.astype(int) // 2 + 1)
    return np.where(max_mult < cfg.base_panels, cfg.base_panels, bumped)


def _folded_kernels(spec, shift, trig, atoms, harmonics, what):
    """Integrand of :func:`integrate` with one row per harmonic: the
    parity-folded (f - shift) times K_n on [0, L].  Each call folds f once and
    takes the kernels of the rows asked for as one rows x abscissae block,
    which the engine's cap bounds."""
    # cosine kernels are even and keep f(x) + f(-x); sine kernels are odd
    basis, parity = (cospi, 1.0) if trig == "cos" else (sinpi, -1.0)
    mults = [harmonics + offset for _, offset in atoms]

    def integrand(x, rows):
        # an overflow leaves a nan or an infinity, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            folded = (evaluate(spec, x) - shift) + parity * (evaluate(spec, -x) - shift)
        if not np.isfinite(folded).all():
            raise ValidationError(
                f"{what} n={harmonics[rows[0]]} is not finite: the function's values are too large"
            )
        u = x / spec.L
        return folded * sum(
            amplitude * basis(np.multiply.outer(mult[rows], u))
            for (amplitude, _), mult in zip(atoms, mults)
        )

    return integrand


def project(
    spec: FunctionSpec,
    shift: float,
    trig: str,
    atoms,
    ns,
    what: str,
    kind: str,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Return (1/L) int_{-L}^{L} (f(x) - shift) * K_n(x) dx for every n in ``ns``.

    K_n(x) = sum of amplitude * trig((n + offset) pi x / L) over the
    (amplitude, offset) pairs ``atoms``; ``trig`` is "cos" or "sin".  A
    quadrature failure is re-raised for the lowest failing harmonic n as
    NonConvergence "<what> n=<n> did not converge: ..." with ``index=n`` and
    ``kind``; a table integral that overflows, or a callable body whose
    folded values do, raises ValidationError "<what> n=<n> is not finite:
    ...".
    """
    values = np.empty(len(ns))
    if isinstance(spec.body, Sampled):
        xs = np.asarray(spec.body.xs, dtype=float)
        # an overflow leaves a nan or an infinity, refused below by harmonic
        with np.errstate(over="ignore", invalid="ignore"):
            ys = np.asarray(spec.body.ys, dtype=float) - shift
            slope = np.diff(ys) / np.diff(xs)
            for i, n in enumerate(ns):
                values[i] = sum(
                    _table_integral(xs, ys, slope, trig, amplitude, n + offset, spec.L)
                    for amplitude, offset in atoms
                )
            values /= spec.L
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValidationError(
                f"{what} n={ns[bad[0]]} is not finite: the table's values are too large"
            )
        return values
    ns = np.asarray(ns, dtype=int)
    panels = _panels(ns, atoms, cfg)
    # one integrate call per run of harmonics that start on the same panels
    for at in np.split(np.arange(ns.size), np.flatnonzero(np.diff(panels)) + 1):
        if not at.size:
            continue
        group = ns[at]
        integrand = _folded_kernels(spec, shift, trig, atoms, group, what)
        run = replace(cfg, base_panels=int(panels[at[0]]))
        try:
            values[at] = integrate(integrand, 0.0, spec.L, run, rows=group.size)
        except NonConvergence as exc:
            n = int(group[exc.index])
            raise NonConvergence(
                f"{what} n={n} did not converge: {exc}",
                achieved=exc.achieved, target=exc.target, index=n, kind=kind,
            ) from exc
    return values / spec.L


def trig_sum(L, shift, mults, cos_w, sin_w, x):
    """Return shift + sum_m (cos_w[m] cospi(mults[m] x / L) + sin_w[m] sinpi(...)).

    Scalar ``x`` gives a float, array ``x`` an array of its shape.
    """
    u = np.asarray(x, dtype=float) / L
    cos_t, sin_t = cossinpi(np.multiply.outer(mults, u))
    value = shift + np.tensordot(cos_w, cos_t, axes=1) + np.tensordot(sin_w, sin_t, axes=1)
    if np.ndim(x) == 0:
        return float(value)
    return value


def check_order(M, N: int) -> int:
    """Return the partial-sum order M (None means the stored order N)."""
    if M is None:
        return N
    if M > N:
        raise OrderExceedsTruncation(f"M={M} exceeds stored order N={N}")
    if M < 0:
        raise ValueError("partial-sum order must be nonnegative")
    return M


def freeze_fields(obj, first: str, second: str, extra: int = 0, positive=("L",)) -> None:
    """Store two fields of frozen dataclass ``obj`` as finite read-only 1-D arrays.

    ``first`` must hold ``extra`` more entries than ``second`` and at least one.
    Every other field is a scalar that must be finite, and > 0 if named in
    ``positive``.
    """
    for name in (field.name for field in fields(obj) if field.name not in (first, second)):
        value = getattr(obj, name)
        if not np.isfinite(value) or (name in positive and value <= 0.0):
            rule = "finite and positive" if name in positive else "finite"
            raise ValueError(f"{name} must be {rule}, got {value!r}")
    arrays = {name: np.asarray(getattr(obj, name), dtype=float) for name in (first, second)}
    if any(array.ndim != 1 for array in arrays.values()):
        raise ValueError(f"{first} and {second} must be one-dimensional")
    if arrays[first].size != arrays[second].size + extra or arrays[first].size == 0:
        raise ValueError(f"expected len({first}) == len({second}) + {extra} > 0")
    if not all(np.isfinite(array).all() for array in arrays.values()):
        raise ValueError("coefficients must be finite")
    for name, array in arrays.items():
        array.flags.writeable = False
        object.__setattr__(obj, name, array)
