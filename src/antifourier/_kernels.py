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
  odd kernel vanishes.

* sampled bodies: each panel of the piecewise-linear interpolant is
  integrated against each pair's trig term in closed form, so no quadrature
  error is aliased with interpolation error.

Every series in the package is evaluated by one sum,

    shift + sum_m (c_m cos(mult_m pi x / L) + s_m sin(mult_m pi x / L)),

in :func:`trig_sum`: the classical series (shift a_0/2, mult n) and the
half-integer series (shift gamma, mult n + 1/2) from their containers'
``terms`` views, and the heat solution and its x-derivative (weights scaled
by e^(lambda_n k t)) in ``heat_eval`` and ``heat_eval_dx``.  The containers share :func:`freeze_fields` and :func:`check_order`.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np

from ._trig import cospi, sinpi
from .catalog import FunctionSpec, Sampled, evaluate
from .errors import NonConvergence, OrderExceedsTruncation
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate


def _table_integral(xs, ys, trig, amplitude, mult, L):
    """Exact integral of the piecewise-linear table against amplitude * trig(mult pi x / L)."""
    omega = mult * np.pi / L
    y0, y1 = ys[:-1], ys[1:]
    if omega == 0.0:  # the classical a_0 kernel, the one zero frequency
        return amplitude * float((0.5 * (y0 + y1) * (xs[1:] - xs[:-1])).sum())
    slope = (y1 - y0) / (xs[1:] - xs[:-1])
    s, c = np.sin(omega * xs), np.cos(omega * xs)  # once per node, panel ends by slicing
    if trig == "cos":
        panels = (y1 * s[1:] - y0 * s[:-1]) / omega + slope * (c[1:] - c[:-1]) / omega**2
    else:
        panels = (y0 * c[:-1] - y1 * c[1:]) / omega + slope * (s[1:] - s[:-1]) / omega**2
    return amplitude * float(panels.sum())


def _folded_integral(spec, shift, trig, atoms, n, cfg):
    """int_0^L of the parity-folded (f - shift) times the kernel K_n."""
    # Keep the initial panel count above the largest frequency multiplier.
    # With p panels and p > mult, no dyadic refinement grid can contain all
    # zeros of trig(mult * pi * x / L) (that would need p * 2^d to divide
    # mult), so an oscillation can never alias to an exact zero estimate.
    max_mult = max(abs(n + offset) for _, offset in atoms)
    if max_mult >= cfg.base_panels:
        cfg = replace(cfg, base_panels=2 * (int(max_mult) // 2 + 1))
    # cosine kernels are even and keep f(x) + f(-x); sine kernels are odd
    basis, parity = (cospi, 1.0) if trig == "cos" else (sinpi, -1.0)

    def integrand(x):
        folded = (evaluate(spec, x) - shift) + parity * (evaluate(spec, -x) - shift)
        u = x / spec.L
        return folded * sum(amplitude * basis((n + offset) * u) for amplitude, offset in atoms)

    return integrate(integrand, 0.0, spec.L, cfg)


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
    quadrature failure at harmonic n is re-raised as NonConvergence "<what>
    n=<n> did not converge: ..." with ``index=n`` and ``kind``.
    """
    values = np.empty(len(ns))
    if isinstance(spec.body, Sampled):
        xs = np.asarray(spec.body.xs, dtype=float)
        ys = np.asarray(spec.body.ys, dtype=float) - shift
        for i, n in enumerate(ns):
            values[i] = sum(
                _table_integral(xs, ys, trig, amplitude, n + offset, spec.L)
                for amplitude, offset in atoms
            )
        return values / spec.L
    for i, n in enumerate(ns):
        try:
            values[i] = _folded_integral(spec, shift, trig, atoms, n, cfg)
        except NonConvergence as exc:
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
    phase = np.multiply.outer(mults, u)
    value = (
        shift
        + np.tensordot(cos_w, cospi(phase), axes=1)
        + np.tensordot(sin_w, sinpi(phase), axes=1)
    )
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
