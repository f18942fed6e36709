"""Fourier series on half-integer harmonics for nonperiodic functions.

The expansion uses the basis cos((2n+1) pi x / (2L)), sin((2n+1) pi x / (2L))
together with the constant shift gamma = (f(-L) + f(L)) / 2:

    AS f(x) = gamma + sum_{n>=0} (alpha_n cos_n(x) + beta_n sin_n(x)),
    alpha_n = (1/L) int (f(x) - gamma) cos_n(x) dx,  and likewise beta_n.

Every basis function satisfies g(-L) = -g(L), so the partial sums agree with
a continuous bounded-variation f at both endpoints and show no endpoint
Gibbs oscillation, unlike the classical series when f(-L) != f(L).

Besides direct quadrature, coefficients can be assembled from the classical
coefficients of (f - gamma) cos(pi x / 2L) and (f - gamma) sin(pi x / 2L)
("periodic split"); the two routes agree exactly at the integral level and
serve as cross-checks of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import TrigAtom, check_order, freeze_fields, project, tag_nonconvergence, trig_sum
from ._trig import cospi, sinpi
from .catalog import FunctionSpec, evaluate
from .quadrature import DEFAULT_CONFIG, QuadratureConfig


@dataclass(frozen=True, eq=False)
class AntiperiodicCoefficients:
    """Shift gamma plus alpha_0..alpha_N and beta_0..beta_N; arrays read-only."""

    L: float
    gamma: float
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "alpha", "beta")

    @property
    def N(self) -> int:
        return self.alpha.size - 1

    def truncated(self, M: int) -> "AntiperiodicCoefficients":
        """Copy truncated to order M <= N."""
        M = check_order(M, self.N)
        return AntiperiodicCoefficients(
            self.L, self.gamma, self.alpha[: M + 1].copy(), self.beta[: M + 1].copy()
        )


def shift_gamma(f: FunctionSpec) -> float:
    """Return (f(-L) + f(L)) / 2, the constant making f - gamma antiperiodic."""
    return (evaluate(f, -f.L) + evaluate(f, f.L)) / 2.0


def half_basis(n: int, L: float, x):
    """Return (cos((2n+1) pi x / 2L), sin((2n+1) pi x / 2L)).

    Values at x = +-L are exact: the cosine is 0.0 and the sine is +-(-1)^n.
    """
    if n < 0:
        raise ValueError("basis index must be nonnegative")
    u = np.asarray(x, dtype=float) / L
    t = (n + 0.5) * u
    return cospi(t), sinpi(t)


def _coefficients_with_shift(f, shift, N, cfg):
    """alpha/beta arrays of f - shift on the half-integer basis."""
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    L = f.L
    alpha = np.empty(N + 1)
    beta = np.empty(N + 1)
    for n in range(N + 1):
        mult = n + 0.5
        with tag_nonconvergence("half-cosine coefficient", n, "cos"):
            alpha[n] = project(f, shift, (TrigAtom("cos", 1.0, mult),), cfg) / L
        with tag_nonconvergence("half-sine coefficient", n, "sin"):
            beta[n] = project(f, shift, (TrigAtom("sin", 1.0, mult),), cfg) / L
    return alpha, beta


def antiperiodic_coefficients(
    f: FunctionSpec, N: int, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> AntiperiodicCoefficients:
    """Compute gamma, alpha_0..alpha_N, beta_0..beta_N of ``f`` by quadrature."""
    gamma = shift_gamma(f)
    alpha, beta = _coefficients_with_shift(f, gamma, N, cfg)
    return AntiperiodicCoefficients(f.L, gamma, alpha, beta)


def antiperiodic_partial_sum(coeffs: AntiperiodicCoefficients, x, M: int | None = None):
    """Evaluate gamma + sum_{n<=M} (alpha_n cos_n + beta_n sin_n) at ``x``.

    Defined for all real x; the sum minus gamma is 2L-antiperiodic.
    """
    M = check_order(M, coeffs.N)
    mults = np.arange(M + 1, dtype=float) + 0.5
    return trig_sum(
        coeffs.L, coeffs.gamma, mults, coeffs.alpha[: M + 1], coeffs.beta[: M + 1], x
    )


def coefficients_via_periodic_split(
    f: FunctionSpec, N: int, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> AntiperiodicCoefficients:
    """Assemble half-integer coefficients from two classical expansions.

    The classical coefficients (a_n, b_n) of (f - gamma) cos(pi x / 2L) and
    (at_n, bt_n) of (f - gamma) sin(pi x / 2L) are computed to order N + 1
    (the recombination references index n + 1) and combined as

        alpha_0 = (a_0 + a_1 + bt_1) / 2
        beta_0  = (at_0 - at_1 + b_1) / 2
        alpha_n = (a_n + a_{n+1} - bt_n + bt_{n+1}) / 2
        beta_n  = (at_n - at_{n+1} + b_n + b_{n+1}) / 2    (n >= 1).

    The product integrands are reduced to sums of pure cosines/sines of
    half-integer multiples, so sampled specs stay on the exact table path.
    """
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    gamma = shift_gamma(f)
    L = f.L
    K = N + 1

    def _proj(atoms, n, kind):
        with tag_nonconvergence(f"periodic-split {kind} coefficient", n, kind):
            return project(f, gamma, atoms, cfg) / L

    a = np.empty(K + 1)
    b = np.empty(K + 1)  # b[0] unused
    at = np.empty(K + 1)
    bt = np.empty(K + 1)  # bt[0] unused
    for n in range(K + 1):
        # cos(n pi x / L) cos(pi x / 2L) = [cos((n-1/2)...) + cos((n+1/2)...)] / 2
        a[n] = _proj(
            (TrigAtom("cos", 0.5, n - 0.5), TrigAtom("cos", 0.5, n + 0.5)), n, "cos"
        )
        # cos(n pi x / L) sin(pi x / 2L) = [sin((n+1/2)...) + sin((1/2-n)...)] / 2
        at[n] = _proj(
            (TrigAtom("sin", 0.5, n + 0.5), TrigAtom("sin", 0.5, 0.5 - n)), n, "cos"
        )
    for n in range(1, K + 1):
        # sin(n pi x / L) cos(pi x / 2L) = [sin((n+1/2)...) + sin((n-1/2)...)] / 2
        b[n] = _proj(
            (TrigAtom("sin", 0.5, n + 0.5), TrigAtom("sin", 0.5, n - 0.5)), n, "sin"
        )
        # sin(n pi x / L) sin(pi x / 2L) = [cos((n-1/2)...) - cos((n+1/2)...)] / 2
        bt[n] = _proj(
            (TrigAtom("cos", 0.5, n - 0.5), TrigAtom("cos", -0.5, n + 0.5)), n, "sin"
        )

    alpha = np.empty(N + 1)
    beta = np.empty(N + 1)
    alpha[0] = (a[0] + a[1] + bt[1]) / 2.0
    beta[0] = (at[0] - at[1] + b[1]) / 2.0
    for n in range(1, N + 1):
        alpha[n] = (a[n] + a[n + 1] - bt[n] + bt[n + 1]) / 2.0
        beta[n] = (at[n] - at[n + 1] + b[n] + b[n + 1]) / 2.0
    return AntiperiodicCoefficients(L, gamma, alpha, beta)


def jordan_midpoint(left_limit: float, right_limit: float) -> float:
    """Average of one-sided limits: the series value at a bounded-variation jump.

    For the half-integer series this predictor applies at interior points of
    (-L, L); at the endpoints the series of a continuous antiperiodic
    function reproduces f(+-L) itself.
    """
    return (right_limit + left_limit) / 2.0
