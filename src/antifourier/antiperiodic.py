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

from ._kernels import check_order, check_scalar, freeze_fields, nonnegative, project, trig_sum
from ._trig import cospi, sinpi  # noqa: F401  (bench/tracer.py wraps antiperiodic.cospi/sinpi)
from ._trig import cossinpi
from .catalog import FunctionSpec, antiperiodic_defect
from .catalog import evaluate  # noqa: F401  (bench/tracer.py wraps antiperiodic.evaluate)
from .quadrature import DEFAULT_TOL


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

    def terms(self, M: int | None = None):
        """(shift gamma, multipliers n + 1/2 for n <= M, alpha_0..alpha_M, beta_0..beta_M)."""
        M = check_order(M, self.N)
        mults = np.arange(M + 1, dtype=float) + 0.5
        return self.gamma, mults, self.alpha[: M + 1], self.beta[: M + 1]


def shift_gamma(f: FunctionSpec) -> float:
    """Return (f(-L) + f(L)) / 2, the constant making f - gamma antiperiodic."""
    return antiperiodic_defect(f) / 2.0


def half_basis(n: int, L: float, x):
    """Return (cos((2n+1) pi x / 2L), sin((2n+1) pi x / 2L)).

    Values at x = +-L are exact: the cosine is 0.0 and the sine is +-(-1)^n.
    ``L`` must be finite and positive (ValueError).
    """
    n = nonnegative(n, "basis index")
    check_scalar(L, "L")
    u = np.asarray(x, dtype=float) / L
    return cossinpi((n + 0.5) * u)


def _coefficients_with_shift(f, shift, N, abs_tol):
    """alpha/beta arrays of f - shift on the half-integer basis."""
    ns = np.arange(nonnegative(N, "truncation order") + 1)
    families = [("cos", ((1.0, 0.5),), ns, "half-cosine coefficient", "cos"),
                ("sin", ((1.0, 0.5),), ns, "half-sine coefficient", "sin")]
    return project(f, shift, families, abs_tol)


def antiperiodic_coefficients(
    f: FunctionSpec, N: int, abs_tol: float = DEFAULT_TOL
) -> AntiperiodicCoefficients:
    """Compute gamma, alpha_0..alpha_N, beta_0..beta_N of ``f``, each
    coefficient with an error estimate within ``abs_tol``; ``N`` must be a
    nonnegative integer and not a bool."""
    gamma = shift_gamma(f)
    alpha, beta = _coefficients_with_shift(f, gamma, N, abs_tol)
    return AntiperiodicCoefficients(f.L, gamma, alpha, beta)


def antiperiodic_partial_sum(coeffs: AntiperiodicCoefficients, x, M: int | None = None):
    """Evaluate gamma + sum_{n<=M} (alpha_n cos_n + beta_n sin_n) at ``x``.

    Defined for all real x; the sum minus gamma is 2L-antiperiodic.
    """
    return trig_sum(coeffs.L, [coeffs.terms(M)], x)[0]


def coefficients_via_periodic_split(
    f: FunctionSpec, N: int, abs_tol: float = DEFAULT_TOL
) -> AntiperiodicCoefficients:
    """Assemble half-integer coefficients from two classical expansions.

    The classical coefficients (a_n, b_n) of (f - gamma) cos(pi x / 2L) and
    (at_n, bt_n) of (f - gamma) sin(pi x / 2L) are computed to order N + 1
    (the recombination references index n + 1) and combined, with
    b_0 = bt_0 = 0, as

        alpha_n = (a_n + a_{n+1} - bt_n + bt_{n+1}) / 2
        beta_n  = (at_n - at_{n+1} + b_n + b_{n+1}) / 2.

    The product integrands are reduced to sums of pure cosines/sines of
    half-integer multiples, so sampled specs stay on the exact table path.
    ``abs_tol`` bounds the error estimate of each classical coefficient, and
    ``N`` must be a nonnegative integer and not a bool.
    """
    N = nonnegative(N, "truncation order")
    gamma = shift_gamma(f)
    ns, what = np.arange(N + 2), "periodic-split {} coefficient".format
    a, at, b, bt = project(f, gamma, [
        # cos(n pi x / L) cos(pi x / 2L) = [cos((n-1/2)...) + cos((n+1/2)...)] / 2
        ("cos", ((0.5, -0.5), (0.5, 0.5)), ns, what("cos"), "cos"),
        # cos(n pi x / L) sin(pi x / 2L) = [sin((n+1/2)...) - sin((n-1/2)...)] / 2
        ("sin", ((0.5, 0.5), (-0.5, -0.5)), ns, what("cos"), "cos"),
        # sin(n pi x / L) cos(pi x / 2L) = [sin((n+1/2)...) + sin((n-1/2)...)] / 2
        ("sin", ((0.5, 0.5), (0.5, -0.5)), ns[1:], what("sin"), "sin"),
        # sin(n pi x / L) sin(pi x / 2L) = [cos((n-1/2)...) - cos((n+1/2)...)] / 2
        ("cos", ((0.5, -0.5), (-0.5, 0.5)), ns[1:], what("sin"), "sin"),
    ], abs_tol)
    b, bt = np.append(0.0, b), np.append(0.0, bt)  # b_0 = bt_0 = 0: sin(0) vanishes
    alpha = (a[:-1] + a[1:] - bt[:-1] + bt[1:]) / 2.0
    beta = (at[:-1] - at[1:] + b[:-1] + b[1:]) / 2.0
    return AntiperiodicCoefficients(f.L, gamma, alpha, beta)


def jordan_midpoint(left_limit: float, right_limit: float) -> float:
    """Average of one-sided limits: the series value at a bounded-variation jump.

    For the half-integer series this predictor applies at interior points of
    (-L, L); at the endpoints the series of a continuous antiperiodic
    function reproduces f(+-L) itself.
    """
    return (right_limit + left_limit) / 2.0
