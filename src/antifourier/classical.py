"""Classical Fourier series on [-L, L].

Coefficients follow the usual normalization

    a_n = (1/L) int_{-L}^{L} f(x) cos(n pi x / L) dx,   n = 0..N,
    b_n = (1/L) int_{-L}^{L} f(x) sin(n pi x / L) dx,   n = 1..N,

and the partial sum is a_0/2 + sum_{n=1}^{M} (a_n cos + b_n sin).  Each
coefficient has its own adaptive quadrature (no FFT): a family's harmonics
share one engine run and its abscissae, but each keeps its own intervals and
error control, so arbitrary function specs and tolerances are supported.  Basis values are computed with the
exact-at-half-multiples helpers, which makes sin(n pi) at x = +-L exactly
zero and the endpoint symmetry S(-L) == S(L) hold bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import check_order, freeze_fields, project, trig_sum
from ._trig import cospi, sinpi  # noqa: F401  (bench/tracer.py wraps classical.cospi/sinpi)
from .catalog import FunctionSpec
from .quadrature import DEFAULT_CONFIG, QuadratureConfig


@dataclass(frozen=True, eq=False)
class ClassicalCoefficients:
    """Truncated classical Fourier coefficients.

    ``a`` holds a_0..a_N, ``b`` holds b_1..b_N.  Arrays are read-only.
    """

    L: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "a", "b", extra=1)

    @property
    def N(self) -> int:
        return self.a.size - 1

    def truncated(self, M: int) -> "ClassicalCoefficients":
        """Copy truncated to order M <= N."""
        M = check_order(M, self.N)
        return ClassicalCoefficients(self.L, self.a[: M + 1].copy(), self.b[:M].copy())

    def terms(self, M: int | None = None):
        """(shift a_0/2, multipliers 1..M, cos weights a_1..a_M, sin weights b_1..b_M)."""
        M = check_order(M, self.N)
        return 0.5 * self.a[0], np.arange(1, M + 1, dtype=float), self.a[1 : M + 1], self.b[:M]


def classical_coefficients(
    f: FunctionSpec, N: int, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> ClassicalCoefficients:
    """Compute a_0..a_N and b_1..b_N of ``f`` by quadrature.

    Raises NonConvergence tagged with the offending harmonic index and
    kernel kind if an integral cannot meet the tolerance.
    """
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    a = project(f, 0.0, "cos", ((1.0, 0.0),), range(N + 1), "cosine coefficient", "cos", cfg)
    b = project(f, 0.0, "sin", ((1.0, 0.0),), range(1, N + 1), "sine coefficient", "sin", cfg)
    return ClassicalCoefficients(f.L, a, b)


def classical_partial_sum(coeffs: ClassicalCoefficients, x, M: int | None = None):
    """Evaluate the order-M partial sum at scalar or array ``x``.

    Defined for all real x (the sum is the 2L-periodic extension).
    """
    return trig_sum(coeffs.L, *coeffs.terms(M), x)
