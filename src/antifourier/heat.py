"""Heat equation on a rod with mean-value boundary conditions.

Solves u_t = k u_xx on (-L, L) x (0, inf) with initial data u(x, 0) = f(x)
and the coupled endpoint conditions

    u(-L, t) + u(L, t)     = 2 c      (mean endpoint temperature held at c)
    u_x(-L, t) + u_x(L, t) = 0        (equal and opposite endpoint flux)

for all t >= 0.  Writing u = c + v reduces this to homogeneous antiperiodic
conditions for v; separation of variables then yields the eigenvalues
lambda_n = -((2n+1) pi / (2L))^2 with eigenfunctions cos((2n+1) pi x / 2L)
and sin((2n+1) pi x / 2L), so

    u(x, t) = c + sum_n e^(lambda_n k t) (A_n cos_n(x) + B_n sin_n(x)),

where A_n, B_n are the half-integer-basis coefficients of f - c.  Both
boundary identities hold termwise for every truncation: each cos_n vanishes
at +-L and each sin_n (and cos_n') is odd there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import check_order, freeze_fields, trig_sum
from ._trig import cospi, sinpi  # noqa: F401  (bench/tracer.py wraps heat.cospi/sinpi)
from .antiperiodic import _coefficients_with_shift, half_basis
from .catalog import FunctionSpec, evaluate
from .errors import IncompatibleData, NegativeTime
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

# |f(-L) + f(L) - 2c| above this is rejected as incompatible initial data.
COMPATIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HeatProblem:
    """Problem data: diffusivity k, half-length L, boundary mean c, initial f."""

    k: float
    L: float
    boundary_mean: float
    initial: FunctionSpec

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise ValueError("diffusivity k must be positive")
        if self.L != self.initial.L:
            raise ValueError(
                f"problem half-length L={self.L!r} differs from the initial "
                f"condition's L={self.initial.L!r}"
            )
        defect = evaluate(self.initial, -self.L) + evaluate(self.initial, self.L)
        if abs(defect - 2.0 * self.boundary_mean) > COMPATIBILITY_TOL:
            raise IncompatibleData(
                f"initial data incompatible with the boundary mean: "
                f"f(-L) + f(L) = {defect!r} but 2c = {2.0 * self.boundary_mean!r}"
            )


@dataclass(frozen=True, eq=False)
class HeatSolution:
    """Truncated modal solution; A and B are read-only arrays A_0..A_N, B_0..B_N."""

    k: float
    L: float
    boundary_mean: float
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "A", "B", positive=("k", "L"))

    @property
    def N(self) -> int:
        return self.A.size - 1


def eigenpair(n: int, L: float):
    """Eigenvalue and eigenfunctions of X'' = lambda X with X(-L) = -X(L),
    X'(-L) = -X'(L).

    Returns (lambda_n, X_n, Xt_n) with lambda_n = -((2n+1) pi / (2L))^2,
    X_n(x) = cos((2n+1) pi x / 2L) and Xt_n(x) = sin((2n+1) pi x / 2L), the
    two functions of ``half_basis(n, L, x)``.
    """
    if n < 0:
        raise ValueError("mode index must be nonnegative")
    omega = (n + 0.5) * (np.pi / L)
    lam = -(omega * omega)
    return float(lam), lambda x: half_basis(n, L, x)[0], lambda x: half_basis(n, L, x)[1]


def solve_heat(
    problem: HeatProblem, N: int, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> HeatSolution:
    """Compute modal coefficients A_n, B_n of f - c up to order N.

    The compatibility invariant guarantees the shift of f - c is below
    COMPATIBILITY_TOL, so no residual constant is dropped.
    """
    A, B = _coefficients_with_shift(problem.initial, problem.boundary_mean, N, cfg)
    return HeatSolution(problem.k, problem.L, problem.boundary_mean, A, B)


def _modes(sol: HeatSolution, t: float, M):
    """Checked order M with multipliers n + 1/2, omega_n and e^(lambda_n k t)."""
    M = check_order(M, sol.N)
    if t < 0.0:
        raise NegativeTime(f"heat solution is not defined for t={t!r} < 0")
    mults = np.arange(M + 1, dtype=float) + 0.5
    omega = mults * (np.pi / sol.L)
    return M, mults, omega, np.exp(-(omega * omega) * (sol.k * t))


def heat_eval(sol: HeatSolution, x, t: float, M: int | None = None):
    """Evaluate the order-M solution at position(s) ``x`` and time ``t >= 0``."""
    M, mults, _, decay = _modes(sol, t, M)
    A, B = sol.A[: M + 1], sol.B[: M + 1]
    return trig_sum(sol.L, sol.boundary_mean, mults, A * decay, B * decay, x)


def heat_eval_dx(sol: HeatSolution, x, t: float, M: int | None = None):
    """Termwise x-derivative of :func:`heat_eval` (the heat flux up to -k)."""
    M, mults, omega, decay = _modes(sol, t, M)
    A, B = sol.A[: M + 1], sol.B[: M + 1]
    return trig_sum(sol.L, 0.0, mults, B * decay * omega, -(A * decay * omega), x)


@dataclass(frozen=True)
class ResidualReport:
    """Finite-difference check of u_t - k u_xx on an interior grid.

    ``max_residual`` is the largest |u_t - k u_xx| using central differences
    with step ``fd_step``; since the truncated series satisfies the PDE
    exactly, the residual is pure finite-difference error.  The expected
    magnitude of that error is ``reference_scale`` = h^2 (|u_ttt|/6 +
    k |u_xxxx|/12) bounded through the modal sums; rounding adds a floor of
    order eps / h^2 that dominates for very small steps.
    """

    max_residual: float
    fd_step: float
    reference_scale: float
    order: int
    grid_shape: tuple


def verify_solution(sol: HeatSolution, xs, ts, h: float, M: int | None = None) -> ResidualReport:
    """Max PDE residual of the order-M evaluation over interior grid points."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if not (h > 0.0 and np.isfinite(h)):
        raise ValueError("fd_step must be positive and finite")
    if np.any(np.abs(xs) >= sol.L):
        raise ValueError("residual grid must be interior: |x| < L")
    if np.any(ts - h <= 0.0):
        raise ValueError("need t - h > 0 at every grid time")
    M, _, omega, _ = _modes(sol, 0.0, M)
    worst = 0.0
    for t in ts:
        t = float(t)
        ut = (heat_eval(sol, xs, t + h, M) - heat_eval(sol, xs, t - h, M)) / (2.0 * h)
        uxx = (
            heat_eval(sol, xs + h, t, M)
            - 2.0 * heat_eval(sol, xs, t, M)
            + heat_eval(sol, xs - h, t, M)
        ) / (h * h)
        worst = max(worst, float(np.abs(ut - sol.k * uxx).max()))

    amps = np.abs(sol.A[: M + 1]) + np.abs(sol.B[: M + 1])
    t_min = float(ts.min()) - h
    envelope = np.exp(-(omega * omega) * (sol.k * t_min))
    u_ttt = float(((omega * omega * sol.k) ** 3 * amps * envelope).sum())
    u_xxxx = float((omega**4 * amps * envelope).sum())
    reference = h * h * (u_ttt / 6.0 + sol.k * u_xxxx / 12.0)
    return ResidualReport(worst, h, float(reference), M, (xs.size, ts.size))
