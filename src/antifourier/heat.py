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

from ._kernels import check_order, check_scalar, freeze_fields, nonnegative, trig_sum
from ._trig import cospi, sinpi  # noqa: F401  (bench/tracer.py wraps heat.cospi/sinpi)
from .antiperiodic import _coefficients_with_shift, half_basis
from .catalog import FunctionSpec, antiperiodic_defect
from .catalog import evaluate  # noqa: F401  (bench/tracer.py wraps heat.evaluate)
from .errors import IncompatibleData, NegativeTime
from .quadrature import DEFAULT_TOL

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
        if not np.isfinite(self.boundary_mean):
            raise ValueError(f"boundary mean c must be finite, got {float(self.boundary_mean)!r}")
        if self.L != self.initial.L:
            raise ValueError(
                f"problem half-length L={float(self.L)!r} differs from the initial "
                f"condition's L={float(self.initial.L)!r}"
            )
        defect = antiperiodic_defect(self.initial)
        if abs(defect - 2.0 * self.boundary_mean) > COMPATIBILITY_TOL:
            raise IncompatibleData(
                f"initial data incompatible with the boundary mean: "
                f"f(-L) + f(L) = {float(defect)!r} but 2c = {float(2.0 * self.boundary_mean)!r}"
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
    two functions of ``half_basis(n, L, x)``; ``L`` must be finite and positive.
    """
    n = nonnegative(n, "mode index")
    check_scalar(L, "L")
    omega = (n + 0.5) * (np.pi / L)
    lam = -(omega * omega)
    return float(lam), lambda x: half_basis(n, L, x)[0], lambda x: half_basis(n, L, x)[1]


def solve_heat(problem: HeatProblem, N: int, abs_tol: float = DEFAULT_TOL) -> HeatSolution:
    """Compute modal coefficients A_n, B_n of f - c up to order N, a
    nonnegative integer and not a bool, each with an error estimate within
    ``abs_tol``.

    The compatibility invariant guarantees the shift of f - c is below
    COMPATIBILITY_TOL, so no residual constant is dropped.
    """
    A, B = _coefficients_with_shift(problem.initial, problem.boundary_mean, N, abs_tol)
    return HeatSolution(problem.k, problem.L, problem.boundary_mean, A, B)


def _modes(sol: HeatSolution, t, M):
    """Checked order M with multipliers n + 1/2, omega_n and e^(lambda_n k t),
    the last with one row per time when ``t`` is a 1-D array."""
    M = check_order(M, sol.N)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("time must be a scalar or a 1-D array of times")
    if np.isnan(ts).any():
        raise ValueError("heat solution is not defined for t=nan")
    negative = ts[ts < 0.0]
    if negative.size:
        raise NegativeTime(f"heat solution is not defined for t={float(negative[0])!r} < 0")
    mults = np.arange(M + 1, dtype=float) + 0.5
    omega = mults * (np.pi / sol.L)
    kt = sol.k * ts[..., None]
    # a decay rate that overflows decays to 0.0 for k t > 0; at k t == 0 every
    # factor is exactly 1.0, as exp(-0.0) is wherever omega^2 is finite
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.where(kt == 0.0, 1.0, np.exp(-(omega * omega) * kt))
    return M, mults, omega, decay


def _over_times(L, shift, mults, cos_w, sin_w, x):
    """One :func:`trig_sum` call, a series per row of weights (one row per
    time): the one sum for 1-D weights, the sums stacked for 2-D ones."""
    rows = zip(np.atleast_2d(cos_w), np.atleast_2d(sin_w))
    sums = trig_sum(L, [(shift, mults, c, s) for c, s in rows], x)
    return sums[0] if cos_w.ndim == 1 else np.reshape(sums, (len(cos_w), *np.shape(x)))


def heat_eval(sol: HeatSolution, x, t, M: int | None = None):
    """Evaluate the order-M solution at position(s) ``x`` and time ``t >= 0``.

    A 1-D array of times gives one row per time, shape (len(t), *x.shape),
    each row bit for bit the call at that scalar time; the basis at ``x`` is
    taken once for all of them.
    """
    M, mults, _, decay = _modes(sol, t, M)
    A, B = sol.A[: M + 1], sol.B[: M + 1]
    return _over_times(sol.L, sol.boundary_mean, mults, A * decay, B * decay, x)


def heat_eval_dx(sol: HeatSolution, x, t, M: int | None = None):
    """Termwise x-derivative of :func:`heat_eval` (the heat flux up to -k),
    with the same array-of-times form."""
    M, mults, omega, decay = _modes(sol, t, M)
    A, B = sol.A[: M + 1], sol.B[: M + 1]
    return _over_times(sol.L, 0.0, mults, B * decay * omega, -(A * decay * omega), x)


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
    if not (xs.size and ts.size):
        raise ValueError(f"residual grid is empty: {xs.size} x and {ts.size} t values")
    if not np.all(np.abs(xs) < sol.L):  # a nan is refused too
        raise ValueError("residual grid must be interior: |x| < L")
    if not np.all(ts - h > 0.0):
        raise ValueError("need t - h > 0 at every grid time")
    M, _, omega, _ = _modes(sol, 0.0, M)
    # one row per time in each of the five evaluations
    ut = (heat_eval(sol, xs, ts + h, M) - heat_eval(sol, xs, ts - h, M)) / (2.0 * h)
    uxx = (
        heat_eval(sol, xs + h, ts, M)
        - 2.0 * heat_eval(sol, xs, ts, M)
        + heat_eval(sol, xs - h, ts, M)
    ) / (h * h)
    worst = float(np.abs(ut - sol.k * uxx).max())

    amps = np.abs(sol.A[: M + 1]) + np.abs(sol.B[: M + 1])
    t_min = float(ts.min()) - h
    envelope = np.exp(-(omega * omega) * (sol.k * t_min))
    u_ttt = float(((omega * omega * sol.k) ** 3 * amps * envelope).sum())
    u_xxxx = float((omega**4 * amps * envelope).sum())
    reference = h * h * (u_ttt / 6.0 + sol.k * u_xxxx / 12.0)
    return ResidualReport(worst, h, float(reference), M, (xs.size, ts.size))
