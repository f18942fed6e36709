"""Independent reference values and output checks for the benchmark.

Nothing here imports the package under test.  Coefficients come from
piecewise Gauss-Legendre quadrature: callable bodies on panels of [-L, 0] and
[0, L] (the catalog's only jump is at 0) small enough that the top harmonic
turns by less than pi per panel, tables panel by panel on their own
piecewise-linear interpolant.  Partial sums, diagnostics rows and heat fields
are recomputed with plain ``np.cos``/``np.sin`` from those coefficients,
following the formulas documented in the package's README and docstrings.

Tolerances follow from the CLI's documented default quadrature tolerance:
each coefficient is an integral over [0, L] accurate to ``ABS_TOL`` divided
by L, so a coefficient may differ from the reference by ``coef_tol(L)`` and
a partial sum of 2N+2 terms by 2N+2 times that.  Table coefficients are
computed in closed form by the program, so they get the rounding-level
``TABLE_COEF_TOL`` instead.
"""

from __future__ import annotations

import json
import math

import numpy as np

ABS_TOL = 1e-10
TABLE_COEF_TOL = 1e-11
ROUNDING = 1e-11
COMPARE_COLUMNS = (
    "series_kind", "order", "endpoint_error_left", "endpoint_error_right", "sup_error",
    "overshoot", "decay_exponent_classical", "decay_exponent_antiperiodic", "grid_size",
    "window_fraction",
)
DECAY_FLOOR = 1e-13
# The endpoint claim is checked where f(L) - f(-L) is at least this large.
ENDPOINT_JUMP = 0.5
# heat boundary sums, relative to the field scale: a few roundings of c +- S
BOUNDARY_TOL = 64 * np.finfo(float).eps

_GL_CALLABLE = np.polynomial.legendre.leggauss(16)
_GL_TABLE = np.polynomial.legendre.leggauss(6)


def coef_tol(body: dict, L: float) -> float:
    if body["kind"] == "table":
        return TABLE_COEF_TOL
    return 10.0 * ABS_TOL / min(L, 1.0)


def read_csv(path: str, numeric: bool = False):
    """Header cells (None when the first row is data) and the data rows of a
    CSV file: lists of text cells, or with ``numeric`` one float matrix."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        try:
            float(header[0])
        except ValueError:
            pass
        else:
            header = None
            handle.seek(0)
        if numeric:
            return header, np.loadtxt(handle, delimiter=",", ndmin=2)
        return header, [line.split(",") for line in handle.read().splitlines() if line]


def body_values(body: dict, x):
    """f(x) for a named or polynomial body description."""
    x = np.asarray(x, dtype=float)
    if body["kind"] == "poly":
        acc = np.zeros_like(x)
        for c in reversed(body["coeffs"]):
            acc = acc * x + c
        return acc
    name = body["name"]
    if name == "identity":
        return x.copy()
    if name == "const":
        return np.full_like(x, body["params"][0])
    if name == "signum":
        return np.sign(x)
    if name == "x-plus-sign":
        return x + np.sign(x)
    if name == "scaled-square":
        return (x / np.pi) ** 2
    raise ValueError(f"unknown body {name!r}")


class Body:
    """Quadrature nodes, weights and values of one body on [-L, L]."""

    def __init__(self, body: dict, L: float, max_mult: float):
        self.L = L
        if body["kind"] == "table":
            xs, ys = read_csv(body["path"], numeric=True)[1].T
            t, w = _GL_TABLE
            half = 0.5 * np.diff(xs)
            mid = 0.5 * (xs[:-1] + xs[1:])
            self.x = (mid[:, None] + half[:, None] * t).ravel()
            self.w = (half[:, None] * w).ravel()
            self.y = (ys[:-1, None] + np.diff(ys)[:, None] * (0.5 * (t + 1.0))).ravel()
            self.ends = (float(ys[0]), float(ys[-1]))
            self.f = lambda x: np.interp(x, xs, ys)
        else:
            panels = int(max_mult) + 2
            t, w = _GL_CALLABLE
            edges = np.linspace(0.0, L, panels + 1)
            half = 0.5 * np.diff(edges)
            mid = 0.5 * (edges[:-1] + edges[1:])
            xr = (mid[:, None] + half[:, None] * t).ravel()
            wr = (half[:, None] * w).ravel()
            self.x = np.concatenate([-xr[::-1], xr])
            self.w = np.concatenate([wr[::-1], wr])
            self.y = body_values(body, self.x)
            left, right = body_values(body, [-L, L])
            self.ends = (float(left), float(right))
            self.f = lambda x: body_values(body, x)

    def moments(self, shift, mults, trig):
        """(1/L) int (f - shift) trig(m pi x / L) dx for each multiplier m."""
        phase = self.x * (np.pi / self.L)
        wg = self.w * (self.y - shift)
        out = np.empty(len(mults))
        for start in range(0, len(mults), 32):
            out[start : start + 32] = trig(np.outer(mults[start : start + 32], phase)) @ wg
        return out / self.L


def coefficients(body: dict, L: float, N: int, shift=None) -> dict:
    """Reference classical (a, b) and half-integer (gamma, alpha, beta) sets.

    ``shift`` replaces gamma for the half-integer set (the heat solver
    expands f - c).
    """
    ref = Body(body, L, N + 1)
    n = np.arange(N + 1, dtype=float)
    gamma = 0.5 * (ref.ends[0] + ref.ends[1]) if shift is None else shift
    return {
        "a": ref.moments(0.0, n, np.cos),
        "b": ref.moments(0.0, n[1:], np.sin),
        "gamma": gamma,
        "alpha": ref.moments(gamma, n + 0.5, np.cos),
        "beta": ref.moments(gamma, n + 0.5, np.sin),
        "f": ref.f,
        "ends": ref.ends,
    }


def _terms(ref: dict, kind: str):
    if kind == "classical":
        n = np.arange(1, ref["a"].size, dtype=float)
        return 0.5 * ref["a"][0], n, ref["a"][1:], ref["b"]
    n = np.arange(ref["alpha"].size, dtype=float) + 0.5
    return ref["gamma"], n, ref["alpha"], ref["beta"]


def partial_sums(ref: dict, kind: str, L: float, x, orders):
    """Rows of the order-M partial sums at ``x``, one row per M in ``orders``."""
    const, mults, cos_c, sin_c = _terms(ref, kind)
    x = np.asarray(x, dtype=float)
    out = np.empty((len(orders), x.size))
    # classical order M sums modes 1..M, half-integer order M sums modes 0..M
    rows = [M - 1 if kind == "classical" else M for M in orders]
    for start in range(0, x.size, 2048):
        phase = np.outer(mults, x[start : start + 2048] * (np.pi / L))
        cums = np.cumsum(cos_c[:, None] * np.cos(phase) + sin_c[:, None] * np.sin(phase), axis=0)
        for i, row in enumerate(rows):
            out[i, start : start + 2048] = const + (cums[row] if row >= 0 else 0.0)
    return out


def decay_exponent(ref: dict, kind: str, order: int) -> float:
    """Least-squares decay rate p of |c_n| ~ n^-p, as the package documents it."""
    if kind == "classical":
        n = np.arange(1, ref["a"].size)
        mags = np.maximum(np.abs(ref["a"][1:]), np.abs(ref["b"]))
    else:
        n = np.arange(ref["alpha"].size)
        mags = np.maximum(np.abs(ref["alpha"]), np.abs(ref["beta"]))
    N = min(order, n[-1])
    keep = (n >= max(2, N // 4)) & (n <= N) & (mags > DECAY_FLOOR)
    if keep.sum() < 4:
        return math.nan
    return float(-np.polyfit(np.log(n[keep] + 1.0), np.log(mags[keep]), 1)[0])


def heat_fields(A, B, L, k, c, x, t):
    """u and u_x of c + sum exp(-omega^2 k t) (A cos + B sin) at one time."""
    mults = np.arange(A.size, dtype=float) + 0.5
    omega = mults * (np.pi / L)
    decay = np.exp(-(omega * omega) * (k * t))
    phase = np.outer(mults, np.asarray(x) * (np.pi / L))
    cos, sin = np.cos(phase), np.sin(phase)
    u = c + (A * decay) @ cos + (B * decay) @ sin
    ux = (B * decay * omega) @ cos - (A * decay * omega) @ sin
    return u, ux


class Readings:
    """Accuracy readings gathered over every checked output."""

    def __init__(self):
        self.coef_err = {"classical": 0.0, "antiperiodic": 0.0}
        self.boundary_defect = 0.0


def _max_diff(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.abs(got - want).max()) if got.size else 0.0


def check_coefficients(path: str, body: dict, L: float, N: int, ref: dict, readings) -> list:
    """Check a ``coeffs --kind both --format json`` file; return problems."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    problems = []
    tol = coef_tol(body, L)
    cl, an = data["classical"], data["antiperiodic"]
    if (cl["kind"], an["kind"]) != ("classical", "antiperiodic"):
        problems.append("wrong kind labels")
    if cl["L"] != L or an["L"] != L or cl["N"] != N or an["N"] != N:
        problems.append("wrong L or N")
    err_c = max(_max_diff(cl["a"], ref["a"]), _max_diff(cl["b"], ref["b"]))
    err_a = max(abs(an["gamma"] - ref["gamma"]), _max_diff(an["alpha"], ref["alpha"]),
                _max_diff(an["beta"], ref["beta"]))
    readings.coef_err["classical"] = max(readings.coef_err["classical"], err_c)
    readings.coef_err["antiperiodic"] = max(readings.coef_err["antiperiodic"], err_a)
    if not err_c <= tol:
        problems.append(f"classical coefficient error {err_c:.3g} > {tol:.3g}")
    if not err_a <= tol:
        problems.append(f"half-integer coefficient error {err_a:.3g} > {tol:.3g}")
    return problems


def check_parity_zeros(path: str, parity: int) -> list:
    """Odd bodies fold to exactly 0.0 cosine coefficients, even ones to 0.0 sines."""
    if parity == 0:
        return []
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    cl, an = data["classical"], data["antiperiodic"]
    zeros = cl["a"] + an["alpha"] if parity < 0 else cl["b"] + an["beta"]
    if parity < 0:
        zeros = zeros + [an["gamma"]]
    if any(v != 0.0 for v in zeros):
        return ["parity coefficients are not exactly 0.0"]
    return []


def check_eval(path: str, body: dict, L: float, N: int, grid: int, ref: dict) -> list:
    """Check an ``eval --kind both --format csv`` file against reference sums."""
    header, data = read_csv(path, numeric=True)
    if header != ["x", "f", "classical", "antiperiodic"] or len(data) != grid:
        return ["eval output has the wrong shape"]
    xs = np.linspace(-L, L, grid)
    problems = []
    if not np.array_equal(data[:, 0], xs):
        problems.append("eval grid differs")
    fx = ref["f"](xs)
    if not np.all(np.abs(data[:, 1] - fx) <= ROUNDING * (1.0 + np.abs(fx))):
        problems.append("eval f column differs")
    tol = (2 * N + 2) * coef_tol(body, L) + ROUNDING
    for col, kind in ((2, "classical"), (3, "antiperiodic")):
        err = _max_diff(data[:, col], partial_sums(ref, kind, L, xs, [N])[0])
        if not err <= tol:
            problems.append(f"{kind} partial sum error {err:.3g} > {tol:.3g}")
    problems += _endpoint_claim(ref, data[[0, -1], 2], data[[0, -1], 3], N)
    return problems


def _endpoint_claim(ref, classical_ends, anti_ends, order) -> list:
    """Where f(-L) != f(L), the half-integer sum sits closer to f at +-L."""
    left, right = ref["ends"]
    if abs(right - left) < ENDPOINT_JUMP or order < 25:
        return []
    f_ends = np.array([left, right])
    if np.all(np.abs(anti_ends - f_ends) < np.abs(classical_ends - f_ends)):
        return []
    return [f"endpoint agreement fails at order {order}"]


def check_compare(path: str, job: dict, ref: dict) -> list:
    """Check a ``compare --format csv`` file row by row."""
    header, rows = read_csv(path)
    orders, L = job["orders"], job["L"]
    if tuple(header) != COMPARE_COLUMNS or len(rows) != 2 * len(orders):
        return ["compare output has the wrong shape"]
    grid, sub, w = job["grid"], job["subgrid"], job["window"]
    xs = np.linspace(-L, L, grid)
    right = np.linspace(L * (1.0 - w), L, sub)
    left = np.linspace(-L, -L * (1.0 - w), sub)
    pts = np.concatenate([xs, right, left])
    fx = ref["f"](pts)
    f_grid, f_right, f_left = fx[:grid], fx[grid : grid + sub], fx[grid + sub :]
    sums = {kind: partial_sums(ref, kind, L, pts, orders) for kind in ("classical", "antiperiodic")}
    tol = (2 * job["N"] + 2) * coef_tol(job["body"], L) + ROUNDING
    jump = abs(ref["ends"][1] - ref["ends"][0])
    problems = []
    for i, M in enumerate(orders):
        dec = [decay_exponent(ref, kind, M) for kind in ("classical", "antiperiodic")]
        ends = {}
        for j, kind in enumerate(("classical", "antiperiodic")):
            row = rows[2 * i + j]
            s = sums[kind][i]
            err = np.abs(s[:grid] - f_grid)
            over = max(s[grid : grid + sub].max() - f_right.max(),
                       f_left.min() - s[grid + sub :].min())
            want = [err[0], err[-1], err.max(), over]
            got = [float(v) for v in row[2:6]]
            ends[kind] = np.array(got[:2])
            if row[0] != kind or int(row[1]) != M or int(row[8]) != grid or float(row[9]) != w:
                problems.append(f"compare row {2 * i + j} labels differ")
            if not all(abs(g - v) <= tol for g, v in zip(got, want)):
                problems.append(f"compare {kind} order {M} errors differ beyond {tol:.3g}")
            for g, v in zip((float(row[6]), float(row[7])), dec):
                if not (math.isnan(g) and math.isnan(v)) and not abs(g - v) <= 1e-6:
                    problems.append(f"compare order {M} decay exponent {g} != {v}")
        if jump >= ENDPOINT_JUMP and ends["antiperiodic"].max() >= ends["classical"].min():
            problems.append(f"endpoint agreement fails at order {M}")
    return problems


def check_heat(path: str, job: dict, ref: dict, readings) -> list:
    """Check a ``heat --flux --format csv`` file: fields and boundary identities."""
    header, data = read_csv(path, numeric=True)
    times, grid, L, c = job["times"], job["grid"], job["L"], job["c"]
    if header != ["x", "t", "u", "ux"] or len(data) != grid * len(times):
        return ["heat output has the wrong shape"]
    data = data.reshape(len(times), grid, 4)
    xs = np.linspace(-L, L, grid)
    N = job["N"]
    omega_max = (N + 0.5) * math.pi / L
    tol_u = (2 * N + 2) * coef_tol(job["body"], L) + ROUNDING
    tol_ux = tol_u * omega_max
    problems = []
    for j, t in enumerate(times):
        block = data[j]
        if not (np.array_equal(block[:, 0], xs) and np.all(block[:, 1] == t)):
            problems.append(f"heat grid differs at t={t}")
            continue
        u, ux = heat_fields(ref["alpha"], ref["beta"], L, job["k"], c, xs, t)
        if not _max_diff(block[:, 2], u) <= tol_u:
            problems.append(f"heat u differs at t={t}")
        if not _max_diff(block[:, 3], ux) <= tol_ux:
            problems.append(f"heat ux differs at t={t}")
        scale = max(1.0, abs(c), float(np.abs(block[:, 2]).max()))
        defect = max(abs(block[0, 2] + block[-1, 2] - 2.0 * c) / scale,
                     abs(block[0, 3] + block[-1, 3]) / max(1.0, float(np.abs(block[:, 3]).max())))
        readings.boundary_defect = max(readings.boundary_defect, defect)
        if defect > BOUNDARY_TOL:
            problems.append(f"heat boundary identity defect {defect:.3g} at t={t}")
    return problems
