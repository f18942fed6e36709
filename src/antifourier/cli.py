"""Command-line interface emitting JSON/CSV plot data.

Exit codes: 0 success, 1 numerical failure (non-convergent quadrature,
incompatible heat data), 2 flag, size, function-spec, input-file or output-path
errors; each error ends with ``antifourier <command>: error: <message>``, and
an unrecognised flag with ``antifourier: error: unrecognized arguments: ...``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import io
from ._kernels import first_level_values
from .antiperiodic import antiperiodic_coefficients, half_basis
from .catalog import Sampled, evaluate, parse_function_spec
from .classical import classical_coefficients
from .diagnostics import (
    DEFAULT_ORDERS,
    MIN_SUBGRID_POINTS,
    REPORT_COLUMNS,
    compare_orders,
    gibbs_overshoot,
    partial_sum,
    report_rows,
)
from .errors import AntifourierError, ParseError, ValidationError
from .heat import HeatProblem, heat_eval, heat_eval_dx, solve_heat
from .quadrature import DEFAULT_TOL

ENV_QUAD_TOL = "ANTIFOURIER_QUAD_TOL"
# --kind choices and the series each one selects
_KINDS = {
    "classical": ("classical",), "anti": ("antiperiodic",), "both": ("classical", "antiperiodic")
}
GIBBS_COLUMNS = ("series_kind", "order", "window_fraction", "subgrid_points", "overshoot")
# Most values one term of a command's work may count: (largest order + 1) x
# (largest grid), for heat also times x grid and times x (largest order + 1),
# and, where f is projected, the first quadrature level (see _check_size).  The
# default compare ladder needs 401 x 4001, about 1.6M.
MAX_VALUES = 1 << 23

_EPILOG = f"""\
function spec grammar:
  poly:<c0>,<c1>,...      polynomial with ascending coefficients
  named:<id>[:<params>]   one of: identity, const:<c>, signum, x-plus-sign,
                          scaled-square
  csv:<path>              sampled x,y table (optional header row)

CSV column orders:
  coeffs   kind,n,cos,sin,gamma   (gamma empty for classical, sin empty at n=0)
  eval     x,f[,classical][,antiperiodic]
  compare  {",".join(REPORT_COLUMNS)}
  gibbs    {",".join(GIBBS_COLUMNS)}
  heat     x,t,u[,ux]
  basis    n,x,cos,sin

--quad-tol defaults to the environment variable {ENV_QUAD_TOL} when it is
set, else to {DEFAULT_TOL:g}; the flag beats the variable.  basis takes neither
--function nor --quad-tol.
"""


def _arg(cast, ok, what, many=False):
    """argparse type: ``cast`` the text (each comma-separated token if ``many``)
    and accept a value only where ``ok(value)`` holds."""

    def parse(text):
        values = []
        for token in text.split(",") if many else (text,):
            try:
                value = cast(token)
                accepted = ok(value)
            except ValueError:
                accepted = False
            if not accepted:
                raise argparse.ArgumentTypeError(f"expected {what}, got {token!r}")
            values.append(value)
        return tuple(values) if many else values[0]

    return parse


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0.0


_INTERVAL = _arg(  # the grid spans [-L, L], 2L wide
    lambda text: math.pi if text.strip().lower() == "pi" else float(text),
    lambda v: _positive(v) and math.isfinite(2.0 * v),
    "a positive half-width L with 2L finite, or 'pi'",
)
_POSITIVE = _arg(float, _positive, "a positive number")
_QUAD_TOL = _arg(float, _positive, f"a positive number (--quad-tol or {ENV_QUAD_TOL})")
_FINITE = _arg(float, math.isfinite, "a finite number")
_ORDER = _arg(int, lambda v: v >= 0, "a nonnegative integer")
_GRID = _arg(int, lambda v: v >= 2, "an integer of at least 2")
_ODD_GRID = _arg(int, lambda v: v >= 3 and v % 2 == 1, "an odd integer of at least 3")
# the window and subgrid rules of gibbs_overshoot, checked before any work
_WINDOW = _arg(float, lambda v: 0.0 < v < 0.5, "a number strictly between 0 and 0.5")
_SUBGRID = _arg(int, lambda v: v >= MIN_SUBGRID_POINTS, f"at least {MIN_SUBGRID_POINTS} points")
_TIMES = _arg(float, lambda v: math.isfinite(v) and v >= 0.0, "nonnegative times", many=True)
_ORDERS = _arg(int, lambda v: v >= 0, "nonnegative orders", many=True)


def _add_common(sub, quad_tol=None, with_function=True):
    if with_function:
        sub.add_argument("--function", required=True, help="function spec (see grammar below)")
    sub.add_argument(
        "--interval", required=True, type=_INTERVAL, metavar="L|pi",
        help="half-width L of the symmetric interval [-L, L]; 'pi' is accepted",
    )
    if with_function:  # argparse checks a text default as the flag, when the flag is absent
        sub.add_argument(
            "--quad-tol", type=_QUAD_TOL, default=quad_tol,
            help=f"absolute error target of each coefficient "
            f"(default ${ENV_QUAD_TOL}, else {DEFAULT_TOL:g})",
        )
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path (written atomically)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser.  It is built once per process for each value of
    ANTIFOURIER_QUAD_TOL, which is read on every call and is the --quad-tol
    default; a parse leaves the parser as it was, so one serves every call."""
    return _parser(os.environ.get(ENV_QUAD_TOL, repr(DEFAULT_TOL)))


@functools.lru_cache(maxsize=1)
def _parser(quad_tol: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antifourier",
        description="Half-integer-harmonic Fourier series toolkit: coefficients, "
        "series evaluation, Gibbs/convergence diagnostics, and a heat solver "
        "with mean-value boundary conditions.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="compute series coefficients")
    _add_common(p, quad_tol)
    p.add_argument("--kind", choices=_KINDS, default="both")
    p.add_argument("--n", type=_ORDER, default=32, help="truncation order")

    p = sub.add_parser("eval", help="evaluate partial sums on a grid")
    _add_common(p, quad_tol)
    p.add_argument("--kind", choices=_KINDS, default="both")
    p.add_argument("--n", type=_ORDER, default=32, help="truncation order")
    p.add_argument("--grid", type=_GRID, default=201, help="number of grid points")
    p.add_argument(
        "--coeffs-file", default=None,
        help="reuse coefficients from a 'coeffs --format json' output file",
    )

    p = sub.add_parser("compare", help="diagnostics ladder over truncation orders")
    _add_common(p, quad_tol)
    p.add_argument(
        "--orders", type=_ORDERS, default=DEFAULT_ORDERS, metavar="M1,M2,...",
        help=f"truncation orders (default {','.join(map(str, DEFAULT_ORDERS))})",
    )
    p.add_argument("--grid", type=_ODD_GRID, default=2001, help="error-profile grid (odd)")
    p.add_argument("--window-fraction", type=_WINDOW, default=0.1)
    p.add_argument("--subgrid", type=_SUBGRID, default=4001, help="overshoot window grid")

    p = sub.add_parser("gibbs", help="endpoint overshoot report")
    _add_common(p, quad_tol)
    p.add_argument("--kind", choices=_KINDS, default="both")
    p.add_argument("--n", type=_ORDER, default=400, help="truncation order")
    p.add_argument("--window-fraction", type=_WINDOW, default=0.1)
    p.add_argument("--subgrid", type=_SUBGRID, default=4001, help="overshoot window grid")

    p = sub.add_parser("heat", help="solve the mean-value heat problem")
    _add_common(p, quad_tol)
    p.add_argument("--k", type=_POSITIVE, default=1.0, help="diffusivity")
    p.add_argument("--c", type=_FINITE, default=1.0, help="boundary mean temperature")
    p.add_argument("--n", type=_ORDER, default=10, help="truncation order")
    p.add_argument("--times", type=_TIMES, default=(0.0, 0.5, 1.0), metavar="T1,T2,...")
    p.add_argument("--grid", type=_GRID, default=101, help="number of x grid points")
    p.add_argument("--flux", action="store_true", help="also emit the x-derivative column")

    p = sub.add_parser("basis", help="sample the half-integer basis functions")
    _add_common(p, with_function=False)
    p.add_argument("--n", type=_ORDER, default=4, help="largest basis index")
    p.add_argument("--grid", type=_GRID, default=101, help="number of x grid points")

    return parser


def _check_size(args):
    """Return the command's parsed function (None for basis), after refusing a
    command when any one term of its work, a count of values, passes MAX_VALUES."""
    spec = None if args.command == "basis" else parse_function_spec(args.function, args.interval)
    harmonics = (max(args.orders) if args.command == "compare" else args.n) + 1
    grid = max(getattr(args, "grid", 0), getattr(args, "subgrid", 0))  # coeffs has neither
    sizes = {}
    if spec is not None and not getattr(args, "coeffs_file", None):  # the command projects f
        if isinstance(spec.body, Sampled):
            sizes["(largest order + 1) x table rows"] = harmonics * len(spec.body.xs)
        else:
            work = first_level_values(spec, harmonics - 1)
            sizes["first-level panels x (largest order + 1 + terms of f)"] = work
    sizes["(largest order + 1) x (largest grid)"] = harmonics * grid
    if args.command == "heat":
        sizes["times x grid"] = len(args.times) * args.grid
        sizes["times x (largest order + 1)"] = len(args.times) * harmonics
    for what, size in sizes.items():
        if size > MAX_VALUES:
            raise ValidationError(f"{what} is {size} values, above the limit of {MAX_VALUES}")
    return spec


def _compute_series(spec, kinds, N, abs_tol):
    compute = {"classical": classical_coefficients, "antiperiodic": antiperiodic_coefficients}
    return {kind: compute[kind](spec, N, abs_tol) for kind in kinds}


def _cmd_coeffs(args, spec) -> str:
    kinds = _KINDS[args.kind]
    series = _compute_series(spec, kinds, args.n, args.quad_tol)
    if args.format == "json":
        if len(series) == 1:
            return io.dumps(next(iter(series.values()))) + "\n"
        return io.dumps(series) + "\n"
    blocks = []  # one block per series, after the classical n=0 row (no sine)
    for kind in kinds:
        obj = series[kind]
        if kind == "classical":
            blocks.append(["classical", 0, obj.a[0], "", ""])
            n, cos, sin, gamma = range(1, obj.N + 1), obj.a[1:], obj.b, ""
        else:
            n, cos, sin, gamma = range(obj.N + 1), obj.alpha, obj.beta, obj.gamma
        blocks.append([kind, list(n), cos.tolist(), sin.tolist(), gamma])
    return io.csv_text(("kind", "n", "cos", "sin", "gamma"), blocks)


def _cmd_eval(args, spec) -> str:
    kinds = _KINDS[args.kind]
    if args.coeffs_file:
        loaded = io.load_coefficients(args.coeffs_file)
        series = {}
        for kind in kinds:
            if kind not in loaded:
                raise ValidationError(f"{args.coeffs_file}: missing {kind!r} coefficients")
            obj = loaded[kind]
            if obj.L != args.interval:
                raise ValidationError(
                    f"{args.coeffs_file}: coefficients use L={obj.L!r}, "
                    f"flags request L={args.interval!r}"
                )
            if obj.N < args.n:
                raise ValidationError(
                    f"{args.coeffs_file}: stored order {obj.N} is below --n {args.n}"
                )
            series[kind] = obj
    else:
        series = _compute_series(spec, kinds, args.n, args.quad_tol)
    xs = np.linspace(-args.interval, args.interval, args.grid)
    columns = {"x": xs}
    # an overflow in f or in a partial sum leaves a nan or an infinity, which
    # JSON cannot hold: every column is checked before anything is written
    with np.errstate(over="ignore", invalid="ignore"):
        columns["f"] = evaluate(spec, xs)
        for kind in kinds:
            columns[kind] = partial_sum(series[kind], xs, args.n)
    for key, col in columns.items():
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            x = float(xs[bad[0]])
            raise ValidationError(f"{key} is not finite at x={x!r}: its values are too large")
    lists = {key: np.asarray(col).tolist() for key, col in columns.items()}
    if args.format == "json":
        return json.dumps(lists) + "\n"
    return io.csv_text(tuple(lists), [list(lists.values())])  # one block of every column


def _json_value(value):
    """``value``, or None (JSON null) for a nan or infinite float, which RFC 8259 lacks."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _table(args, header, rows) -> str:
    """Rows as a JSON list of objects keyed by ``header`` (undefined values null), or as CSV."""
    if args.format == "json":
        return json.dumps([dict(zip(header, map(_json_value, row))) for row in rows]) + "\n"
    return io.csv_text(header, rows)


def _cmd_compare(args, spec) -> str:
    N = max(args.orders)
    series = _compute_series(spec, ("classical", "antiperiodic"), N, args.quad_tol)
    rows = compare_orders(
        spec,
        series["classical"],
        series["antiperiodic"],
        orders=args.orders,
        grid_size=args.grid,
        window_fraction=args.window_fraction,
        subgrid_points=args.subgrid,
    )
    return _table(args, REPORT_COLUMNS, report_rows(rows))


def _cmd_gibbs(args, spec) -> str:
    kinds = _KINDS[args.kind]
    series = _compute_series(spec, kinds, args.n, args.quad_tol)
    rows = [
        (
            kind,
            args.n,
            args.window_fraction,
            args.subgrid,
            gibbs_overshoot(spec, series[kind], args.n, args.window_fraction, args.subgrid),
        )
        for kind in kinds
    ]
    return _table(args, GIBBS_COLUMNS, rows)


def _cmd_heat(args, spec) -> str:
    problem = HeatProblem(k=args.k, L=args.interval, boundary_mean=args.c, initial=spec)
    sol = solve_heat(problem, args.n, args.quad_tol)
    xs = np.linspace(-args.interval, args.interval, args.grid)
    grid = xs.tolist()
    fields = {"u": heat_eval, "ux": heat_eval_dx} if args.flux else {"u": heat_eval}
    # one call per field, one list of values on xs per time
    times = np.array(args.times)
    data = {name: fn(sol, xs, times).tolist() for name, fn in fields.items()}
    if args.format == "json":
        payload = {"solution": io.to_dict(sol), "x": grid, "times": list(args.times)}
        return json.dumps({**payload, **data}) + "\n"
    # one block of rows per time, all on the one grid list
    blocks = ([grid, t, *(values[j] for values in data.values())] for j, t in enumerate(args.times))
    return io.csv_text(("x", "t", *data), blocks)


def _cmd_basis(args, _) -> str:
    xs = np.linspace(-args.interval, args.interval, args.grid)
    grid = xs.tolist()
    indices = range(args.n + 1)
    pairs = [[v.tolist() for v in half_basis(n, args.interval, xs)] for n in indices]
    if args.format == "json":
        cos, sin = [[pair[k] for pair in pairs] for k in (0, 1)]
        return json.dumps({"x": grid, "n": list(indices), "cos": cos, "sin": sin}) + "\n"
    blocks = ([n, grid, c, s] for n, (c, s) in enumerate(pairs))  # one block of rows per mode
    return io.csv_text(("n", "x", "cos", "sin"), blocks)


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "gibbs": _cmd_gibbs,
    "heat": _cmd_heat,
    "basis": _cmd_basis,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    error_prefix = f"{parser.prog} {args.command}: error:"  # as argparse's for flag values
    try:
        spec = _check_size(args)
        text = _HANDLERS[args.command](args, spec)
        if args.out:
            io.write_text_atomic(args.out, text)
    except (ParseError, ValidationError, OSError, UnicodeDecodeError) as exc:
        print(error_prefix, exc, file=sys.stderr)
        return 2
    except AntifourierError as exc:
        if args.format == "json":
            error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            sys.stdout.write(json.dumps(error) + "\n")
        print(error_prefix, exc, file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
