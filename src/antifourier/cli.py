"""Command-line interface emitting JSON/CSV plot data.

Exit codes: 0 success, 1 numerical failure (non-convergent quadrature,
incompatible heat data), 2 flag, size, function-spec, input-file or output-path
errors; each error ends with ``antifourier <command>: error: <message>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io
from .antiperiodic import antiperiodic_coefficients, half_basis
from .catalog import evaluate, parse_function_spec
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
from .quadrature import _MAX_ACTIVE_INTERVALS, DEFAULT_CONFIG, QuadratureConfig

ENV_QUAD_TOL = "ANTIFOURIER_QUAD_TOL"
# --kind choices and the series each one selects
_KINDS = {
    "classical": ("classical",), "anti": ("antiperiodic",), "both": ("classical", "antiperiodic")
}
GIBBS_COLUMNS = ("series_kind", "order", "window_fraction", "subgrid_points", "overshoot")
# Most values one array of a command may hold: (largest order + 1) x (largest
# grid), and for heat also times x grid.  The default compare ladder needs
# 401 x 4001, about 1.6M.
MAX_VALUES = 1 << 23
# Most harmonics of a command: past this the top callable harmonic would start
# with more quadrature panels than the integrator's interval budget.
MAX_HARMONICS = _MAX_ACTIVE_INTERVALS

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

The environment variable {ENV_QUAD_TOL} overrides the default quadrature
tolerance; the --quad-tol flag beats the environment variable.
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


_INTERVAL = _arg(
    lambda text: math.pi if text.strip().lower() == "pi" else float(text),
    _positive, "a positive half-width or 'pi'",
)
_POSITIVE = _arg(float, _positive, "a positive number")
_FINITE = _arg(float, math.isfinite, "a finite number")
_ORDER = _arg(int, lambda v: v >= 0, "a nonnegative integer")
_GRID = _arg(int, lambda v: v >= 2, "an integer of at least 2")
_ODD_GRID = _arg(int, lambda v: v >= 3 and v % 2 == 1, "an odd integer of at least 3")
# the window and subgrid rules of gibbs_overshoot, checked before any work
_WINDOW = _arg(float, lambda v: 0.0 < v < 0.5, "a number strictly between 0 and 0.5")
_SUBGRID = _arg(int, lambda v: v >= MIN_SUBGRID_POINTS, f"at least {MIN_SUBGRID_POINTS} points")
_TIMES = _arg(float, lambda v: math.isfinite(v) and v >= 0.0, "nonnegative times", many=True)
_ORDERS = _arg(int, lambda v: v >= 0, "nonnegative orders", many=True)


def _add_common(sub, with_function=True):
    if with_function:
        sub.add_argument("--function", required=True, help="function spec (see grammar below)")
    sub.add_argument(
        "--interval", required=True, type=_INTERVAL, metavar="L|pi",
        help="half-width L of the symmetric interval [-L, L]; 'pi' is accepted",
    )
    sub.add_argument(
        "--quad-tol", type=_POSITIVE, default=None,
        help="absolute quadrature tolerance (default 1e-10)",
    )
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path (written atomically)")


def build_parser() -> argparse.ArgumentParser:
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
    _add_common(p)
    p.add_argument("--kind", choices=_KINDS, default="both")
    p.add_argument("--n", type=_ORDER, default=32, help="truncation order")

    p = sub.add_parser("eval", help="evaluate partial sums on a grid")
    _add_common(p)
    p.add_argument("--kind", choices=_KINDS, default="both")
    p.add_argument("--n", type=_ORDER, default=32, help="truncation order")
    p.add_argument("--grid", type=_GRID, default=201, help="number of grid points")
    p.add_argument(
        "--coeffs-file", default=None,
        help="reuse coefficients from a 'coeffs --format json' output file",
    )

    p = sub.add_parser("compare", help="diagnostics ladder over truncation orders")
    _add_common(p)
    p.add_argument(
        "--orders", type=_ORDERS, default=DEFAULT_ORDERS, metavar="M1,M2,...",
        help=f"truncation orders (default {','.join(map(str, DEFAULT_ORDERS))})",
    )
    p.add_argument("--grid", type=_ODD_GRID, default=2001, help="error-profile grid (odd)")
    p.add_argument("--window-fraction", type=_WINDOW, default=0.1)
    p.add_argument("--subgrid", type=_SUBGRID, default=4001, help="overshoot window grid")

    p = sub.add_parser("gibbs", help="endpoint overshoot report")
    _add_common(p)
    p.add_argument("--kind", choices=_KINDS, default="both")
    p.add_argument("--n", type=_ORDER, default=400, help="truncation order")
    p.add_argument("--window-fraction", type=_WINDOW, default=0.1)
    p.add_argument("--subgrid", type=_SUBGRID, default=4001, help="overshoot window grid")

    p = sub.add_parser("heat", help="solve the mean-value heat problem")
    _add_common(p)
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


def _check_size(args) -> None:
    """Refuse, before any work, a command whose largest array passes MAX_VALUES
    or whose largest order + 1 passes MAX_HARMONICS."""
    order = max(args.orders) if args.command == "compare" else args.n
    grid = max(getattr(args, "grid", 0), getattr(args, "subgrid", 0))  # coeffs has neither
    sizes = {
        "largest order + 1": (order + 1, "harmonics", MAX_HARMONICS),
        "(largest order + 1) x (largest grid)": ((order + 1) * grid, "values", MAX_VALUES),
    }
    if args.command == "heat":
        sizes["times x grid"] = (len(args.times) * args.grid, "values", MAX_VALUES)
    for what, (size, unit, limit) in sizes.items():
        if size > limit:
            raise ValidationError(f"{what} is {size} {unit}, above the limit of {limit}")


def _quad_config(args) -> QuadratureConfig:
    tol = args.quad_tol
    if tol is None:
        env = os.environ.get(ENV_QUAD_TOL)
        if env is not None:
            try:
                tol = float(env)
            except ValueError:
                raise ValidationError(f"{ENV_QUAD_TOL} is not a number: {env!r}") from None
    if tol is None:
        return DEFAULT_CONFIG
    try:
        return QuadratureConfig(abs_tol=tol)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _compute_series(spec, kinds, N, cfg):
    out = {}
    if "classical" in kinds:
        out["classical"] = classical_coefficients(spec, N, cfg)
    if "antiperiodic" in kinds:
        out["antiperiodic"] = antiperiodic_coefficients(spec, N, cfg)
    return out


def _cmd_coeffs(args, cfg) -> str:
    spec = parse_function_spec(args.function, args.interval)
    kinds = _KINDS[args.kind]
    series = _compute_series(spec, kinds, args.n, cfg)
    if args.format == "json":
        if len(series) == 1:
            return io.dumps(next(iter(series.values()))) + "\n"
        return io.dumps(series) + "\n"
    rows = []
    for kind in kinds:
        obj = series[kind]
        if kind == "classical":
            rows.append(["classical", 0, obj.a[0], "", ""])
            rows.extend(
                ["classical", n, obj.a[n], obj.b[n - 1], ""] for n in range(1, obj.N + 1)
            )
        else:
            rows.extend(
                ["antiperiodic", n, obj.alpha[n], obj.beta[n], obj.gamma]
                for n in range(obj.N + 1)
            )
    return io.csv_text(("kind", "n", "cos", "sin", "gamma"), rows)


def _cmd_eval(args, cfg) -> str:
    spec = parse_function_spec(args.function, args.interval)
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
        series = _compute_series(spec, kinds, args.n, cfg)
    xs = np.linspace(-args.interval, args.interval, args.grid)
    columns = {"x": xs, "f": evaluate(spec, xs)}
    for kind in kinds:
        columns[kind] = partial_sum(series[kind], xs, args.n)
    if args.format == "json":
        return json.dumps({key: np.asarray(col).tolist() for key, col in columns.items()}) + "\n"
    header = tuple(columns)
    rows = zip(*(np.asarray(col).tolist() for col in columns.values()))
    return io.csv_text(header, rows)


def _json_value(value):
    """``value``, or None (JSON null) for a nan or infinite float, which RFC 8259 lacks."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _table(args, header, rows) -> str:
    """Rows as a JSON list of objects keyed by ``header`` (undefined values null), or as CSV."""
    if args.format == "json":
        return json.dumps([dict(zip(header, map(_json_value, row))) for row in rows]) + "\n"
    return io.csv_text(header, rows)


def _cmd_compare(args, cfg) -> str:
    spec = parse_function_spec(args.function, args.interval)
    N = max(args.orders)
    series = _compute_series(spec, ("classical", "antiperiodic"), N, cfg)
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


def _cmd_gibbs(args, cfg) -> str:
    spec = parse_function_spec(args.function, args.interval)
    kinds = _KINDS[args.kind]
    series = _compute_series(spec, kinds, args.n, cfg)
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


def _cmd_heat(args, cfg) -> str:
    spec = parse_function_spec(args.function, args.interval)
    problem = HeatProblem(k=args.k, L=args.interval, boundary_mean=args.c, initial=spec)
    sol = solve_heat(problem, args.n, cfg)
    xs = np.linspace(-args.interval, args.interval, args.grid)
    grid = xs.tolist()
    fields = {"u": heat_eval, "ux": heat_eval_dx} if args.flux else {"u": heat_eval}
    # one list of values on xs per field and time
    data = {name: [fn(sol, xs, t).tolist() for t in args.times] for name, fn in fields.items()}
    if args.format == "json":
        payload = {"solution": io.to_dict(sol), "x": grid, "times": list(args.times)}
        return json.dumps({**payload, **data}) + "\n"
    rows = (
        (x, t, *(values[j][i] for values in data.values()))
        for j, t in enumerate(args.times)
        for i, x in enumerate(grid)
    )
    return io.csv_text(("x", "t", *data), rows)


def _cmd_basis(args, cfg) -> str:
    del cfg  # basis sampling needs no quadrature
    xs = np.linspace(-args.interval, args.interval, args.grid)
    grid = xs.tolist()
    indices = range(args.n + 1)
    pairs = [[v.tolist() for v in half_basis(n, args.interval, xs)] for n in indices]
    if args.format == "json":
        cos, sin = [[pair[k] for pair in pairs] for k in (0, 1)]
        return json.dumps({"x": grid, "n": list(indices), "cos": cos, "sin": sin}) + "\n"
    rows = ((n, x, c[i], s[i]) for n, (c, s) in enumerate(pairs) for i, x in enumerate(grid))
    return io.csv_text(("n", "x", "cos", "sin"), rows)


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
        _check_size(args)
        cfg = _quad_config(args)
        text = _HANDLERS[args.command](args, cfg)
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
